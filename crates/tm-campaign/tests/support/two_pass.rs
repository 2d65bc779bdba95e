//! The original two-pass campaign aggregation, kept as test code: the
//! differential oracle the streaming aggregator is pinned against (in
//! `crates/tm-campaign/tests/campaign.rs` and
//! `crates/bench/tests/streaming_diff.rs`, which include this file by
//! path).
//!
//! Why the two agree to the byte: `tm_stats::Summary::of` *is* a
//! sequential Welford fold, so pushing the same samples in the same
//! canonical order into a `tm_stats::OnlineStats` produces bit-equal
//! mean/sd/min/max; the t-interval is derived from that summary on both
//! paths; and the exact median is computed from the cell's own sample
//! buffer, which the streaming path keeps only while the cell is open.
//! No re-ordering, no re-rounding.

use tm_campaign::aggregate::MetricAggregate;
use tm_campaign::{
    CampaignMeta, CampaignReport, CellReport, GridPoint, RunRecord, RunStatus, Shard,
};
use tm_stats::quantile;

/// The original two-pass aggregation: collect every [`RunRecord`], then
/// summarize each cell from the full batch.
///
/// It holds O(runs) memory by design, which is exactly what the streaming
/// path removed from the live runner. The differential suites run both
/// paths over the same recorded stream and assert byte-equal reports.
///
/// Requires a complete unsharded batch (`grid.len() × meta.seeds`
/// records in canonical order).
pub(crate) fn aggregate_two_pass(
    meta: &CampaignMeta,
    grid: &[GridPoint],
    runs: &[RunRecord],
) -> Result<CampaignReport, String> {
    if meta.seeds == 0 {
        return Err("campaign needs at least one seed per cell".to_string());
    }
    if runs.len() != grid.len() * meta.seeds {
        return Err(format!(
            "two-pass reference needs a complete batch: {} runs for a {}-cell x {}-seed grid",
            runs.len(),
            grid.len(),
            meta.seeds
        ));
    }
    let mut cell_reports = Vec::with_capacity(grid.len());
    for (index, point) in grid.iter().enumerate() {
        let cell_runs = runs
            .get(index * meta.seeds..(index + 1) * meta.seeds)
            .ok_or_else(|| format!("cell {index} slice out of range"))?;

        // Metric order: first recorded across the cell's runs, canonical.
        let mut names: Vec<&str> = Vec::new();
        for run in cell_runs {
            if let RunStatus::Ok(metrics) = &run.status {
                for (name, _) in metrics.entries() {
                    if !names.contains(&name.as_str()) {
                        names.push(name);
                    }
                }
            }
        }

        let metrics = names
            .iter()
            .map(|name| {
                let samples: Vec<f64> = cell_runs
                    .iter()
                    .filter_map(|run| match &run.status {
                        RunStatus::Ok(metrics) => metrics.get(name),
                        RunStatus::Failed(_) => None,
                    })
                    .collect();
                let s = tm_stats::Summary::of(&samples);
                let ci_half = tm_stats::t_interval(&samples, meta.confidence)
                    .map(|ci| ci.half_width)
                    .unwrap_or(0.0);
                MetricAggregate {
                    name: name.to_string(),
                    n: s.count,
                    mean: s.mean,
                    sd: s.sd,
                    min: s.min,
                    max: s.max,
                    ci_half,
                    q50: quantile(&samples, 0.5).unwrap_or(0.0),
                }
            })
            .collect();

        let failures = cell_runs
            .iter()
            .filter_map(|run| match &run.status {
                RunStatus::Failed(cause) => Some((run.seed, cause.clone())),
                RunStatus::Ok(_) => None,
            })
            .collect();

        cell_reports.push(CellReport {
            index,
            point: point.clone(),
            seeds: meta.seeds,
            failures,
            metrics,
        });
    }
    Ok(CampaignReport {
        scenario: meta.scenario.clone(),
        description: meta.description.clone(),
        base_seed: meta.base_seed,
        seeds: meta.seeds,
        confidence: meta.confidence,
        shard: Shard::full(),
        grid_cells: grid.len(),
        total_runs: runs.len(),
        cells: cell_reports,
    })
}
