//! The campaign contract, pinned:
//!
//! 1. `--workers 1` and `--workers 8` produce **byte-identical** reports
//!    for the same spec and seed range (canonical merge order).
//! 2. A deliberately panicking parameter point yields a failed-cell
//!    report — the campaign completes instead of crashing.
//! 3. Per-run seeds depend only on `(base seed, canonical index)`.
//! 4. The streaming aggregation path is byte-identical to the retained
//!    two-pass reference over the same canonical stream.
//! 5. The union of all shards, merged in cell order, is byte-identical to
//!    the unsharded run — at every shard count and worker count.

#[path = "support/two_pass.rs"]
mod two_pass;

use tm_campaign::{
    aggregate_stream, run_campaign, run_campaign_with, Axis, CampaignMeta, CampaignSpec, Metrics,
    RecordingSink, Registry, Resume, RunStatus, Scenario, Shard,
};
use tm_rand::{Rng, StdRng};
use two_pass::aggregate_two_pass;

/// A registry of synthetic scenarios: deterministic arithmetic with a
/// seeded RNG (so distinct seeds genuinely produce distinct samples), and
/// a scenario with one poisoned grid cell.
fn registry() -> Registry {
    let mut r = Registry::new();
    r.register(Scenario::new(
        "synthetic",
        "seeded pseudo-measurements over a 2x3 grid",
        vec![
            Axis::new("mode", &["fast", "slow"]),
            Axis::new("level", &["0", "1", "2"]),
        ],
        |point, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let scale = if point.get("mode") == Some("fast") {
                1.0
            } else {
                10.0
            };
            let level: f64 = point
                .get("level")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0);
            let latency = scale * (level + 1.0) * (1.0 + rng.gen_range(0.0..0.5));
            Metrics::new()
                .with("latency_ms", latency)
                .with("detected", f64::from(u8::from(rng.gen_bool(0.5))))
        },
    ))
    .expect("register synthetic");
    r.register(Scenario::new(
        "poisoned",
        "one grid cell panics on every seed",
        vec![Axis::new("cell", &["good", "bad"])],
        |point, seed| {
            if point.get("cell") == Some("bad") {
                panic!("deliberate failure for cell=bad");
            }
            Metrics::new().with("value", (seed % 100) as f64)
        },
    ))
    .expect("register poisoned");
    r
}

fn spec(scenario: &str, workers: usize) -> CampaignSpec {
    let mut s = CampaignSpec::new(scenario, 0xD5_2018);
    s.seeds = 6;
    s.workers = workers;
    s
}

/// Runs a campaign while recording the canonical stream it emits.
fn run_recorded(r: &Registry, spec: &CampaignSpec) -> (tm_campaign::CampaignReport, RecordingSink) {
    let mut sink = RecordingSink::default();
    let report = run_campaign_with(r, spec, &Resume::none(), &mut sink).expect("campaign");
    (report, sink)
}

#[test]
fn workers_1_and_8_are_byte_identical() {
    let r = registry();
    let (serial, serial_sink) = run_recorded(&r, &spec("synthetic", 1));
    let (pooled, pooled_sink) = run_recorded(&r, &spec("synthetic", 8));
    assert_eq!(
        serial.render(),
        pooled.render(),
        "aggregate output must not depend on worker count"
    );
    // The structured reports — and the raw canonical streams the sinks
    // observed, not just the rendering — must agree too.
    assert_eq!(serial_sink.runs, pooled_sink.runs);
    assert_eq!(serial.cells, pooled.cells);
    assert_eq!(serial, pooled);
}

#[test]
fn campaigns_replay_exactly_and_diverge_across_base_seeds() {
    let r = registry();
    let a = run_campaign(&r, &spec("synthetic", 4)).expect("first");
    let b = run_campaign(&r, &spec("synthetic", 4)).expect("second");
    assert_eq!(a.render(), b.render(), "same spec must replay exactly");
    let mut other = spec("synthetic", 4);
    other.base_seed = 0xBEEF;
    let c = run_campaign(&r, &other).expect("other base seed");
    assert_ne!(a.render(), c.render(), "base seed must matter");
}

#[test]
fn panicking_cell_reports_failure_instead_of_crashing() {
    let r = registry();
    let report = run_campaign(&r, &spec("poisoned", 4)).expect("campaign survives");
    assert_eq!(report.cells.len(), 2);

    let good = &report.cells[0];
    assert_eq!(good.point.label(), "cell=good");
    assert_eq!(good.ok(), 6);
    assert!(good.failures.is_empty());
    assert_eq!(good.metrics.len(), 1);

    let bad = &report.cells[1];
    assert_eq!(bad.point.label(), "cell=bad");
    assert_eq!(bad.ok(), 0);
    assert_eq!(bad.failures.len(), 6);
    for (_, cause) in &bad.failures {
        assert_eq!(cause, "deliberate failure for cell=bad");
    }
    assert!(bad.metrics.is_empty(), "no samples, no aggregates");

    let text = report.render();
    assert!(text.contains("FAILED("), "{text}");
    assert!(text.contains("deliberate failure for cell=bad"), "{text}");
    assert!(text.contains("total: 6/12 runs ok, 6 failed"), "{text}");
}

#[test]
fn failed_cells_are_identical_across_worker_counts() {
    let r = registry();
    let serial = run_campaign(&r, &spec("poisoned", 1)).expect("workers=1");
    let pooled = run_campaign(&r, &spec("poisoned", 8)).expect("workers=8");
    assert_eq!(serial.render(), pooled.render());
}

#[test]
fn per_run_seeds_are_canonical() {
    let r = registry();
    let (report, sink) = run_recorded(&r, &spec("synthetic", 2));
    for (k, run) in sink.runs.iter().enumerate() {
        assert_eq!(run.seed, tm_rand::stream_seed(0xD5_2018, k as u64));
        assert!(matches!(run.status, RunStatus::Ok(_)));
    }
    // 6 cells x 6 seeds.
    assert_eq!(sink.runs.len(), 36);
    assert_eq!(report.total_runs, 36);
}

#[test]
fn streaming_matches_the_two_pass_reference_byte_for_byte() {
    let r = registry();
    for scenario in ["synthetic", "poisoned"] {
        let s = spec(scenario, 3);
        let (live, sink) = run_recorded(&r, &s);
        let grid = r.get(scenario).expect("scenario").cells();
        let meta = CampaignMeta::for_spec(r.get(scenario).expect("scenario"), &s);

        let two_pass = aggregate_two_pass(&meta, &grid, &sink.runs).expect("two-pass");
        assert_eq!(
            live.render(),
            two_pass.render(),
            "{scenario}: live streaming vs two-pass render"
        );
        assert_eq!(live.cells, two_pass.cells, "{scenario}: structured cells");

        let replayed =
            aggregate_stream(&meta, &grid, sink.runs.iter().cloned()).expect("stream replay");
        assert_eq!(
            live.render(),
            replayed.render(),
            "{scenario}: replaying the recorded stream"
        );
        assert_eq!(live, replayed, "{scenario}: replayed report");
    }
}

#[test]
fn shard_union_equals_the_unsharded_run_byte_for_byte() {
    let r = registry();
    for scenario in ["synthetic", "poisoned"] {
        let whole = run_campaign(&r, &spec(scenario, 2)).expect("unsharded");
        for count in [2u32, 3, 4] {
            let mut cells = Vec::new();
            let mut union_runs = Vec::new();
            for index in 0..count {
                let mut s = spec(scenario, 3);
                s.shard = Shard { index, count };
                let (part, sink) = run_recorded(&r, &s);
                assert!(
                    part.cells.iter().all(|c| s.shard.owns(c.index)),
                    "{scenario}: shard {index}/{count} reported a foreign cell"
                );
                cells.extend(part.cells);
                union_runs.extend(sink.runs);
            }
            cells.sort_by_key(|c| c.index);
            assert_eq!(
                cells, whole.cells,
                "{scenario}: {count}-way shard union vs unsharded cells"
            );
            // Merging the raw shard streams into canonical order and
            // re-aggregating also reproduces the unsharded report.
            union_runs.sort_by_key(|run| run.cell * 6 + run.seed_index);
            let scenario_ref = r.get(scenario).expect("scenario");
            let meta = CampaignMeta::for_spec(scenario_ref, &spec(scenario, 1));
            let merged =
                aggregate_stream(&meta, &scenario_ref.cells(), union_runs).expect("merged stream");
            assert_eq!(
                merged.render(),
                whole.render(),
                "{scenario}: merged {count}-way stream vs unsharded render"
            );
        }
    }
}
