//! The streaming-vs-two-pass differential, pinned over **every registered
//! scenario's grid shape**.
//!
//! The streaming rebuild of the campaign runner is only allowed to exist
//! because it is byte-identical to the original collect-then-summarize
//! path. This suite drives both over:
//!
//! * a *synthetic twin* of each registered scenario — the real axes (so
//!   every grid shape in the registry is covered, from the single-cell
//!   probes to the fabric-matrix product grid) with a cheap pure-
//!   arithmetic run function plus injected failures, so the whole sweep
//!   stays test-suite fast;
//! * the real `SMOKE_SCENARIOS`, executed for real, so the adapters are
//!   in the loop for at least two scenarios.
//!
//! Each case checks: live streaming report == two-pass reference over
//! the recorded stream == stream replay, rendered bytes and structured
//! cells alike — and the sharded union of the synthetic twins matches
//! the unsharded run.

#[path = "../../tm-campaign/tests/support/two_pass.rs"]
mod two_pass;

use bench::campaign;
use tm_campaign::{
    aggregate_stream, run_campaign_with, CampaignMeta, CampaignSpec, Metrics, RecordingSink,
    Registry, Resume, Scenario, Shard,
};
use two_pass::aggregate_two_pass;

/// A registry of synthetic twins: every registered scenario's name, axes
/// and description, with the run function replaced by seed arithmetic
/// that also injects deterministic failures (so failed-cell aggregation
/// is in the differential too).
fn twin_registry() -> Registry {
    let mut twins = Registry::new();
    for scenario in campaign::registry().scenarios() {
        twins
            .register(Scenario::new(
                &scenario.name,
                &scenario.description,
                scenario.axes.clone(),
                |point, seed| {
                    // Mix the point label into the arithmetic so cells
                    // genuinely differ; fail a sliver of runs.
                    let mix = point
                        .label()
                        .bytes()
                        .fold(seed, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
                    if mix % 23 == 7 {
                        panic!("synthetic failure at {}", point.label());
                    }
                    Metrics::new()
                        .with("alpha", (mix % 1000) as f64 / 7.0)
                        .with("beta", ((mix >> 8) % 100) as f64)
                },
            ))
            .expect("register twin");
    }
    twins
}

fn spec_for(name: &str, seeds: usize, workers: usize) -> CampaignSpec {
    let mut s = CampaignSpec::new(name, 0xD1FF);
    s.seeds = seeds;
    s.workers = workers;
    s.quiet_panics = true;
    s
}

fn run_recorded(
    registry: &Registry,
    spec: &CampaignSpec,
) -> (tm_campaign::CampaignReport, RecordingSink) {
    let mut sink = RecordingSink::default();
    let report = run_campaign_with(registry, spec, &Resume::none(), &mut sink).expect("campaign");
    (report, sink)
}

#[test]
fn every_registered_grid_shape_streams_identically_to_two_pass() {
    let twins = twin_registry();
    let names: Vec<String> = campaign::registry()
        .scenarios()
        .iter()
        .map(|s| s.name.clone())
        .collect();
    assert!(names.len() >= 12, "registry shrank: {names:?}");
    for name in &names {
        let spec = spec_for(name, 3, 3);
        let (live, sink) = run_recorded(&twins, &spec);
        let scenario = twins.get(name).expect("twin");
        let grid = scenario.cells();
        let meta = CampaignMeta::for_spec(scenario, &spec);

        let two_pass = aggregate_two_pass(&meta, &grid, &sink.runs).expect("two-pass");
        assert_eq!(live.render(), two_pass.render(), "{name}: render differs");
        assert_eq!(live.cells, two_pass.cells, "{name}: cells differ");

        let replayed = aggregate_stream(&meta, &grid, sink.runs).expect("replay");
        assert_eq!(live, replayed, "{name}: stream replay differs");
    }
}

#[test]
fn twin_shard_unions_match_the_unsharded_run() {
    let twins = twin_registry();
    // The widest grid in the registry is the interesting shard case.
    let widest = campaign::registry()
        .scenarios()
        .iter()
        .max_by_key(|s| s.cells().len())
        .map(|s| s.name.clone())
        .expect("non-empty registry");
    let whole = run_recorded(&twins, &spec_for(&widest, 2, 2)).0;
    for count in [2u32, 5] {
        let mut cells = Vec::new();
        for index in 0..count {
            let mut spec = spec_for(&widest, 2, 2);
            spec.shard = Shard { index, count };
            cells.extend(run_recorded(&twins, &spec).0.cells);
        }
        cells.sort_by_key(|c| c.index);
        assert_eq!(cells, whole.cells, "{widest}: {count}-way union differs");
    }
}

#[test]
fn real_smoke_scenarios_stream_identically_to_two_pass() {
    let registry = campaign::registry();
    for name in campaign::SMOKE_SCENARIOS {
        let spec = spec_for(name, 3, 2);
        let (live, sink) = run_recorded(&registry, &spec);
        let scenario = registry.get(name).expect("scenario");
        let meta = CampaignMeta::for_spec(scenario, &spec);
        let two_pass = aggregate_two_pass(&meta, &scenario.cells(), &sink.runs).expect("two-pass");
        assert_eq!(live.render(), two_pass.render(), "{name}: render differs");
        assert_eq!(live, two_pass, "{name}: report differs");
    }
}
