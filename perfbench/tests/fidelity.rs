//! The benchmark measures the program it claims to: hand-built soaks
//! equal the library's own scenario runs, decorators change nothing, and
//! a seed never used while tuning the benchmark still passes every check.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use controller::SdnController;
use perfbench::campaign;
use perfbench::soak::{self, SoakSpec};
use perfbench::trace::Tracer;
use perfbench::workloads::{cross_check, Measurement, END_TO_END, PER_LAYER};
use perfbench::{fingerprint, layers};
use sdn_types::Duration;
use tm_core::load::{self, LoadScenario};
use tm_core::scale::{self, ScaleScenario};
use topoguard::{Lli, TopoGuard};

/// A seed the benchmark was never tuned on.
const HOLD_OUT: u64 = 0x5EED_7E57;

fn library_print(spec: &SoakSpec) -> u64 {
    let metrics = if let Some(traffic) = spec.load {
        load::run(&LoadScenario::new(
            spec.topo, spec.stack, traffic, spec.seed,
        ))
        .metrics
    } else {
        scale::run(&ScaleScenario {
            run_for: spec.run_for,
            ..ScaleScenario::new(spec.topo, spec.stack, spec.seed)
        })
        .metrics
    };
    fingerprint(metrics.render().as_bytes())
}

/// Runs `spec` hand-built, untraced and traced, and checks both against
/// the library run and the benign-load invariants.
fn assert_soak_matches_library(spec: &SoakSpec) {
    let expected = library_print(spec);

    let mut plain = soak::build(spec, None);
    let plain_run = soak::run(&mut plain, spec, None);
    assert_eq!(
        fingerprint(plain_run.metrics.render().as_bytes()),
        expected,
        "hand-built soak diverges from the library run"
    );

    let tracer = Tracer::new();
    let mut traced = soak::build(spec, Some(&tracer));
    let traced_run = soak::run(&mut traced, spec, Some(&tracer));
    assert_eq!(
        fingerprint(traced_run.metrics.render().as_bytes()),
        expected,
        "decorators changed the simulation"
    );

    for run in [&plain_run, &traced_run] {
        assert_eq!(run.alerts, 0, "benign load raised alerts");
        assert_eq!(
            run.links,
            2 * plain.topo.links.len(),
            "discovery missed trunks"
        );
    }
    let mut m = Measurement::default();
    assert!(
        cross_check(&mut m, &tracer.profile(), &traced_run.metrics, &traced),
        "{:?}",
        m.problems
    );
}

#[test]
fn load_soak_matches_the_library_load_run() {
    assert_soak_matches_library(&SoakSpec::load_soak(1));
    assert_soak_matches_library(&SoakSpec::load_soak(HOLD_OUT));
}

#[test]
fn discovery_soak_matches_the_library_scale_run() {
    assert_soak_matches_library(&SoakSpec::discovery_4k(HOLD_OUT));
}

#[test]
fn decorators_forward_downcasts() {
    let spec = SoakSpec {
        run_for: Duration::from_millis(500),
        ..SoakSpec::discovery_4k(3)
    };
    let tracer = Tracer::new();
    let mut built = soak::build(&spec, Some(&tracer));
    soak::run(&mut built, &spec, Some(&tracer));
    let ctrl: &SdnController = built
        .sim
        .controller_as()
        .expect("TracedController forwards as_any");
    assert!(ctrl.module_as::<TopoGuard>().is_some());
    assert!(ctrl.module_as::<Lli>().is_some());
    let profile = tracer.profile();
    assert_eq!(profile.get(layers::TIMER_DISCOVERY).calls, 1);
    assert!(profile.get("topoguard.lli").calls > 0);
}

#[test]
fn campaign_reproduces_the_matrix_on_a_hold_out_seed() {
    let run = campaign::execute(campaign::prepare(HOLD_OUT, 2));
    assert_eq!(run.attempted, 20 * campaign::SEEDS_PER_CELL);
    assert_eq!((run.failed, run.wrong), (0, 0));
    assert_eq!(
        run.profile.durations.len(),
        run.attempted,
        "one span per run"
    );
    for (point, seed) in &run.first_runs[..4] {
        let (_, ok) = campaign::sample_cell(point, *seed);
        assert!(ok, "scenario API disagrees on [{}]", point.label());
    }
}

#[test]
fn benchmark_json_names_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json names metrics the benchmark does not print"
    );
}
