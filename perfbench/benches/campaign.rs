//! `attack-campaign`: the fat-tree-4 fabric matrix (4 attacks × 5 defense
//! stacks) through `tm_campaign::run_campaign_with`, many ~10 ms
//! simulations whose own set-up (topology, role mapping, controller) is
//! part of every run.
//!
//! The benchmark wraps the registered run function (`Scenario::run`) in a
//! span per run, and checks every run's verdict through a `RunSink`.

use std::sync::Arc;
use std::time::Instant;

use bench::campaign::{
    fabric_matrix_scenario, FABRIC_MATRIX_DEFAULT_ATTACKS, FABRIC_MATRIX_STACKS,
};
use controller::ControllerConfig;
use netsim::Simulator;
use tm_campaign::{
    run_campaign_with, CampaignSpec, GridPoint, Registry, Resume, RunRecord, RunSink, RunStatus,
};
use tm_core::fabric;
use tm_core::hijack::{self, HijackScenario};
use tm_core::linkfab::{self, LinkFabScenario, RelayMode};
use tm_core::DefenseStack;
use tm_topo::TopoKind;

use crate::trace::{Profile, Tracer};

/// The only fabric the campaign runs on.
pub const TOPOLOGY: &str = "fat-tree-4";

/// Seeds per grid cell: 20 cells × 10 seeds = 200 runs per campaign.
pub const SEEDS_PER_CELL: usize = 10;

/// Span name of one run of each attack, in `FABRIC_MATRIX_DEFAULT_ATTACKS`
/// order.
pub const RUN_SPANS: [&str; 4] = [
    "tm-core.run.naive-relay",
    "tm-core.run.oob-amnesia",
    "tm-core.run.in-band",
    "tm-core.run.port-probing-hijack",
];

/// Per-layer metric name of each attack's median run time, in the same
/// order.
pub const RUN_P50: [&str; 4] = [
    "tm-core.run_ms_p50.naive-relay",
    "tm-core.run_ms_p50.oob-amnesia",
    "tm-core.run_ms_p50.in-band",
    "tm-core.run_ms_p50.port-probing-hijack",
];

fn attack_index(point: &GridPoint) -> usize {
    let attack = point.get("attack").unwrap_or_default();
    FABRIC_MATRIX_DEFAULT_ATTACKS
        .iter()
        .position(|a| *a == attack)
        .unwrap_or(0)
}

/// The `(succeeded, detected)` verdict the paper's Fig. 1/9 matrix gives,
/// as it reproduces on fat-tree-4: naive relay is caught by every
/// TopoGuard stack, both amnesia relays only by TOPOGUARD+, and port
/// probing wins against all five stacks.
pub fn expected_verdict(attack: &str, stack: &str) -> (bool, bool) {
    let detected = match attack {
        "naive-relay" => matches!(stack, "topoguard" | "tg-sphinx" | "topoguard-plus"),
        "oob-amnesia" | "in-band" => stack == "topoguard-plus",
        _ => false,
    };
    (!detected, detected)
}

fn verdict_ok(point: &GridPoint, metrics: &tm_campaign::Metrics) -> bool {
    let attack = point.get("attack").unwrap_or_default();
    let stack = point.get("stack").unwrap_or_default();
    let (succeeded, detected) = expected_verdict(attack, stack);
    metrics.get("succeeded") == Some(f64::from(u8::from(succeeded)))
        && metrics.get("detected") == Some(f64::from(u8::from(detected)))
}

/// Checks every run as it streams out of the campaign, and keeps the
/// seed each cell's first run used.
struct VerdictSink {
    cells: Vec<GridPoint>,
    runs: usize,
    failed: usize,
    wrong: usize,
    first_seeds: Vec<u64>,
}

impl RunSink for VerdictSink {
    fn on_run(&mut self, record: &RunRecord) -> Result<(), String> {
        self.runs += 1;
        let point = &self.cells[record.cell];
        match &record.status {
            RunStatus::Ok(m) if verdict_ok(point, m) => {}
            RunStatus::Ok(m) => {
                self.wrong += 1;
                eprintln!(
                    "wrong verdict in [{}] seed {:#x}: {m:?}",
                    point.label(),
                    record.seed
                );
            }
            RunStatus::Failed(cause) => {
                self.failed += 1;
                eprintln!("failed run in [{}]: {cause}", point.label());
            }
        }
        if record.seed_index == 0 {
            self.first_seeds.push(record.seed);
        }
        Ok(())
    }
}

/// A campaign ready to start.
pub struct Prepared {
    registry: Registry,
    spec: CampaignSpec,
    cells: Vec<GridPoint>,
    tracer: Tracer,
}

impl Prepared {
    /// Builds, without running, the network and simulator of every grid
    /// cell through `tm_core::fabric`: topology generation, attacker role
    /// mapping, controller and defenses. Every run of the campaign pays
    /// this set-up inside its run function; timing it on its own shows
    /// work moved between set-up and the simulation.
    pub fn set_up_cells(&self, seed: u64) {
        let kind = TopoKind::from_label(TOPOLOGY).expect("valid label");
        for point in &self.cells {
            let stack = stack_of(point.get("stack").unwrap_or_default());
            let config = ControllerConfig::default();
            let net = if point.get("attack") == Some("port-probing-hijack") {
                fabric::hijack_setup(kind, stack, seed, config).0
            } else {
                fabric::relay_setup(kind, stack, seed, config).0
            };
            drop(Simulator::new(net, seed));
        }
    }
}

/// Builds the fabric-matrix scenario with its run function wrapped in a
/// span per run, and the campaign spec (`workers` threads).
pub fn prepare(seed: u64, workers: usize) -> Prepared {
    let tracer = Tracer::new();
    let mut scenario = fabric_matrix_scenario(
        &[TOPOLOGY],
        &FABRIC_MATRIX_DEFAULT_ATTACKS,
        &FABRIC_MATRIX_STACKS,
    )
    .expect("the default fabric-matrix labels are valid");
    let inner = scenario.run.clone();
    let t = tracer.clone();
    scenario.run = Arc::new(move |point: &GridPoint, seed: u64| {
        t.span(RUN_SPANS[attack_index(point)], || inner(point, seed))
    });
    let cells = scenario.cells();
    let mut registry = Registry::new();
    registry
        .register(scenario)
        .expect("a fresh registry has no duplicate");
    let spec = CampaignSpec {
        seeds: SEEDS_PER_CELL,
        workers,
        quiet_panics: true,
        ..CampaignSpec::new("fabric-matrix", seed)
    };
    Prepared {
        registry,
        spec,
        cells,
        tracer,
    }
}

/// What one campaign did.
pub struct CampaignRun {
    /// Wall time of `run_campaign_with`, in seconds.
    pub wall_s: f64,
    /// Runs the campaign attempted.
    pub attempted: usize,
    /// Runs that panicked.
    pub failed: usize,
    /// Runs whose verdict differs from [`expected_verdict`].
    pub wrong: usize,
    /// [`crate::fingerprint`] of the rendered report: every cell's
    /// aggregates.
    pub fingerprint: u64,
    /// One span per run.
    pub profile: Profile,
    /// The grid and the seed each cell's first run used.
    pub first_runs: Vec<(GridPoint, u64)>,
}

/// Runs a prepared campaign to completion.
pub fn execute(prepared: Prepared) -> CampaignRun {
    let mut sink = VerdictSink {
        cells: prepared.cells.clone(),
        runs: 0,
        failed: 0,
        wrong: 0,
        first_seeds: Vec::new(),
    };
    let t = Instant::now();
    let report = run_campaign_with(
        &prepared.registry,
        &prepared.spec,
        &Resume::none(),
        &mut sink,
    )
    .expect("the benchmark's campaign spec is valid");
    let wall_s = t.elapsed().as_secs_f64();
    CampaignRun {
        wall_s,
        attempted: report.total_runs,
        failed: sink.failed.max(report.total_failures()),
        wrong: sink.wrong + report.total_runs.abs_diff(sink.runs),
        fingerprint: crate::fingerprint(report.render().as_bytes()),
        profile: prepared.tracer.profile(),
        first_runs: prepared.cells.into_iter().zip(sink.first_seeds).collect(),
    }
}

fn stack_of(label: &str) -> DefenseStack {
    match label {
        "topoguard" => DefenseStack::TopoGuard,
        "sphinx" => DefenseStack::Sphinx,
        "tg-sphinx" => DefenseStack::TopoGuardSphinx,
        "topoguard-plus" => DefenseStack::TopoGuardPlus,
        _ => DefenseStack::None,
    }
}

/// Runs one cell the way the fabric-matrix run function does, but through
/// the scenario API, which also returns the run's telemetry. Returns the
/// snapshot and whether the verdict matches [`expected_verdict`].
pub fn sample_cell(point: &GridPoint, seed: u64) -> (tm_telemetry::MetricsSnapshot, bool) {
    let kind = TopoKind::from_label(TOPOLOGY).expect("valid label");
    let attack = point.get("attack").unwrap_or_default();
    let stack_label = point.get("stack").unwrap_or_default();
    let stack = stack_of(stack_label);
    let ((succeeded, detected), metrics) = if attack == "port-probing-hijack" {
        let out = hijack::run(&HijackScenario {
            victim_rejoins: false,
            ..HijackScenario::on_fabric(kind, stack, seed)
        });
        (
            (out.hijack_succeeded(), out.alerts_before_rejoin > 0),
            out.metrics,
        )
    } else {
        let mode = match attack {
            "naive-relay" => RelayMode::NaiveNoAmnesia,
            "in-band" => RelayMode::InBand,
            _ => RelayMode::OutOfBand,
        };
        let out = linkfab::run(&LinkFabScenario::on_fabric(mode, kind, stack, seed));
        ((out.link_established, out.detected()), out.metrics)
    };
    let ok = (succeeded, detected) == expected_verdict(attack, stack_label);
    (metrics, ok)
}
