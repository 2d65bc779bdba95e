//! The two single-simulation workloads, built by hand so the benchmark
//! can time each set-up step and insert its decorators.
//!
//! `load-soak` mirrors `tm_core::load::run` and `discovery-4k` mirrors
//! `tm_core::scale::run`. [`build`] rebuilds `DefenseStack::build_controller`
//! because wrapping a module means inserting it where the library inserts
//! it; the tests check that an untraced hand-built soak leaves the same
//! `MetricsSnapshot` as the library's own run for the same seed.

use std::time::Instant;

use controller::{ControllerConfig, ControllerProfile, DefenseModule, SdnController};
use netsim::{LinkProfile, Simulator, TrafficPlan, TrafficWindow};
use sdn_types::{Duration, SimTime};
use sphinx::{Sphinx, SphinxConfig};
use tm_core::fabric::TRAFFIC_START;
use tm_core::{DefenseStack, TrafficLoad};
use tm_topo::{TopoKind, TopologySpec};
use topoguard::{Cmm, CmmConfig, Lli, LliConfig, TopoGuard, TopoGuardConfig};

use crate::layers::{TracedController, TracedModule, Verdicts};
use crate::trace::Tracer;

/// Simulated time between flow-table samples in a traced run.
const SAMPLE_EVERY: Duration = Duration::from_secs(1);

/// One soak: a generated fabric, a defense stack, optional load.
#[derive(Clone, Copy, Debug)]
pub struct SoakSpec {
    /// The fabric.
    pub topo: TopoKind,
    /// The defense stack in the controller slot.
    pub stack: DefenseStack,
    /// Flow-level load; `None` runs the control plane alone.
    pub load: Option<TrafficLoad>,
    /// Simulated time to run.
    pub run_for: Duration,
    /// The simulation seed.
    pub seed: u64,
}

impl SoakSpec {
    /// `load-soak`: fat-tree-4, 800 virtual hosts per edge switch at 2
    /// flows/host/s, TopoGuard+SPHINX, 6 simulated seconds — the
    /// `tm_core::load::LoadScenario` defaults.
    pub fn load_soak(seed: u64) -> SoakSpec {
        SoakSpec {
            topo: TopoKind::FatTree { k: 4 },
            stack: DefenseStack::TopoGuardSphinx,
            load: Some(TrafficLoad::steady(800, 2.0)),
            run_for: Duration::from_secs(6),
            seed,
        }
    }

    /// `discovery-4k`: core-edge 8×3992×0 (4,000 switches, no hosts),
    /// TOPOGUARD+, 60 simulated seconds (four LLDP rounds).
    pub fn discovery_4k(seed: u64) -> SoakSpec {
        SoakSpec {
            topo: TopoKind::CoreEdge {
                core: 8,
                edge: 3992,
                hosts_per_edge: 0,
            },
            stack: DefenseStack::TopoGuardPlus,
            load: None,
            run_for: Duration::from_secs(60),
            seed,
        }
    }

    /// The controller configuration the mirrored library scenario uses:
    /// load soaks flood along a spanning tree (fabrics are loopy and the
    /// traffic engine's ARP announcements broadcast); control-plane soaks
    /// keep the defaults.
    fn controller_config(&self) -> ControllerConfig {
        ControllerConfig {
            profile: ControllerProfile::FLOODLIGHT,
            tree_scoped_flood: self.load.is_some(),
            ..ControllerConfig::default()
        }
    }
}

/// Set-up cost, split by layer, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `TopoKind::generate`.
    pub generate_s: f64,
    /// `TrafficLoad::plan_for` (zero without load).
    pub plan_s: f64,
    /// Controller and defense modules.
    pub controller_s: f64,
    /// `build_network` plus the `Simulator` constructor (handshake
    /// scheduling, `on_start`, traffic-plan installation).
    pub build_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.plan_s + self.controller_s + self.build_s
    }
}

/// A soak ready to run.
pub struct Built {
    /// The simulator, controller installed.
    pub sim: Simulator,
    /// The generated fabric.
    pub topo: TopologySpec,
    /// Traffic groups in the plan.
    pub groups: usize,
    /// What building cost.
    pub setup: SetupTimes,
    /// Veto verdicts of the TopoGuard family (TopoGuard, CMM, LLI),
    /// counted only when traced.
    pub verdicts: Verdicts,
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `DefenseStack::build_controller` for the two stacks the soaks run,
/// rebuilt so each module can be wrapped in a [`TracedModule`] when
/// `tracer` is given.
///
/// # Panics
/// Panics for any other stack.
pub fn build_controller(
    stack: DefenseStack,
    mut config: ControllerConfig,
    tracer: Option<&Tracer>,
    verdicts: &Verdicts,
) -> SdnController {
    let topoguard: (Box<dyn DefenseModule>, &'static str) = (
        Box::new(TopoGuard::new(TopoGuardConfig::default())),
        "topoguard.topoguard",
    );
    config.sign_lldp = true;
    let modules = match stack {
        DefenseStack::TopoGuardSphinx => {
            config.stats_interval = Some(Duration::from_secs(2));
            vec![
                topoguard,
                (Box::new(Sphinx::new(SphinxConfig::default())), "sphinx"),
            ]
        }
        DefenseStack::TopoGuardPlus => {
            config.timestamp_lldp = true;
            config.echo_interval = Some(Duration::from_secs(1));
            vec![
                topoguard,
                (Box::new(Cmm::new(CmmConfig::default())), "topoguard.cmm"),
                (Box::new(Lli::new(LliConfig::default())), "topoguard.lli"),
            ]
        }
        other => panic!("the soaks run tg-sphinx or topoguard-plus, not {other}"),
    };
    let mut ctrl = SdnController::new(config);
    for (module, name) in modules {
        let module = match tracer {
            Some(t) => {
                let family = if name == "sphinx" {
                    Verdicts::default()
                } else {
                    verdicts.clone()
                };
                Box::new(TracedModule::new(module, name, t.clone(), family))
            }
            None => module,
        };
        ctrl.add_module(module);
    }
    ctrl
}

/// Builds the soak, timing each set-up layer. With a tracer, the
/// controller and every defense module are wrapped in decorators.
pub fn build(spec: &SoakSpec, tracer: Option<&Tracer>) -> Built {
    let mut setup = SetupTimes::default();

    let t = Instant::now();
    let topo = spec.topo.generate(spec.seed, 0);
    setup.generate_s = seconds_since(t);

    let t = Instant::now();
    let plan = match spec.load {
        Some(load) => {
            let window =
                TrafficWindow::new(SimTime::ZERO + TRAFFIC_START, SimTime::ZERO + spec.run_for);
            load.plan_for(spec.topo, window)
        }
        None => TrafficPlan::new(),
    };
    setup.plan_s = seconds_since(t);
    let groups = plan.len();

    let t = Instant::now();
    let verdicts = Verdicts::default();
    let ctrl = build_controller(spec.stack, spec.controller_config(), tracer, &verdicts);
    setup.controller_s = seconds_since(t);

    let t = Instant::now();
    let mut net = topo.build_network(
        LinkProfile::fixed(Duration::from_micros(50)),
        LinkProfile::fixed(Duration::from_millis(1)),
    );
    match tracer {
        Some(tr) => net.set_controller(Box::new(TracedController::new(ctrl, tr.clone()))),
        None => net.set_controller(Box::new(ctrl)),
    };
    net.set_telemetry(tm_telemetry::Telemetry::new());
    let sim = Simulator::with_traffic_plan(net, spec.seed, plan);
    setup.build_s = seconds_since(t);

    Built {
        sim,
        topo,
        groups,
        setup,
        verdicts,
    }
}

/// What one soak run left behind.
pub struct SoakRun {
    /// Wall time of the simulated run, in seconds.
    pub wall_s: f64,
    /// The final telemetry snapshot.
    pub metrics: tm_telemetry::MetricsSnapshot,
    /// Alerts the defenses raised.
    pub alerts: usize,
    /// Directed links the controller discovered.
    pub links: usize,
    /// Largest flow table seen on any switch (sampled once per simulated
    /// second in a traced run, at the end otherwise).
    pub flow_entries_max: usize,
}

fn max_flow_entries(sim: &Simulator, topo: &TopologySpec) -> usize {
    topo.switches
        .iter()
        .filter_map(|&dpid| sim.flow_count(dpid))
        .max()
        .unwrap_or(0)
}

/// Runs a built soak to its end. With a tracer, the run advances one
/// simulated second at a time inside a `netsim` span, sampling flow
/// tables in between; splitting `run_for` leaves the event order unchanged.
pub fn run(built: &mut Built, spec: &SoakSpec, tracer: Option<&Tracer>) -> SoakRun {
    let sim = &mut built.sim;
    let mut flow_entries_max = 0;
    let t = Instant::now();
    match tracer {
        None => sim.run_for(spec.run_for),
        Some(tr) => {
            let end = sim.now() + spec.run_for;
            while sim.now() < end {
                let step = end.since(sim.now()).min(SAMPLE_EVERY);
                tr.span("netsim", || sim.run_for(step));
                flow_entries_max = flow_entries_max.max(max_flow_entries(sim, &built.topo));
            }
        }
    }
    let wall_s = seconds_since(t);
    flow_entries_max = flow_entries_max.max(max_flow_entries(sim, &built.topo));
    let metrics = sim.metrics_snapshot();
    // `build` installed an SdnController (wrapped or not); the decorator
    // forwards `as_any`, so the downcast reaches it either way.
    let ctrl: &SdnController = sim
        .controller_as()
        .expect("the soak installs an SdnController");
    SoakRun {
        wall_s,
        metrics,
        alerts: ctrl.alerts().len(),
        links: ctrl.topology().len(),
        flow_entries_max,
    }
}
