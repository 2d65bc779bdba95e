//! The measurement loops: repeat a workload until the time budget is
//! spent, check every repetition's output, and reduce the samples to the
//! named metrics.

use std::time::{Duration, Instant};

use tm_telemetry::MetricsSnapshot;

use crate::campaign::{self, CampaignRun, RUN_P50, RUN_SPANS};
use crate::layers;
use crate::soak::{self, SoakSpec};
use crate::trace::{Profile, Tracer};
use crate::{fingerprint, median, peak_rss_mb, quantile};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// fat-tree-4, 6,400 virtual hosts, TopoGuard+SPHINX.
    LoadSoak,
    /// core-edge 8×3992×0, TOPOGUARD+, 60 simulated seconds.
    Discovery4k,
    /// The fat-tree-4 fabric matrix, 200 runs per campaign.
    AttackCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LoadSoak,
        Workload::Discovery4k,
        Workload::AttackCampaign,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoadSoak => "load-soak",
            Workload::Discovery4k => "discovery-4k",
            Workload::AttackCampaign => "attack-campaign",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How better reads for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// `(name, unit, better)` of every end-to-end metric, reported with
/// tracing off.
pub const END_TO_END: [(&str, &str, Better); 6] = [
    ("wall_s", "s", Better::Lower),
    ("setup_s", "s", Better::Lower),
    ("run_ms_p50", "ms", Better::Lower),
    ("run_ms_p90", "ms", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
    ("ok_rate", "fraction", Better::Higher),
];

/// `(name, unit, better)` of every per-layer metric, reported by the
/// traced run. A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str, Better); 42] = [
    ("netsim.self_s", "s", Better::Lower),
    ("netsim.ns_per_event", "ns", Better::Lower),
    ("netsim.events", "count", Better::Lower),
    ("netsim.queue_highwater", "count", Better::Lower),
    ("netsim.event.deliver_to_switch", "count", Better::Lower),
    ("netsim.event.ctrl_to_controller", "count", Better::Lower),
    ("netsim.event.ctrl_to_switch", "count", Better::Lower),
    ("netsim.event.controller_timer", "count", Better::Lower),
    ("netsim.event.traffic_arrival", "count", Better::Lower),
    ("netsim.switch.table_miss", "count", Better::Lower),
    ("netsim.flow_entries_max", "count", Better::Lower),
    ("netsim.build_s", "s", Better::Lower),
    ("controller.packet_in_data.calls", "count", Better::Lower),
    ("controller.packet_in_data.self_s", "s", Better::Lower),
    (
        "controller.packet_ins_per_host",
        "count/host",
        Better::Lower,
    ),
    ("controller.packet_in_lldp.calls", "count", Better::Lower),
    ("controller.packet_in_lldp.self_s", "s", Better::Lower),
    ("controller.timer_discovery.calls", "count", Better::Lower),
    ("controller.timer_discovery.self_s", "s", Better::Lower),
    ("controller.echo.self_s", "s", Better::Lower),
    (
        "controller.packet_outs_per_round",
        "count/round",
        Better::Lower,
    ),
    ("controller.other.self_s", "s", Better::Lower),
    ("topoguard.topoguard.calls", "count", Better::Lower),
    ("topoguard.topoguard.self_s", "s", Better::Lower),
    ("topoguard.cmm.calls", "count", Better::Lower),
    ("topoguard.cmm.self_s", "s", Better::Lower),
    ("topoguard.lli.calls", "count", Better::Lower),
    ("topoguard.lli.self_s", "s", Better::Lower),
    ("topoguard.blocked_ratio", "fraction", Better::Lower),
    ("sphinx.calls", "count", Better::Lower),
    ("sphinx.self_s", "s", Better::Lower),
    ("tm-topo.generate_s", "s", Better::Lower),
    ("tm-core.plan_s", "s", Better::Lower),
    ("tm-core.run_ms_p50.naive-relay", "ms", Better::Lower),
    ("tm-core.run_ms_p50.oob-amnesia", "ms", Better::Lower),
    ("tm-core.run_ms_p50.in-band", "ms", Better::Lower),
    (
        "tm-core.run_ms_p50.port-probing-hijack",
        "ms",
        Better::Lower,
    ),
    ("tm-campaign.busy_s", "s", Better::Lower),
    ("tm-campaign.worker_util", "fraction", Better::Higher),
    ("tm-campaign.overhead_s", "s", Better::Lower),
    ("trace.overhead_frac", "fraction", Better::Lower),
    ("netsim.fingerprint", "hash", Better::Lower),
];

/// The netsim counters copied straight from the telemetry snapshot.
const NETSIM_COUNTERS: [(&str, &str); 7] = [
    ("netsim.events", "netsim.engine.events_processed"),
    (
        "netsim.event.deliver_to_switch",
        "netsim.event.deliver_to_switch",
    ),
    (
        "netsim.event.ctrl_to_controller",
        "netsim.event.ctrl_to_controller",
    ),
    ("netsim.event.ctrl_to_switch", "netsim.event.ctrl_to_switch"),
    (
        "netsim.event.controller_timer",
        "netsim.event.controller_timer",
    ),
    (
        "netsim.event.traffic_arrival",
        "netsim.event.traffic_arrival",
    ),
    ("netsim.switch.table_miss", "netsim.switch.table_miss"),
];

/// Minimum repetitions of the measured phase, whatever the budget.
const MIN_REPS: usize = 3;

/// Set-up is cheap next to a run, so each run also times set-ups that
/// are built and dropped: a slice of them before every repetition, so the
/// samples see the same machine as the repetitions, and at least
/// [`MIN_SETUPS`] in all.
const SETUP_SLICE: Duration = Duration::from_millis(25);
const MIN_SETUPS: usize = 9;

/// Calls `set_up`, which returns a sample and its duration in seconds,
/// until the slice is spent.
fn sample_setups<T>(samples: &mut Vec<T>, set_up: &mut impl FnMut() -> (T, f64)) {
    let mut spent = 0.0;
    while spent < SETUP_SLICE.as_secs_f64() {
        let (sample, secs) = set_up();
        samples.push(sample);
        spent += secs;
    }
}

/// One run of the benchmark: the verdict and the named metrics.
#[derive(Clone, Debug, Default)]
pub struct Measurement {
    /// Every check passed.
    pub correct: bool,
    /// Runs attempted (soak repetitions, or campaign runs).
    pub attempted: u64,
    /// Of those, runs that failed or gave a wrong output.
    pub failed: u64,
    /// `(name, value)`, in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable notes on failed checks.
    pub problems: Vec<String>,
}

impl Measurement {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.problems.push(what());
        }
        ok
    }

    fn finish(
        mut self,
        values: &dyn Fn(&str) -> f64,
        names: &[(&'static str, &str, Better)],
    ) -> Self {
        self.metrics = names.iter().map(|(n, _, _)| (*n, values(n))).collect();
        self.correct = self.failed == 0 && self.problems.is_empty();
        self
    }
}

/// Runs `workload` for about `budget`, traced or not.
pub fn measure(workload: Workload, seed: u64, budget: Duration, trace: bool) -> Measurement {
    match workload {
        Workload::LoadSoak => measure_soak(&SoakSpec::load_soak(seed), budget, trace),
        Workload::Discovery4k => measure_soak(&SoakSpec::discovery_4k(seed), budget, trace),
        Workload::AttackCampaign => measure_campaign(seed, budget, trace),
    }
}

fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counter(name).unwrap_or(0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Samples of one traced soak repetition.
struct TracedSample {
    profile: Profile,
    run_s: f64,
    blocks: u64,
    hooks: u64,
    flow_entries_max: usize,
}

fn measure_soak(spec: &SoakSpec, budget: Duration, trace: bool) -> Measurement {
    let mut out = Measurement::default();
    let mut set_up = || {
        let setup = soak::build(spec, None).setup;
        (setup, setup.total_s())
    };
    let mut setups = Vec::new();
    let deadline = Instant::now() + budget;
    let mut walls = Vec::new();
    let mut traced: Vec<TracedSample> = Vec::new();
    let mut print = None;
    let mut snapshot = None;
    // The high-water mark after the first repetition: later repetitions
    // reuse freed memory in a pattern that depends on how many ran.
    let mut rss = 0.0;

    let mut rep = 0;
    while rep < MIN_REPS * (1 + usize::from(trace)) || Instant::now() < deadline {
        // Traced runs alternate with untraced ones, so both see the same
        // machine state and the difference is the tracing overhead.
        let tracer = (trace && rep % 2 == 1).then(Tracer::new);
        sample_setups(&mut setups, &mut set_up);
        let mut built = soak::build(spec, tracer.as_ref());
        let run = soak::run(&mut built, spec, tracer.as_ref());
        rep += 1;
        let kind = if tracer.is_some() {
            "traced"
        } else {
            "untraced"
        };
        eprintln!("repetition {rep} ({kind}): {:.6} s", run.wall_s);
        out.attempted += 1;

        let this_print = fingerprint(run.metrics.render().as_bytes());
        let trunks = 2 * built.topo.links.len();
        let mut ok = out.check(run.alerts == 0, || {
            format!("{} alerts on benign load", run.alerts)
        });
        ok &= out.check(run.links == trunks, || {
            format!(
                "{} directed links discovered, fabric has {trunks}",
                run.links
            )
        });
        ok &= out.check(*print.get_or_insert(this_print) == this_print, || {
            "snapshot differs between repetitions of one seed".to_string()
        });
        match tracer {
            Some(tr) => {
                let mut profile = tr.profile();
                // Only the per-name totals are kept across repetitions.
                profile.durations = Vec::new();
                ok &= cross_check(&mut out, &profile, &run.metrics, &built);
                traced.push(TracedSample {
                    run_s: profile.get("netsim").total_ns as f64 / 1e9,
                    profile,
                    blocks: built.verdicts.blocks(),
                    hooks: built.verdicts.hooks(),
                    flow_entries_max: run.flow_entries_max,
                });
            }
            None => {
                walls.push(run.wall_s);
                if rep == 1 {
                    rss = peak_rss_mb();
                }
            }
        }
        if !ok {
            out.failed += 1;
        }
        snapshot = Some(run.metrics);
    }
    while setups.len() < MIN_SETUPS {
        setups.push(set_up().0);
    }
    let Some(m) = &snapshot else {
        unreachable!("the loop runs at least MIN_REPS times")
    };

    let setup_total: Vec<f64> = setups.iter().map(|s| s.total_s()).collect();
    let ok_rate = 1.0 - ratio(out.failed as f64, out.attempted as f64);
    if !trace {
        let values = |name: &str| match name {
            "wall_s" => median(&walls),
            "setup_s" => median(&setup_total),
            "run_ms_p50" => 1e3 * quantile(&walls, 0.5),
            "run_ms_p90" => 1e3 * quantile(&walls, 0.9),
            "peak_rss_mb" => rss,
            "ok_rate" => ok_rate,
            _ => 0.0,
        };
        return out.finish(&values, &END_TO_END);
    }

    let events = counter(m, "netsim.engine.events_processed") as f64;
    let med = |f: &dyn Fn(&TracedSample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let self_s = |name: &'static str| med(&|t: &TracedSample| t.profile.self_s(name));
    let calls = |name: &str| {
        traced
            .last()
            .map_or(0.0, |t| t.profile.get(name).calls as f64)
    };
    let rounds = counter(m, "controller.discovery.rounds") as f64;
    let hosts = counter(m, "controller.host.new") as f64;
    let values = |name: &str| -> f64 {
        if let Some((_, c)) = NETSIM_COUNTERS.iter().find(|(n, _)| *n == name) {
            return counter(m, c) as f64;
        }
        match name {
            "netsim.self_s" => self_s("netsim"),
            "netsim.ns_per_event" => 1e9 * ratio(self_s("netsim"), events),
            "netsim.queue_highwater" => {
                m.gauge("netsim.engine.queue_highwater").unwrap_or(0) as f64
            }
            "netsim.flow_entries_max" => {
                traced.iter().map(|t| t.flow_entries_max).max().unwrap_or(0) as f64
            }
            "netsim.build_s" => median(&setups.iter().map(|s| s.build_s).collect::<Vec<_>>()),
            "controller.packet_in_data.calls" => calls(layers::PACKET_IN_DATA),
            "controller.packet_in_data.self_s" => self_s(layers::PACKET_IN_DATA),
            "controller.packet_ins_per_host" => ratio(calls(layers::PACKET_IN_DATA), hosts),
            "controller.packet_in_lldp.calls" => calls(layers::PACKET_IN_LLDP),
            "controller.packet_in_lldp.self_s" => self_s(layers::PACKET_IN_LLDP),
            "controller.timer_discovery.calls" => calls(layers::TIMER_DISCOVERY),
            "controller.timer_discovery.self_s" => self_s(layers::TIMER_DISCOVERY),
            "controller.echo.self_s" => self_s(layers::ECHO),
            "controller.packet_outs_per_round" => {
                ratio(counter(m, "controller.lldp.emitted") as f64, rounds)
            }
            "controller.other.self_s" => self_s(layers::OTHER),
            "topoguard.topoguard.calls" => calls("topoguard.topoguard"),
            "topoguard.topoguard.self_s" => self_s("topoguard.topoguard"),
            "topoguard.cmm.calls" => calls("topoguard.cmm"),
            "topoguard.cmm.self_s" => self_s("topoguard.cmm"),
            "topoguard.lli.calls" => calls("topoguard.lli"),
            "topoguard.lli.self_s" => self_s("topoguard.lli"),
            "topoguard.blocked_ratio" => traced
                .last()
                .map_or(0.0, |t| ratio(t.blocks as f64, t.hooks as f64)),
            "sphinx.calls" => calls("sphinx"),
            "sphinx.self_s" => self_s("sphinx"),
            "tm-topo.generate_s" => {
                median(&setups.iter().map(|s| s.generate_s).collect::<Vec<_>>())
            }
            "tm-core.plan_s" => median(&setups.iter().map(|s| s.plan_s).collect::<Vec<_>>()),
            "trace.overhead_frac" => med(&|t: &TracedSample| t.run_s) / median(&walls) - 1.0,
            "netsim.fingerprint" => print.map_or(0.0, |f| f as f64),
            _ => 0.0,
        }
    };
    out.finish(&values, &PER_LAYER)
}

/// Checks that the decorators labelled what they wrapped correctly, and
/// that discovery sent one Packet-Out per port per round (the O(ports)
/// per-round cost of OpenFlow discovery).
pub fn cross_check(
    out: &mut Measurement,
    profile: &Profile,
    m: &MetricsSnapshot,
    built: &soak::Built,
) -> bool {
    let rounds = counter(m, "controller.discovery.rounds");
    let labelled = profile.get(layers::TIMER_DISCOVERY).calls;
    let mut ok = out.check(labelled == rounds, || {
        format!("{labelled} discovery-timer spans, but the controller counted {rounds} rounds")
    });
    let packet_ins =
        counter(m, "controller.packet_in.total") + counter(m, "controller.packet_in.unparseable");
    let spans =
        profile.get(layers::PACKET_IN_DATA).calls + profile.get(layers::PACKET_IN_LLDP).calls;
    ok &= out.check(spans == packet_ins, || {
        format!("{spans} Packet-In spans, but the controller counted {packet_ins}")
    });
    let ports = (2 * built.topo.links.len() + built.topo.hosts.len() + built.groups) as u64;
    let emitted = counter(m, "controller.lldp.emitted");
    ok &= out.check(emitted == rounds * ports, || {
        format!("{emitted} LLDP Packet-Outs in {rounds} rounds over {ports} ports")
    });
    ok
}

fn measure_campaign(seed: u64, budget: Duration, trace: bool) -> Measurement {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Measurement::default();
    // Set-up: the campaign's registry and spec, plus one set-up of every
    // grid cell.
    let mut set_up = || {
        let t = Instant::now();
        campaign::prepare(seed, workers).set_up_cells(seed);
        let secs = t.elapsed().as_secs_f64();
        (secs, secs)
    };
    let mut setups = Vec::new();
    let deadline = Instant::now() + budget;
    let mut runs: Vec<CampaignRun> = Vec::new();
    let mut rss = 0.0;
    while runs.len() < MIN_REPS || Instant::now() < deadline {
        sample_setups(&mut setups, &mut set_up);
        let run = campaign::execute(campaign::prepare(seed, workers));
        eprintln!("campaign {}: {:.6} s", runs.len() + 1, run.wall_s);
        out.attempted += run.attempted as u64;
        out.failed += (run.failed + run.wrong) as u64;
        let first = runs.first().map_or(run.fingerprint, |r| r.fingerprint);
        out.check(run.fingerprint == first, || {
            "campaign report differs between repetitions of one seed".to_string()
        });
        runs.push(run);
        if runs.len() == 1 {
            rss = peak_rss_mb();
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(set_up().0);
    }
    let run_ms = |names: &[&str]| -> Vec<f64> {
        runs.iter()
            .flat_map(|r| r.profile.durations.iter())
            .filter(|(n, _)| names.contains(n))
            .map(|(_, ns)| *ns as f64 / 1e6)
            .collect()
    };
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let ok_rate = 1.0 - ratio(out.failed as f64, out.attempted as f64);
    if !trace {
        let all = run_ms(&RUN_SPANS);
        let values = |name: &str| match name {
            "wall_s" => median(&walls),
            "setup_s" => median(&setups),
            "run_ms_p50" => quantile(&all, 0.5),
            "run_ms_p90" => quantile(&all, 0.9),
            "peak_rss_mb" => rss,
            "ok_rate" => ok_rate,
            _ => 0.0,
        };
        return out.finish(&values, &END_TO_END);
    }

    // The campaign runs the library's controllers, which the benchmark
    // cannot wrap; the simulator's own counters come from one pass over
    // the grid through the scenario API, at each cell's first seed.
    let mut highwater = 0i64;
    let mut sums = vec![0u64; NETSIM_COUNTERS.len()];
    for (point, run_seed) in &runs[0].first_runs {
        let (m, ok) = campaign::sample_cell(point, *run_seed);
        out.check(ok, || {
            format!(
                "wrong verdict in [{}] through the scenario API",
                point.label()
            )
        });
        highwater = highwater.max(m.gauge("netsim.engine.queue_highwater").unwrap_or(0));
        for (sum, (_, c)) in sums.iter_mut().zip(NETSIM_COUNTERS) {
            *sum += counter(&m, c);
        }
    }
    let busy: Vec<f64> = runs
        .iter()
        .map(|r| {
            r.profile
                .durations
                .iter()
                .map(|(_, ns)| *ns as f64)
                .sum::<f64>()
                / 1e9
        })
        .collect();
    let wall = median(&walls);
    let values = |name: &str| -> f64 {
        if let Some(i) = NETSIM_COUNTERS.iter().position(|(n, _)| *n == name) {
            return sums[i] as f64;
        }
        if let Some(i) = RUN_P50.iter().position(|n| *n == name) {
            return quantile(&run_ms(&[RUN_SPANS[i]]), 0.5);
        }
        match name {
            "netsim.queue_highwater" => highwater as f64,
            "tm-campaign.busy_s" => median(&busy),
            "tm-campaign.worker_util" => median(&busy) / (wall * workers as f64),
            "tm-campaign.overhead_s" => wall - median(&busy) / workers as f64,
            "netsim.fingerprint" => runs[0].fingerprint as f64,
            _ => 0.0,
        }
    };
    out.finish(&values, &PER_LAYER)
}
