//! Engine event throughput at datacenter scale: wall-clock events/sec for
//! one simulated second of pure control-plane load (handshakes, LLDP
//! discovery, echo probes) on generated fabrics of 4, 100, and 1000
//! switches.
//!
//! Two record families go to `BENCH_JSON`:
//!
//! * `engine_throughput/<topo>` — the harness's standard wall-clock
//!   summary for one simulated second;
//! * `engine_throughput_eps/<topo>` — the derived events-per-wall-second
//!   figure from that summary's median (`events_processed` is
//!   deterministic per topology, so the division is exact given the
//!   measured wall time). Each record also carries `sched_entry_bytes`,
//!   the size of the heap entry the event queue sifts — one run of
//!   same-instant events, pinned at ≤24 bytes whatever the payloads.

use bench::harness::Bench;
use bench::json::JsonValue;

use controller::ControllerConfig;
use netsim::{LinkProfile, Simulator};
use sdn_types::Duration;
use tm_core::DefenseStack;
use tm_topo::TopoKind;

const SEED: u64 = 0xD5_2018;

/// 4, 100, and 1000 switches. The 100- and 1000-switch fabrics are
/// core–edge (fat-tree k=16 tops out at 320 switches); the 1000-switch
/// one carries no hosts — at that size the switch control plane alone is
/// the load under test.
fn sizes() -> Vec<TopoKind> {
    vec![
        TopoKind::Linear {
            switches: 4,
            hosts_per_switch: 1,
        },
        TopoKind::CoreEdge {
            core: 4,
            edge: 96,
            hosts_per_edge: 1,
        },
        TopoKind::CoreEdge {
            core: 8,
            edge: 992,
            hosts_per_edge: 0,
        },
    ]
}

fn build_sim(kind: TopoKind) -> Simulator {
    let topo = kind.generate(SEED, 0);
    let mut spec = topo.build_network(
        LinkProfile::fixed(Duration::from_micros(50)),
        LinkProfile::fixed(Duration::from_millis(1)),
    );
    spec.set_controller(Box::new(
        DefenseStack::None.build_controller(ControllerConfig::default()),
    ));
    spec.set_telemetry(tm_telemetry::Telemetry::new());
    Simulator::new(spec, SEED)
}

/// Events processed in one simulated second — deterministic per
/// `(topology, seed)`.
fn events_per_sim_second(kind: TopoKind) -> u64 {
    let mut sim = build_sim(kind);
    sim.run_for(Duration::from_secs(1));
    sim.metrics_snapshot()
        .counter("netsim.engine.events_processed")
        .unwrap_or(0)
}

fn main() {
    let group = Bench::new("engine_throughput").samples(5);
    for kind in sizes() {
        let label = kind.label();
        let events = events_per_sim_second(kind);
        let summary = group.bench_with_setup(
            &label,
            || build_sim(kind),
            |mut sim| {
                sim.run_for(Duration::from_secs(1));
                sim.now()
            },
        );
        let median_ns = summary.median_ns.max(1);
        let eps = events as f64 * 1e9 / median_ns as f64;
        println!(
            "engine_throughput_eps/{label}: {eps:.0} events/sec \
             ({events} events per simulated second, median {median_ns} ns)"
        );
        let record = JsonValue::object(vec![
            ("suite", "engine_throughput_eps".into()),
            ("bench", label.as_str().into()),
            ("switches", kind.switch_count().into()),
            ("events_per_sim_sec", events.into()),
            ("events_per_wall_sec", eps.into()),
            ("median_ns", median_ns.into()),
            // Bytes a heap sift actually moves per entry (one run of
            // same-instant events); pinned at ≤24 so a heap-entry
            // regression shows up in the perf trajectory, not just in the
            // unit test.
            ("sched_entry_bytes", netsim::sched_entry_bytes().into()),
        ]);
        println!("BENCH_JSON {}", record.to_compact());
    }
}
