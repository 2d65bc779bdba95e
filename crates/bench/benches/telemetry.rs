//! Microbenchmarks for one telemetry publish on an enabled registry of
//! 30 names (about what a discovery soak registers), cycling through the
//! names so cache lines and index entries are all in play.

use bench::harness::{black_box, Bench};
use tm_telemetry::Telemetry;

const NAMES: [&str; 30] = [
    "controller.discovery.rounds",
    "controller.echo.pruned",
    "controller.echo.replies",
    "controller.echo.rtt_ns",
    "controller.echo.sent",
    "controller.lldp.emitted",
    "controller.lldp.received",
    "controller.packet_in.total",
    "controller.topology.links_new",
    "netsim.engine.events_processed",
    "netsim.engine.events_scheduled",
    "netsim.event.controller_timer",
    "netsim.event.ctrl_to_controller",
    "netsim.event.ctrl_to_switch",
    "netsim.event.deliver_to_host",
    "netsim.event.deliver_to_switch",
    "netsim.event.host_timer",
    "netsim.event.pulse_check",
    "netsim.event.switch_expiry_tick",
    "netsim.event.traffic_arrival",
    "netsim.host.tx_frames",
    "netsim.link.transit_ns",
    "netsim.switch.table_miss",
    "netsim.switch.tx_frames",
    "topoguard.cmm.probes_tracked",
    "topoguard.lli.link_latency_ns",
    "topoguard.lli.samples",
    "traffic.bytes_offered",
    "traffic.flows_offered",
    "traffic.packets_aggregated",
];

fn registered() -> Telemetry {
    let t = Telemetry::new();
    for name in NAMES {
        t.counter_inc(name);
        t.observe_ns(name, 1);
    }
    t
}

fn main() {
    let bench = Bench::new("telemetry");

    let t = registered();
    let mut i = 0;
    bench.bench("counter_inc", || {
        i = (i + 1) % NAMES.len();
        t.counter_inc(black_box(NAMES[i]));
    });

    let t = registered();
    let mut i = 0;
    bench.bench("observe_ns", || {
        i = (i + 1) % NAMES.len();
        t.observe_ns(black_box(NAMES[i]), black_box(1_500_000));
    });
}
