//! Model-based property for the registry: random publish sequences must
//! leave the same snapshot, byte for byte, as a plain name-keyed
//! `BTreeMap` model.
//!
//! The name pool is larger than the address cache, so cache lines are
//! contended and overwritten, and some texts exist at two addresses, so a
//! cache miss must resolve a second copy of a name to the first copy's
//! slot.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use tm_prop::prelude::*;
use tm_telemetry::{HistogramSnapshot, MetricsSnapshot, Telemetry, DEFAULT_BUCKET_BOUNDS_NS};

/// Distinct metric texts, more than the cache has lines.
const TEXTS: usize = 160;
/// How many of those texts also exist at a second address.
const ALIASED: usize = 48;

/// `TEXTS` leaked names sharing long prefixes (as real metric names do),
/// then second copies of the first `ALIASED` texts at fresh addresses,
/// then two literals with a leaked twin each.
fn pool() -> &'static [&'static str] {
    static POOL: OnceLock<Vec<&'static str>> = OnceLock::new();
    POOL.get_or_init(|| {
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        let mut names: Vec<&'static str> = (0..TEXTS)
            .map(|i| leak(format!("netsim.event.kind_{:03}", i * 7 % TEXTS)))
            .collect();
        let twins: Vec<&'static str> = names[..ALIASED]
            .iter()
            .map(|n| leak(n.to_string()))
            .collect();
        names.extend(twins);
        names.extend([
            "controller.echo.sent",
            leak("controller.echo.sent".to_string()),
            "netsim.event",
            leak("netsim.event".to_string()),
        ]);
        names
    })
}

#[derive(Clone, Copy, Debug)]
enum Op {
    CounterInc,
    CounterAdd(u64),
    CounterSet(u64),
    GaugeSet(i64),
    GaugeMax(i64),
    ObserveNs(u64),
    WallSpan,
}

/// Decodes a generated `(kind, value)` pair. Small values dominate so that
/// first publishes with `n = 0` are common; `ObserveNs` spans every
/// magnitude, saturating sums included.
fn op(kind: u8, value: u64) -> Op {
    let small = value % 4;
    let signed = (value % 2001) as i64 - 1000;
    match kind {
        0 => Op::CounterInc,
        1 => Op::CounterAdd(small),
        2 => Op::CounterSet(small),
        3 => Op::GaugeSet(signed),
        4 => Op::GaugeMax(signed),
        5 => Op::ObserveNs(value >> (value % 64)),
        _ => Op::WallSpan,
    }
}

#[derive(Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
    wall: BTreeMap<String, u64>,
}

impl Model {
    fn apply(&mut self, name: &str, op: Op) {
        let name = name.to_string();
        match op {
            Op::CounterInc => *self.counters.entry(name).or_insert(0) += 1,
            Op::CounterAdd(n) => *self.counters.entry(name).or_insert(0) += n,
            Op::CounterSet(v) => {
                self.counters.insert(name, v);
            }
            Op::GaugeSet(v) => {
                self.gauges.insert(name, v);
            }
            Op::GaugeMax(v) => {
                let g = self.gauges.entry(name).or_insert(i64::MIN);
                *g = (*g).max(v);
            }
            Op::ObserveNs(ns) => {
                let h = self
                    .histograms
                    .entry(name)
                    .or_insert_with(|| HistogramSnapshot {
                        bounds: DEFAULT_BUCKET_BOUNDS_NS.to_vec(),
                        counts: vec![0; DEFAULT_BUCKET_BOUNDS_NS.len() + 1],
                        count: 0,
                        sum: 0,
                        min: u64::MAX,
                        max: 0,
                    });
                let bucket = DEFAULT_BUCKET_BOUNDS_NS
                    .iter()
                    .position(|&b| ns <= b)
                    .unwrap_or(DEFAULT_BUCKET_BOUNDS_NS.len());
                h.counts[bucket] += 1;
                h.count += 1;
                h.sum = h.sum.saturating_add(ns);
                h.min = h.min.min(ns);
                h.max = h.max.max(ns);
            }
            Op::WallSpan => *self.wall.entry(name).or_insert(0) += 1,
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone().into_iter().collect(),
            gauges: self.gauges.clone().into_iter().collect(),
            histograms: self.histograms.clone().into_iter().collect(),
        }
    }
}

fn publish(t: &Telemetry, name: &'static str, op: Op) {
    match op {
        Op::CounterInc => t.counter_inc(name),
        Op::CounterAdd(n) => t.counter_add(name, n),
        Op::CounterSet(v) => t.counter_set(name, v),
        Op::GaugeSet(v) => t.gauge_set(name, v),
        Op::GaugeMax(v) => t.gauge_max(name, v),
        Op::ObserveNs(ns) => t.observe_ns(name, ns),
        Op::WallSpan => drop(t.wall_span(name)),
    }
}

tm_prop! {
    #![tm_config(cases = 48)]

    /// After every step, the registry renders exactly what the model
    /// renders, and its wall report lists the model's names with the
    /// model's span counts.
    #[test]
    fn registry_matches_a_btreemap_model(
        steps in collection::vec((0u8..7, 0usize..256, any::<u64>()), 1..400)
    ) {
        let names = pool();
        let t = Telemetry::new();
        let mut model = Model::default();
        for &(kind, pick, value) in &steps {
            let name = names[pick % names.len()];
            let op = op(kind, value);
            publish(&t, name, op);
            model.apply(name, op);

            let snapshot = t.snapshot();
            prop_assert_eq!(snapshot.render(), model.snapshot().render());
            prop_assert_eq!(snapshot, model.snapshot());
            let wall: Vec<(String, u64)> = t
                .wall_report()
                .into_iter()
                .map(|(name, stats)| {
                    assert!(stats.max_ns <= stats.total_ns);
                    (name, stats.count)
                })
                .collect();
            let expected: Vec<(String, u64)> = model.wall.clone().into_iter().collect();
            prop_assert_eq!(wall, expected);
        }
    }
}
