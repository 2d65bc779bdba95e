//! Differential property for `CtrlLatencyTracker`: the xid-ordered deque
//! and inline RTT rings must behave exactly like the straightforward
//! `BTreeMap` tracker they replaced, kept here as the oracle.

use std::collections::{BTreeMap, VecDeque};

use tm_prop::prelude::*;

use controller::latency::SAMPLES_AVERAGED;
use controller::CtrlLatencyTracker;
use sdn_types::{DatapathId, Duration, SimTime};

/// The original tracker: one map of outstanding echoes by xid, one
/// heap-allocated window per switch.
#[derive(Default)]
struct Oracle {
    rtts: BTreeMap<DatapathId, VecDeque<Duration>>,
    outstanding: BTreeMap<u64, (DatapathId, SimTime)>,
}

impl Oracle {
    fn echo_sent(&mut self, xid: u64, dpid: DatapathId, at: SimTime) {
        self.outstanding.insert(xid, (dpid, at));
    }

    fn echo_received(&mut self, xid: u64, now: SimTime) -> Option<Duration> {
        let (dpid, sent) = self.outstanding.remove(&xid)?;
        let rtt = now.since(sent);
        let window = self.rtts.entry(dpid).or_default();
        if window.len() == SAMPLES_AVERAGED {
            window.pop_front();
        }
        window.push_back(rtt);
        Some(rtt)
    }

    fn prune_stale(&mut self, now: SimTime, horizon: Duration) -> usize {
        let cutoff = SimTime::from_nanos(now.as_nanos().saturating_sub(horizon.as_nanos()));
        let before = self.outstanding.len();
        self.outstanding.retain(|_, (_, sent)| *sent >= cutoff);
        before - self.outstanding.len()
    }

    fn avg_rtt(&self, dpid: DatapathId) -> Option<Duration> {
        let window = self.rtts.get(&dpid)?;
        if window.is_empty() {
            return None;
        }
        let total: u64 = window.iter().map(|d| d.as_nanos()).sum();
        let len = window.len() as u64;
        Some(Duration::from_nanos((total + len / 2) / len))
    }

    fn measured_switches(&self) -> usize {
        self.rtts.values().filter(|w| !w.is_empty()).count()
    }
}

const SWITCHES: u64 = 6;

tm_prop! {
    #![tm_config(cases = 128)]

    /// Random interleavings of sends (mostly with the next xid, sometimes
    /// with an old or a re-used one), replies (mostly to the oldest
    /// outstanding echo, sometimes out of order, duplicated or unknown)
    /// and prunes at arbitrary horizons leave both trackers agreeing on
    /// every return value and every query.
    #[test]
    fn deque_tracker_matches_btreemap_oracle(
        steps in collection::vec((0u8..10, 0u64..40, 0u64..SWITCHES, 0u64..5_000), 1..200)
    ) {
        let mut tracker = CtrlLatencyTracker::new();
        let mut oracle = Oracle::default();
        let mut next_xid = 0u64;
        let mut now = SimTime::ZERO;
        for &(kind, x, sw, dt) in &steps {
            now = SimTime::from_nanos(now.as_nanos() + dt);
            match kind {
                // Send with the next xid, as the controller does.
                0..=3 => {
                    let dpid = DatapathId::new(sw + 1);
                    tracker.echo_sent(next_xid, dpid, now);
                    oracle.echo_sent(next_xid, dpid, now);
                    next_xid += 1;
                }
                // Send with an arbitrary (possibly old or outstanding) xid.
                4 => {
                    let dpid = DatapathId::new(sw + 1);
                    tracker.echo_sent(x, dpid, now);
                    oracle.echo_sent(x, dpid, now);
                    next_xid = next_xid.max(x + 1);
                }
                // Reply to the oldest outstanding echo, or to `x` behind it.
                5..=7 => {
                    let xid = oracle
                        .outstanding
                        .keys()
                        .nth((x % 3) as usize * usize::from(kind == 7))
                        .copied()
                        .unwrap_or(x);
                    prop_assert_eq!(tracker.echo_received(xid, now), oracle.echo_received(xid, now));
                }
                // Reply to an arbitrary xid: duplicate, unknown or out of order.
                8 => {
                    prop_assert_eq!(tracker.echo_received(x, now), oracle.echo_received(x, now));
                }
                _ => {
                    let horizon = Duration::from_nanos(x * 500);
                    prop_assert_eq!(tracker.prune_stale(now, horizon), oracle.prune_stale(now, horizon));
                }
            }
            prop_assert_eq!(tracker.outstanding_count(), oracle.outstanding.len());
            prop_assert_eq!(tracker.measured_switches(), oracle.measured_switches());
            for d in 0..=SWITCHES + 1 {
                let dpid = DatapathId::new(d);
                prop_assert_eq!(tracker.avg_rtt(dpid), oracle.avg_rtt(dpid));
                prop_assert_eq!(tracker.one_way(dpid), oracle.avg_rtt(dpid).map(|r| r.div(2)));
            }
        }
    }
}
