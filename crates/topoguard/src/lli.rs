//! TOPOGUARD+'s Link Latency Inspector (§VI-D).
//!
//! Out-of-band Port Amnesia relays LLDP over a side channel, which cannot
//! avoid adding propagation and encode/decode latency. The LLI measures
//! every LLDP traversal's switch-link latency as `T_LLDP − T_SW1 − T_SW2`
//! (encrypted departure timestamp minus the two control-link delays), keeps
//! verified latencies in a fixed-size store, and flags any new measurement
//! beyond `Q3 + 3·IQR` as a fabricated link.
//!
//! # Per-trunk baselines
//!
//! The store is keyed by the *undirected trunk* (the canonical orientation
//! of the directed link), not shared across the fabric. A single global
//! store mixes every trunk's latency population, and on large fabrics —
//! where link profiles legitimately differ across tiers — the pooled IQR
//! fence tightens around the majority population and flags honest trunks
//! whose baseline merely sits in the distribution's tail (the measured
//! false-positive flip on the 80-switch fat-tree). Both directions of a
//! trunk share one store: they traverse the same physical medium, and
//! pooling them halves warmup time.
//!
//! A trunk with *no verified history* — typically a link appearing after
//! the fabric has formed, exactly a fabricated link's signature — cannot
//! be judged against its own baseline (it would happily verify its own
//! relay latency). Its samples are instead judged against the fabric's
//! most permissive established fence (the maximum per-trunk threshold);
//! only a sample passing that reference seeds the trunk's own store. At
//! bootstrap no fence is established yet, so every honest trunk warms up
//! against itself, whatever its tier's latency.
//!
//! The reference fence is an indexed maximum, not a scan: the module keeps
//! every established per-trunk fence in an ordered multiset, updated
//! whenever a trunk's threshold moves, so judging a newborn trunk costs
//! O(log trunks) however large the fabric.

use std::any::Any;
use std::collections::BTreeMap;

use controller::DirectedLink;
use controller::{Alert, AlertKind, Command, DefenseModule, LinkLatencySample, ModuleCtx};
use sdn_types::SimTime;
use tm_stats::{IqrOutlierDetector, IqrVerdict};

/// LLI configuration.
#[derive(Clone, Copy, Debug)]
pub struct LliConfig {
    /// Capacity of the verified-latency store (paper: fixed size; we
    /// default to 100).
    pub store_capacity: usize,
    /// Measurements required before judging (warmup).
    pub min_samples: usize,
    /// The outlier fence multiplier `k` in `Q3 + k·IQR` (paper: 3).
    pub iqr_k: f64,
    /// Veto link updates whose latency is anomalous ("may optionally block
    /// the topology update").
    pub block_anomalous_updates: bool,
}

impl Default for LliConfig {
    fn default() -> Self {
        LliConfig {
            store_capacity: 100,
            min_samples: 10,
            iqr_k: 3.0,
            block_anomalous_updates: true,
        }
    }
}

/// One recorded latency inspection, for regenerating Figs. 10 and 11.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LliObservation {
    /// When the measurement completed.
    pub at: SimTime,
    /// The measured switch-link latency, milliseconds.
    pub latency_ms: f64,
    /// The detection threshold at that moment (`None` during warmup).
    pub threshold_ms: Option<f64>,
    /// Whether the measurement was flagged anomalous.
    pub flagged: bool,
    /// The link the measurement belongs to.
    pub link: DirectedLink,
}

/// The Link Latency Inspector.
pub struct Lli {
    config: LliConfig,
    /// One verified-latency store per undirected trunk (see module docs).
    detectors: BTreeMap<DirectedLink, IqrOutlierDetector>,
    /// Every established per-trunk threshold, as a multiset keyed by
    /// [`fence_key`] (value: how many trunks share that threshold).
    fences: BTreeMap<i64, usize>,
    /// Full measurement history (Figs. 10/11 series).
    pub observations: Vec<LliObservation>,
    /// Anomalies flagged (diagnostics).
    pub detections: u64,
}

/// The canonical orientation of a trunk: both directions of the same
/// physical link map to one store key.
fn trunk_key(link: DirectedLink) -> DirectedLink {
    link.min(link.reversed())
}

/// Maps a threshold to an integer whose order is `f64::total_cmp`'s:
/// −NaN < −∞ < … < −0 < +0 < … < +∞ < +NaN.
fn fence_key(threshold: f64) -> i64 {
    flip_magnitude_if_negative(threshold.to_bits() as i64)
}

/// The threshold [`fence_key`] encoded, bit for bit.
fn fence_value(key: i64) -> f64 {
    f64::from_bits(flip_magnitude_if_negative(key) as u64)
}

/// Inverts the 63 magnitude bits of a negative value (an involution), so
/// larger negative floats map to smaller integers.
fn flip_magnitude_if_negative(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

impl Lli {
    /// Creates the module.
    pub fn new(config: LliConfig) -> Self {
        Lli {
            config,
            detectors: BTreeMap::new(),
            fences: BTreeMap::new(),
            observations: Vec::new(),
            detections: 0,
        }
    }

    /// The detection threshold for a trunk, if that trunk is past warmup.
    /// Either direction of the link selects the same baseline.
    pub fn threshold_ms(&self, link: DirectedLink) -> Option<f64> {
        self.detectors
            .get(&trunk_key(link))
            .and_then(IqrOutlierDetector::threshold)
    }

    /// The number of trunks with a baseline store.
    pub fn trunks_tracked(&self) -> usize {
        self.detectors.len()
    }

    /// The fence a history-less trunk is judged against: the maximum
    /// established threshold (the most permissive honest baseline), with
    /// `f64::max`'s semantics — NaN fences lose to any number, and the
    /// answer is NaN only when every fence is. The trunk being judged has
    /// no fence of its own, so this is the maximum over the other trunks.
    /// `None` until some trunk is past warmup.
    fn reference_threshold_ms(&self) -> Option<f64> {
        // Thresholds are never −0 (Q3 plus a +0 or positive term), so the
        // total order's maximum is the numeric one.
        let numbers = fence_key(f64::NEG_INFINITY)..=fence_key(f64::INFINITY);
        let (&key, _) = self
            .fences
            .range(numbers)
            .next_back()
            .or_else(|| self.fences.iter().next_back())?;
        Some(fence_value(key))
    }

    /// Judges one switch-link latency measurement on `link`.
    fn inspect(&mut self, cx: &mut ModuleCtx<'_>, link: DirectedLink, latency_ms: f64) -> Command {
        let key = trunk_key(link);
        // No verified history for this trunk yet: judge against the
        // fabric reference fence (see module docs) before letting the
        // sample seed the trunk's own store.
        let newborn = self
            .detectors
            .get(&key)
            .is_none_or(IqrOutlierDetector::is_empty);
        let reference = if newborn {
            self.reference_threshold_ms()
        } else {
            None
        };
        let detector = self.detectors.entry(key).or_insert_with(|| {
            IqrOutlierDetector::new(
                self.config.store_capacity,
                self.config.min_samples,
                self.config.iqr_k,
            )
        });
        let (threshold_before, verdict) = match reference {
            Some(fence) if latency_ms > fence => {
                (Some(fence), IqrVerdict::Outlier { threshold: fence })
            }
            _ => {
                let before = detector.threshold();
                let verdict = detector.inspect(latency_ms);
                move_fence(&mut self.fences, before, detector.threshold());
                (before, verdict)
            }
        };
        let flagged = matches!(verdict, IqrVerdict::Outlier { .. });
        cx.telemetry.counter_inc("topoguard.lli.samples");
        // Milliseconds → nanoseconds for the shared latency bucket ladder.
        cx.telemetry
            .observe_ns("topoguard.lli.link_latency_ns", (latency_ms * 1e6) as u64);
        self.observations.push(LliObservation {
            at: cx.now,
            latency_ms,
            threshold_ms: threshold_before,
            flagged,
            link,
        });

        if let IqrVerdict::Outlier { threshold } = verdict {
            self.detections += 1;
            cx.telemetry.counter_inc("topoguard.lli.detections");
            cx.alerts.raise(Alert {
                at: cx.now,
                source: "topoguard+/lli",
                kind: AlertKind::AbnormalLinkLatency,
                detail: format!(
                    "detected suspicious link discovery: an abnormal delay during LLDP propagation; link delay is abnormal. delay:{:.0}ms, threshold:{:.0}ms ({} -> {})",
                    latency_ms, threshold, link.src, link.dst
                ),
            });
            if self.config.block_anomalous_updates {
                return Command::Block;
            }
        }
        Command::Continue
    }
}

/// Moves one trunk's fence in the multiset from `from` to `to` (either
/// may be `None`: warmup has no fence).
fn move_fence(fences: &mut BTreeMap<i64, usize>, from: Option<f64>, to: Option<f64>) {
    let (from, to) = (from.map(fence_key), to.map(fence_key));
    if from == to {
        return;
    }
    if let Some(key) = from {
        if let Some(count) = fences.get_mut(&key) {
            *count -= 1;
            if *count == 0 {
                fences.remove(&key);
            }
        }
    }
    if let Some(key) = to {
        *fences.entry(key).or_insert(0) += 1;
    }
}

impl DefenseModule for Lli {
    fn name(&self) -> &'static str {
        "topoguard+/lli"
    }

    fn on_link_update(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        link: DirectedLink,
        _is_new: bool,
        sample: Option<LinkLatencySample>,
    ) -> Command {
        // No timestamp evidence (LLI disabled controller-side, or control
        // latency not yet measured): nothing to judge.
        let Some(latency_ms) = sample.and_then(|s| s.link_latency_ms()) else {
            return Command::Continue;
        };
        self.inspect(cx, link, latency_ms)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use controller::test_support::ModuleHarness;
    use sdn_types::{DatapathId, PortNo, SwitchPort};
    use tm_prop::prelude::*;
    use tm_stats::quantile;

    use super::*;

    /// The LLI as first written, kept as the oracle: every trunk's
    /// threshold is recomputed from its window on demand, and the
    /// reference fence is a linear `f64::max` fold over every other trunk.
    struct OracleLli {
        config: LliConfig,
        windows: BTreeMap<DirectedLink, VecDeque<f64>>,
    }

    impl OracleLli {
        fn threshold(&self, key: DirectedLink) -> Option<f64> {
            let window = self.windows.get(&key)?;
            if window.len() < self.config.min_samples.min(self.config.store_capacity) {
                return None;
            }
            let samples: Vec<f64> = window.iter().copied().collect();
            let q1 = quantile(&samples, 0.25)?;
            let q3 = quantile(&samples, 0.75)?;
            Some(q3 + self.config.iqr_k * (q3 - q1))
        }

        fn reference_threshold_ms(&self, exclude: DirectedLink) -> Option<f64> {
            self.windows
                .keys()
                .filter(|&&key| key != exclude)
                .filter_map(|&key| self.threshold(key))
                .fold(None, |acc: Option<f64>, t| {
                    Some(acc.map_or(t, |a| a.max(t)))
                })
        }

        /// Returns the observation's threshold and whether it was flagged.
        fn inspect(&mut self, link: DirectedLink, latency_ms: f64) -> (Option<f64>, bool) {
            let key = trunk_key(link);
            let newborn = self.windows.get(&key).is_none_or(VecDeque::is_empty);
            let reference = if newborn {
                self.reference_threshold_ms(key)
            } else {
                None
            };
            if let Some(fence) = reference {
                if latency_ms > fence {
                    self.windows.entry(key).or_default();
                    return (Some(fence), true);
                }
            }
            let threshold = self.threshold(key);
            if matches!(threshold, Some(t) if latency_ms > t) {
                return (threshold, true);
            }
            let capacity = self.config.store_capacity;
            let window = self.windows.entry(key).or_default();
            if window.len() == capacity {
                window.pop_front();
            }
            window.push_back(latency_ms);
            (threshold, false)
        }
    }

    fn bits(x: Option<f64>) -> Option<u64> {
        x.map(f64::to_bits)
    }

    /// Trunk `i`: its honest baseline grows with `i`, so trunks are
    /// heterogeneous like a fabric's tiers.
    fn trunk(i: u8) -> DirectedLink {
        DirectedLink::new(
            SwitchPort::new(DatapathId::new(u64::from(i) + 1), PortNo::new(1)),
            SwitchPort::new(DatapathId::new(u64::from(i) + 100), PortNo::new(2)),
        )
    }

    /// A latency sample of kind `kind` on trunk `i`: mostly honest
    /// jitter, sometimes a relay-sized outlier, NaN or a signed zero.
    fn sample(i: u8, kind: u8, jitter: u16) -> f64 {
        let base = 1.0 + f64::from(i) * 0.7;
        match kind {
            0..=7 => base + f64::from(jitter) / 1000.0,
            8 => base + 15.0 + f64::from(jitter) / 100.0,
            9 => f64::NAN,
            10 => -0.0,
            _ => 0.0,
        }
    }

    tm_prop! {
        #![tm_config(cases = 128)]

        #[test]
        fn indexed_reference_fence_matches_the_linear_scan(
            capacity in 1usize..16,
            min_samples in 1usize..8,
            k_tenths in 0u32..40,
            block in any::<bool>(),
            ops in collection::vec((0u8..10, any::<bool>(), 0u8..12, 0u16..1000), 0..240),
        ) {
            let config = LliConfig {
                store_capacity: capacity,
                min_samples,
                iqr_k: f64::from(k_tenths) / 10.0,
                block_anomalous_updates: block,
            };
            let mut lli = Lli::new(config);
            let mut oracle = OracleLli { config, windows: BTreeMap::new() };
            let mut h = ModuleHarness::new();
            let half = ops.len() / 2;
            for (step, &(i, reversed, kind, jitter)) in ops.iter().enumerate() {
                // The first half bootstraps four trunks; the rest are
                // born after some fences are established.
                let i = if step < half { i % 4 } else { i };
                let link = if reversed { trunk(i).reversed() } else { trunk(i) };
                let latency_ms = sample(i, kind, jitter);
                let at = SimTime::from_millis(step as u64);

                let key = trunk_key(link);
                if oracle.windows.get(&key).is_none_or(VecDeque::is_empty) {
                    // A newborn trunk: the reference fence is consulted.
                    // Any NaN is the fold's NaN; numbers match bit for bit.
                    let nan_as_one = |x: Option<f64>| {
                        x.map(|t| if t.is_nan() { f64::NAN.to_bits() } else { t.to_bits() })
                    };
                    prop_assert_eq!(
                        nan_as_one(lli.reference_threshold_ms()),
                        nan_as_one(oracle.reference_threshold_ms(key))
                    );
                }
                let verdict = lli.inspect(&mut h.ctx(at), link, latency_ms);
                let (threshold_ms, flagged) = oracle.inspect(link, latency_ms);

                let expected = if flagged && block { Command::Block } else { Command::Continue };
                prop_assert_eq!(verdict, expected);
                let obs = *lli.observations.last().expect("one observation per sample");
                prop_assert_eq!(obs.at, at);
                prop_assert_eq!(obs.link, link);
                prop_assert_eq!(obs.latency_ms.to_bits(), latency_ms.to_bits());
                prop_assert_eq!(bits(obs.threshold_ms), bits(threshold_ms));
                prop_assert_eq!(obs.flagged, flagged);
                prop_assert_eq!(bits(lli.threshold_ms(link)), bits(oracle.threshold(key)));
            }
            prop_assert_eq!(lli.observations.len(), ops.len());
            prop_assert_eq!(
                lli.detections,
                lli.observations.iter().filter(|o| o.flagged).count() as u64
            );
        }
    }
}
