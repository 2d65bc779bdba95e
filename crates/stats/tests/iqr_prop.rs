//! Property test for the IQR detector's cached threshold: after every
//! `inspect`, `threshold()` must equal `Q3 + k·IQR` recomputed from
//! scratch over the samples the detector admitted, bit for bit, NaN and
//! signed zeros included.

use std::collections::VecDeque;

use tm_prop::prelude::*;

use tm_stats::{quantile, IqrOutlierDetector, IqrVerdict};

/// Latencies on a 0.01 ms lattice, plus the values that stress float
/// ordering: NaN, both zeros and far outliers.
fn arb_sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u32..2_000).prop_map(|x| f64::from(x) / 100.0),
        (0u32..2_000).prop_map(|x| f64::from(x) / 100.0),
        Just(f64::NAN),
        Just(-0.0),
        Just(0.0),
        (1_000u32..100_000).prop_map(f64::from),
    ]
}

/// The from-scratch threshold over `window`.
fn recompute(window: &VecDeque<f64>, min_samples: usize, k: f64) -> Option<f64> {
    if window.len() < min_samples {
        return None;
    }
    let samples: Vec<f64> = window.iter().copied().collect();
    let q1 = quantile(&samples, 0.25)?;
    let q3 = quantile(&samples, 0.75)?;
    Some(q3 + k * (q3 - q1))
}

tm_prop! {
    #![tm_config(cases = 128)]

    #[test]
    fn cached_threshold_equals_a_from_scratch_recompute(
        capacity in 1usize..24,
        min_samples in 1usize..30,
        k_tenths in 0u32..40,
        samples in collection::vec(arb_sample(), 0..120),
    ) {
        let k = f64::from(k_tenths) / 10.0;
        let mut det = IqrOutlierDetector::new(capacity, min_samples, k);
        let min_samples = min_samples.min(capacity);
        let mut window = VecDeque::new();
        for sample in samples {
            let before = recompute(&window, min_samples, k);
            let verdict = det.inspect(sample);
            let admitted = match (verdict, before) {
                (IqrVerdict::Warmup, None) => true,
                (IqrVerdict::Normal, Some(t)) => {
                    prop_assert!(sample <= t || sample.is_nan() || t.is_nan());
                    true
                }
                (IqrVerdict::Outlier { threshold }, Some(t)) => {
                    prop_assert_eq!(threshold.to_bits(), t.to_bits());
                    prop_assert!(sample > t);
                    false
                }
                (verdict, before) => panic!("verdict {verdict:?} against threshold {before:?}"),
            };
            if admitted {
                if window.len() == capacity {
                    window.pop_front();
                }
                window.push_back(sample);
            }
            prop_assert_eq!(
                det.threshold().map(f64::to_bits),
                recompute(&window, min_samples, k).map(f64::to_bits)
            );
            prop_assert_eq!(det.len(), window.len());
        }
    }
}
