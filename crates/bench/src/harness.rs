//! The in-house timing harness (the workspace's replacement for
//! `criterion`).
//!
//! Each `[[bench]]` target is a plain `main()` binary (`harness = false`)
//! that drives a [`Bench`]. The measurement protocol is deliberately
//! simple and fully described here so numbers are interpretable:
//!
//! 1. **Warm up** the closure for ~20 ms so caches, branch predictors and
//!    lazy allocations settle before anything is recorded.
//! 2. **Calibrate** an iteration count so each timed sample spans at
//!    least ~2 ms, amortising clock-read overhead for nanosecond-scale
//!    bodies. This holds for bodies that consume a fresh setup product
//!    too: the products are built untimed, ahead of the timed loop.
//! 3. Record N samples (default 25) and report the **median**
//!    per-iteration time — robust against scheduler noise in a way a
//!    mean is not — alongside min/max for spread.
//!
//! Every result is printed twice: a human-readable line and a
//! machine-readable JSON line (prefixed `BENCH_JSON`) for scripted
//! collection. `TM_BENCH_SAMPLES` overrides the sample count for quick
//! smoke runs (`TM_BENCH_SAMPLES=3`).

use std::hint::black_box as std_black_box;
// tm-lint: allow-file(wall-clock) -- measuring wall time is this harness's entire purpose; results feed BENCH_JSON, never sim state
use std::time::{Duration, Instant};

use crate::json::JsonValue;

/// Re-exported optimisation barrier; benches wrap inputs and results so
/// the closure body is not optimised away.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

const WARMUP: Duration = Duration::from_millis(20);
const MIN_SAMPLE_TIME: Duration = Duration::from_millis(2);
const DEFAULT_SAMPLES: u32 = 25;
/// The most setup products alive at once in [`Bench::bench_with_setup`]:
/// bounds its memory when a cheap body needs many iterations per sample.
const SETUP_BATCH: u64 = 256;

/// A benchmark suite: groups related measurements under one name and
/// carries the sampling configuration.
pub struct Bench {
    suite: String,
    samples: u32,
}

/// The summary statistics of one measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Median per-iteration time in nanoseconds.
    pub median_ns: u64,
    /// Fastest sample's per-iteration time.
    pub min_ns: u64,
    /// Slowest sample's per-iteration time.
    pub max_ns: u64,
    /// Number of samples recorded.
    pub samples: u32,
    /// Iterations batched into each sample.
    pub iters_per_sample: u64,
}

impl Bench {
    /// Creates a suite. `TM_BENCH_SAMPLES` overrides the default sample
    /// count (25) process-wide.
    pub fn new(suite: &str) -> Self {
        let samples = std::env::var("TM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_SAMPLES)
            .max(1);
        Bench {
            suite: suite.to_string(),
            samples,
        }
    }

    /// Overrides the sample count for this suite (expensive end-to-end
    /// benches use fewer samples).
    pub fn samples(mut self, n: u32) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Measures `f` called back-to-back (the criterion `iter` shape).
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Summary {
        // Warmup, also producing a per-iteration estimate for calibration.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < WARMUP {
            black_box(f());
            warm_iters += 1;
        }
        let iters = calibrated_iters(warm_start.elapsed(), warm_iters);

        let mut per_iter_ns = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter_ns.push((start.elapsed().as_nanos() as u64) / iters);
        }
        self.report(name, summarize(per_iter_ns, iters))
    }

    /// Measures `f` with a fresh, untimed `setup()` product per iteration
    /// (the criterion `iter_batched` shape). Iterations are calibrated like
    /// [`Self::bench`]'s, so each sample times at least ~2 ms of `f`; the
    /// products are built ahead of the timed loop, at most 256 at a time.
    pub fn bench_with_setup<S, T>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> T,
    ) -> Summary {
        // Warmup: at least two runs, then until ~20 ms have passed, timing
        // only `f` for the per-iteration estimate.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        let mut warm_busy = Duration::ZERO;
        while warm_iters < 2 || warm_start.elapsed() < WARMUP {
            let input = setup();
            let start = Instant::now();
            black_box(f(input));
            warm_busy += start.elapsed();
            warm_iters += 1;
        }
        let iters = calibrated_iters(warm_busy, warm_iters);

        let mut per_iter_ns = Vec::with_capacity(self.samples as usize);
        let mut inputs = Vec::with_capacity(iters.min(SETUP_BATCH) as usize);
        for _ in 0..self.samples {
            let mut busy = Duration::ZERO;
            let mut left = iters;
            while left > 0 {
                let batch = left.min(SETUP_BATCH);
                inputs.extend((0..batch).map(|_| setup()));
                let start = Instant::now();
                for input in inputs.drain(..) {
                    black_box(f(input));
                }
                busy += start.elapsed();
                left -= batch;
            }
            per_iter_ns.push(busy.as_nanos() as u64 / iters);
        }
        self.report(name, summarize(per_iter_ns, iters))
    }

    fn report(&self, name: &str, summary: Summary) -> Summary {
        println!(
            "{suite}/{name}: median {med} (min {min}, max {max}; {n} samples x {iters} iters)",
            suite = self.suite,
            med = format_ns(summary.median_ns),
            min = format_ns(summary.min_ns),
            max = format_ns(summary.max_ns),
            n = summary.samples,
            iters = summary.iters_per_sample,
        );
        let record = JsonValue::object(vec![
            ("suite", self.suite.as_str().into()),
            ("bench", name.into()),
            ("median_ns", summary.median_ns.into()),
            ("min_ns", summary.min_ns.into()),
            ("max_ns", summary.max_ns.into()),
            ("samples", u64::from(summary.samples).into()),
            ("iters_per_sample", summary.iters_per_sample.into()),
        ]);
        println!("BENCH_JSON {}", record.to_compact());
        summary
    }
}

/// The iterations per sample that make it span at least
/// [`MIN_SAMPLE_TIME`], given `busy` time over `runs` warmup runs.
fn calibrated_iters(busy: Duration, runs: u64) -> u64 {
    let est_ns = (busy.as_nanos() as u64 / runs.max(1)).max(1);
    (MIN_SAMPLE_TIME.as_nanos() as u64 / est_ns).clamp(1, 10_000_000)
}

/// Reduces raw per-iteration samples to the reported summary.
fn summarize(mut per_iter_ns: Vec<u64>, iters_per_sample: u64) -> Summary {
    assert!(!per_iter_ns.is_empty());
    per_iter_ns.sort_unstable();
    Summary {
        median_ns: per_iter_ns[per_iter_ns.len() / 2],
        min_ns: per_iter_ns[0],
        max_ns: *per_iter_ns.last().unwrap(),
        samples: per_iter_ns.len() as u32,
        iters_per_sample,
    }
}

/// Scales nanoseconds to the most readable unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_picks_median_and_extremes() {
        let s = summarize(vec![30, 10, 20, 50, 40], 7);
        assert_eq!(s.median_ns, 30);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 50);
        assert_eq!(s.samples, 5);
        assert_eq!(s.iters_per_sample, 7);
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(42), "42ns");
        assert_eq!(format_ns(42_000), "42.000us");
        assert_eq!(format_ns(42_000_000), "42.000ms");
        assert_eq!(format_ns(42_000_000_000), "42.000s");
    }

    #[test]
    fn bench_measures_a_real_closure() {
        let bench = Bench::new("harness_test").samples(3);
        let mut acc = 0u64;
        let s = bench.bench("accumulate", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert!(s.median_ns > 0 || s.iters_per_sample > 1);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }

    #[test]
    fn bench_with_setup_batches_sub_microsecond_bodies() {
        // A body far below the clock-read cost must not be timed one call
        // per sample.
        let bench = Bench::new("harness_test").samples(3);
        let mut setups = 0u64;
        let s = bench.bench_with_setup(
            "sum_vec",
            || {
                setups += 1;
                vec![1u64; 8]
            },
            |v| v.iter().sum::<u64>(),
        );
        assert!(s.iters_per_sample > 1, "{s:?}");
        assert_eq!(s.samples, 3);
        // One fresh product per timed call: warmup plus every sample.
        assert!(setups >= 2 + 3 * s.iters_per_sample);
    }
}
