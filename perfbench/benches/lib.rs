//! The TopoMirage benchmark: workloads, outside-in decorators, and the
//! span tracer that attributes a run's wall time to the program's layers.
//!
//! `benches/topomirage.rs` is the command-line entry point; see
//! `README.md` in this package for the workloads and metrics.

pub mod campaign;
pub mod layers;
pub mod soak;
pub mod trace;
pub mod workloads;

/// FNV-1a over `bytes`, cut to 53 bits so the value survives a trip
/// through a JSON number (an IEEE double) exactly.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h & ((1 << 53) - 1)
}

/// The `q`-quantile of `values` with linear interpolation between the
/// closest ranks; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fingerprints_fit_a_double_exactly() {
        let f = fingerprint(b"counter netsim.engine.events_processed 1");
        assert!(f < 1 << 53);
        assert_eq!(f as f64 as u64, f);
        assert_ne!(f, fingerprint(b"counter netsim.engine.events_processed 2"));
    }
}
