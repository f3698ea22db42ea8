//! Exact statistics over raw samples, and the process's peak memory.
//!
//! Every percentile here is the nearest-rank value of the sorted raw
//! samples: the smallest sample with at least `p` percent of all samples
//! at or below it. No histogram buckets are involved, so a reported value
//! is always one that was measured.

use std::time::Duration;

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`.
///
/// # Panics
///
/// Panics on an empty sample set: every caller measures at least once.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Prints `label pXX = value unit (n = N)` and returns the value.
pub fn show(label: &str, samples: &[f64], p: f64, unit: &str) -> f64 {
    let value = percentile(samples, p);
    println!("  {label} p{p} = {value:.4} {unit} (n = {})", samples.len());
    value
}

/// Milliseconds in `d`, with all their digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set so far (`VmHWM`), in MiB; 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A splitmix64 step: derives well-spread per-item seeds from the
/// workload seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 75.0), 8.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[3.0], 1.0), 3.0);
    }
}
