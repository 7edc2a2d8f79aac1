//! Summary statistics over traces and experiment samples.

use crate::Trace;
use serde::{Deserialize, Serialize};

/// Aggregate statistics of one or more traces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Mean utilization across all samples.
    pub mean: f64,
    /// Maximum sample observed.
    pub max: f64,
    /// Mean of per-trace peak-to-mean ratios (burstiness proxy).
    pub peak_to_mean: f64,
}

impl TraceStats {
    /// Statistics over a set of traces.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[must_use]
    pub fn of_many(traces: &[Trace]) -> Self {
        assert!(!traces.is_empty(), "need at least one trace");
        let total: f64 = traces.iter().map(Trace::mean).sum();
        let max = traces.iter().map(Trace::max).fold(0.0, f64::max);
        let p2m = traces
            .iter()
            .map(|t| t.max() / t.mean().max(1e-9))
            .sum::<f64>()
            / traces.len() as f64;
        Self {
            mean: total / traces.len() as f64,
            max,
            peak_to_mean: p2m,
        }
    }
}

/// Percentile summary used throughout the benches — matches the paper's
/// "median, 1st and 99th percentiles" error bars.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// 1st percentile.
    pub p1: f64,
    /// Median.
    pub median: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Compute the paper's `(p1, median, p99)` summary of `values`.
    ///
    /// Uses the nearest-rank method, so for small sample counts `p1`/`p99`
    /// coincide with min/max, exactly like the paper's 100-repeat bars.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "need at least one value");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            p1: percentile(&v, 0.01),
            median: percentile(&v, 0.50),
            p99: percentile(&v, 0.99),
        }
    }
}

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of an ascending-sorted
/// sample: the smallest value with at least a `q` share of the sample at
/// or below it. 0 when the sample is empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_traces() {
        let ts = vec![Trace::constant(0.25, 10), Trace::constant(0.75, 10)];
        let s = TraceStats::of_many(&ts);
        assert!((s.mean - 0.5).abs() < 1e-12);
        assert!((s.max - 0.75).abs() < 1e-12);
        assert!((s.peak_to_mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_of_uniform_sequence() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::of(&v);
        assert_eq!(p.p1, 1.0);
        assert_eq!(p.median, 50.0);
        assert_eq!(p.p99, 99.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 0.95), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 0.5), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentiles_of_single_value() {
        let p = Percentiles::of(&[7.0]);
        assert_eq!((p.p1, p.median, p.p99), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentiles_are_order_invariant() {
        let a = Percentiles::of(&[3.0, 1.0, 2.0]);
        let b = Percentiles::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        assert_eq!(a.median, 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_percentiles_rejected() {
        let _ = Percentiles::of(&[]);
    }
}
