//! Synthetic workload traces.
//!
//! The paper drives VM resource consumption with two real trace archives:
//! the **PlanetLab** CPU-utilization traces bundled with CloudSim (one
//! sample every 5 minutes for 24 hours per node) and the 2011 **Google
//! cluster usage trace**. Neither archive ships with this reproduction, so
//! this crate generates seeded synthetic equivalents that match the
//! archives' published shape (see DESIGN.md §4):
//!
//! * [`TraceKind::PlanetLab`] — low mean utilization (≈ 10–25 %), strong
//!   diurnal component, AR(1)-correlated noise, occasional bursts;
//! * [`TraceKind::GoogleCluster`] — lower baseline, heavier tail, spikier
//!   (log-normal bursts over a weak daily pattern).
//!
//! All generation is deterministic under a seed.
//!
//! ```
//! use prvm_traces::{TraceKind, TraceLibrary};
//!
//! let lib = TraceLibrary::generate(TraceKind::PlanetLab, 100, 288, 42);
//! let trace = lib.trace(7);
//! assert_eq!(trace.len(), 288);
//! assert!(trace.mean() > 0.02 && trace.mean() < 0.6);
//! ```

#![warn(missing_docs)]
#![warn(clippy::expect_used)]

pub mod gen;
pub mod stats;

pub use gen::{generate, TraceKind};
pub use stats::TraceStats;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A CPU-utilization time series for one VM: a fraction of the VM's
/// requested capacity per sampling interval, each in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    samples: Vec<f64>,
}

impl Trace {
    /// Wrap raw samples, clamping each into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains a non-finite value.
    #[must_use]
    pub fn new(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "a trace needs at least one sample");
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "trace samples must be finite"
        );
        Self {
            samples: samples.into_iter().map(|s| s.clamp(0.0, 1.0)).collect(),
        }
    }

    /// A constant-utilization trace (useful in tests and calibration).
    #[must_use]
    pub fn constant(value: f64, len: usize) -> Self {
        Self::new(vec![value; len])
    }

    /// Utilization at sample `idx`, wrapping past the end (experiments
    /// longer than the trace loop it, like CloudSim does).
    #[must_use]
    pub fn at(&self, idx: usize) -> f64 {
        self.samples[idx % self.samples.len()]
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the trace has no samples (cannot be constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mean utilization.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Maximum utilization.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Scale every sample by `factor`, re-clamping into `[0, 1]`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self::new(self.samples.iter().map(|s| s * factor).collect())
    }
}

/// A pool of traces VMs draw from — the role the PlanetLab node archive
/// plays in the paper ("We randomly chose traces of the VMs in our
/// experiments").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLibrary {
    kind: TraceKind,
    traces: Vec<Trace>,
}

impl TraceLibrary {
    /// Generate `count` traces of `samples` samples each.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn generate(kind: TraceKind, count: usize, samples: usize, seed: u64) -> Self {
        assert!(count > 0, "library needs at least one trace");
        let mut rng = StdRng::seed_from_u64(seed);
        let traces = (0..count)
            .map(|_| generate(kind, samples, &mut rng))
            .collect();
        Self { kind, traces }
    }

    /// Wrap explicit traces (tests, replaying recorded workloads).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[must_use]
    pub fn from_traces(kind: TraceKind, traces: Vec<Trace>) -> Self {
        assert!(!traces.is_empty(), "library needs at least one trace");
        Self { kind, traces }
    }

    /// The workload family this library models.
    #[must_use]
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// Trace by index (wrapping).
    #[must_use]
    pub fn trace(&self, idx: usize) -> &Trace {
        &self.traces[idx % self.traces.len()]
    }

    /// Draw a uniformly random trace.
    #[must_use]
    pub fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> &Trace {
        &self.traces[rng.gen_range(0..self.traces.len())]
    }

    /// Number of traces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// `true` if the library is empty (cannot be constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Aggregate statistics across the whole library.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        TraceStats::of_many(&self.traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_clamps_and_wraps() {
        let t = Trace::new(vec![-0.5, 0.5, 1.5]);
        assert_eq!(t.samples(), &[0.0, 0.5, 1.0]);
        assert_eq!(t.at(4), 0.5);
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_rejected() {
        let _ = Trace::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Trace::new(vec![f64::NAN]);
    }

    #[test]
    fn scaled_reclamps() {
        let t = Trace::new(vec![0.4, 0.8]).scaled(2.0);
        assert_eq!(t.samples(), &[0.8, 1.0]);
    }

    #[test]
    fn library_is_deterministic_per_seed() {
        let a = TraceLibrary::generate(TraceKind::PlanetLab, 10, 288, 1);
        let b = TraceLibrary::generate(TraceKind::PlanetLab, 10, 288, 1);
        let c = TraceLibrary::generate(TraceKind::PlanetLab, 10, 288, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn library_lookup_wraps() {
        let lib = TraceLibrary::generate(TraceKind::GoogleCluster, 3, 10, 9);
        assert_eq!(lib.trace(0), lib.trace(3));
        assert_eq!(lib.len(), 3);
    }

    #[test]
    fn choose_draws_member() {
        let lib = TraceLibrary::generate(TraceKind::PlanetLab, 5, 16, 3);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let t = lib.choose(&mut rng);
            assert!((0..lib.len()).any(|i| lib.trace(i) == t));
        }
    }
}
