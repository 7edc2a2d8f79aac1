//! Workload construction: VM request mixes and the PM pool.

use crate::config::WorkloadConfig;
use prvm_model::{catalog, Cluster, VmSpec};
use prvm_traces::{Trace, TraceLibrary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How many distinct traces the library holds; VMs draw from it with
/// replacement, like the paper drawing random PlanetLab nodes.
const LIBRARY_SIZE: usize = 400;

/// DVBP-style churn: VM lifetimes drawn from a shifted exponential.
/// The paper's experiments keep every VM for the whole horizon; dynamic
/// bin-packing traces (and real clouds) do not, so
/// [`crate::Scenario::departures`] lets VMs depart mid-run. Off by
/// default — no run schedules departures unless handed a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepartureModel {
    /// Mean VM lifetime, seconds (exponential above the minimum).
    pub mean_lifetime_s: u64,
    /// Floor on every drawn lifetime, seconds. Keeps degenerate draws
    /// from departing a VM before its first scan.
    pub min_lifetime_s: u64,
}

impl Default for DepartureModel {
    fn default() -> Self {
        Self {
            mean_lifetime_s: 4 * 3600,
            min_lifetime_s: 600,
        }
    }
}

/// A concrete workload: one spec per requested VM.
#[derive(Debug, Clone)]
pub struct Workload {
    /// VM requests, uniformly drawn from Table I.
    pub specs: Vec<VmSpec>,
    /// Utilization trace library the VMs draw from.
    pub library: TraceLibrary,
    seed: u64,
}

impl Workload {
    /// Generate a workload deterministically from `seed`.
    #[must_use]
    pub fn generate(cfg: &WorkloadConfig, samples: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let types = catalog::ec2_vm_types();
        let specs = (0..cfg.n_vms)
            .map(|_| types[rng.gen_range(0..types.len())].clone())
            .collect();
        let library = TraceLibrary::generate(cfg.trace_kind, LIBRARY_SIZE, samples, seed ^ 0x9e37);
        Self {
            specs,
            library,
            seed,
        }
    }

    /// Assemble a workload from explicit parts (tests, crafted scenarios).
    #[must_use]
    pub fn from_parts(specs: Vec<VmSpec>, library: TraceLibrary, seed: u64) -> Self {
        Self {
            specs,
            library,
            seed,
        }
    }

    /// Draw one trace per VM (call after any batch reordering — trace
    /// assignment is random, so the association is exchangeable). The
    /// traces are borrowed from [`Workload::library`]; VMs that draw the
    /// same trace share it.
    #[must_use]
    pub fn draw_traces(&self, count: usize) -> Vec<&Trace> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x51ed);
        (0..count).map(|_| self.library.choose(&mut rng)).collect()
    }

    /// Draw one lifetime per VM from `model`, in seconds. Deterministic
    /// per workload seed (own seed domain, so enabling churn never
    /// perturbs spec or trace draws).
    #[must_use]
    pub fn draw_lifetimes(&self, count: usize, model: &DepartureModel) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x11fe);
        let min = model.min_lifetime_s;
        let spread = model.mean_lifetime_s.saturating_sub(min) as f64;
        (0..count)
            .map(|_| {
                // Inverse-CDF exponential; u < 1.0 keeps ln() finite.
                let u: f64 = rng.gen_range(0.0..1.0);
                let extra = -(1.0 - u).ln() * spread;
                min + extra as u64
            })
            .collect()
    }
}

/// Build the PM pool for a workload: M3 and C3 machines interleaved 2:1 so
/// first-fit style scans see both types.
#[must_use]
pub fn build_cluster(cfg: &WorkloadConfig) -> Cluster {
    let mut specs = Vec::with_capacity(cfg.m3_pms + cfg.c3_pms);
    let (mut m3, mut c3) = (cfg.m3_pms, cfg.c3_pms);
    while m3 > 0 || c3 > 0 {
        for _ in 0..2 {
            if m3 > 0 {
                specs.push(catalog::pm_m3());
                m3 -= 1;
            }
        }
        if c3 > 0 {
            specs.push(catalog::pm_c3());
            c3 -= 1;
        }
    }
    Cluster::from_specs(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_traces::TraceKind;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            n_vms: 50,
            trace_kind: TraceKind::PlanetLab,
            m3_pms: 20,
            c3_pms: 10,
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let a = Workload::generate(&cfg(), 288, 5);
        let b = Workload::generate(&cfg(), 288, 5);
        assert_eq!(a.specs, b.specs);
        assert_eq!(a.draw_traces(10), b.draw_traces(10));
        let c = Workload::generate(&cfg(), 288, 6);
        assert_ne!(a.specs, c.specs);
    }

    #[test]
    fn workload_uses_table_i_types_roughly_uniformly() {
        let w = Workload::generate(
            &WorkloadConfig {
                n_vms: 6000,
                ..cfg()
            },
            288,
            1,
        );
        let names: std::collections::HashSet<&str> =
            w.specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 6, "all six types appear");
        let medium = w.specs.iter().filter(|s| s.name == "m3.medium").count();
        assert!((800..1200).contains(&medium), "{medium}");
    }

    #[test]
    fn cluster_interleaves_pm_types() {
        let c = build_cluster(&cfg());
        assert_eq!(c.len(), 30);
        let names: Vec<&str> = c
            .pms()
            .iter()
            .take(6)
            .map(|p| p.spec().name.as_str())
            .collect();
        assert_eq!(names, ["M3", "M3", "C3", "M3", "M3", "C3"]);
        let c3s = c.pms().iter().filter(|p| p.spec().name == "C3").count();
        assert_eq!(c3s, 10);
    }

    #[test]
    fn trace_draws_match_request_count() {
        let w = Workload::generate(&cfg(), 288, 2);
        assert_eq!(w.draw_traces(50).len(), 50);
        assert!(w.draw_traces(50).iter().all(|t| t.len() == 288));
    }

    #[test]
    fn lifetimes_are_seeded_floored_and_independent_of_traces() {
        let w = Workload::generate(&cfg(), 288, 3);
        let model = DepartureModel::default();
        let a = w.draw_lifetimes(50, &model);
        let b = w.draw_lifetimes(50, &model);
        assert_eq!(a, b, "same seed, same lifetimes");
        assert_eq!(a.len(), 50);
        assert!(a.iter().all(|&l| l >= model.min_lifetime_s));
        // A different workload seed draws different lifetimes.
        let other = Workload::generate(&cfg(), 288, 4);
        assert_ne!(a, other.draw_lifetimes(50, &model));
        // Lifetimes come from their own seed domain: drawing them does
        // not perturb the trace draws.
        assert_eq!(
            w.draw_traces(10),
            Workload::generate(&cfg(), 288, 3).draw_traces(10)
        );
        // Mean of the sample should land near the configured mean
        // (loose bound: exponential with n=500).
        let many = w.draw_lifetimes(500, &model);
        let mean = many.iter().sum::<u64>() / 500;
        assert!(
            (model.mean_lifetime_s / 2..model.mean_lifetime_s * 2).contains(&mean),
            "sample mean {mean}"
        );
    }
}
