//! Baseline VM placement algorithms the paper compares against (§VI-A):
//!
//! * [`FirstFit`] — FF \[27\]: the first PM with sufficient resources.
//! * [`FfdSum`] — FFDSum \[30\]: order VMs by decreasing normalised demand
//!   sum, then first-fit.
//! * [`CompVm`] — CompVM \[10\]: consolidate complementary VMs by
//!   minimising the variance of post-placement utilization across
//!   dimensions.
//! * [`BestFit`] / [`WorstFit`] — classic bin-packing extras for ablations.
//! * [`MinimumMigrationTime`] / [`HighestDemandFirst`] — eviction policies
//!   for overloaded PMs (CloudSim's default MMT, and a throughput-oriented
//!   alternative).
//!
//! All placers honour the anti-collocation constraints through the same
//! assignment machinery PageRankVM uses (the paper: "All algorithms use the
//! strategy of PageRankVM to satisfy the anti-collocation constraints").

#![warn(missing_docs)]
#![warn(clippy::expect_used)]

pub mod bestfit;
pub mod compvm;
pub mod ff;
pub mod ffdsum;
pub mod migration;

pub use bestfit::{BestFit, WorstFit};
pub use compvm::CompVm;
pub use ff::FirstFit;
pub use ffdsum::FfdSum;
pub use migration::{HighestDemandFirst, MinimumMigrationTime};

use prvm_model::{Assignment, Pm, VmSpec};

/// Per-dimension utilization profile of `pm` after hypothetically applying
/// `assignment` for `vm` (cores, then memory if present, then disks) —
/// shared by the variance- and fit-based baselines.
#[must_use]
pub fn post_placement_profile(pm: &Pm, vm: &VmSpec, assignment: &Assignment) -> Vec<f64> {
    let spec = pm.spec();
    let core_cap = spec.core_mhz.get() as f64;
    let mut out: Vec<f64> = pm
        .core_used()
        .iter()
        .map(|u| u.get() as f64 / core_cap)
        .collect();
    for &c in &assignment.cores {
        out[c] += vm.vcpu_mhz.get() as f64 / core_cap;
    }
    if spec.memory.get() > 0 {
        out.push((pm.mem_used().get() + vm.memory.get()) as f64 / spec.memory.get() as f64);
    }
    let disk_base = out.len();
    out.extend(
        pm.disk_used()
            .iter()
            .zip(spec.disks())
            .map(|(u, c)| u.get() as f64 / c.get() as f64),
    );
    for (k, &d) in assignment.disks.iter().enumerate() {
        out[disk_base + d] += vm.disks()[k].get() as f64 / spec.disks()[d].get() as f64;
    }
    out
}

/// Mean and variance of a utilization profile.
#[must_use]
pub fn mean_variance(profile: &[f64]) -> (f64, f64) {
    let n = profile.len() as f64;
    let mean = profile.iter().sum::<f64>() / n;
    let var = profile.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n;
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_model::catalog;

    #[test]
    fn post_placement_profile_adds_demands_in_place() {
        let pm = Pm::new(catalog::pm_m3());
        let vm = catalog::vm_m3_large(); // 2 vCPUs, 7.5 GiB, 1 x 32 GB
        let a = pm.first_feasible(&vm).unwrap();
        let prof = post_placement_profile(&pm, &vm, &a);
        assert_eq!(prof.len(), 8 + 1 + 4);
        let cpu_frac = 600.0 / 2600.0;
        let loaded: Vec<f64> = prof[..8].iter().copied().filter(|&p| p > 0.0).collect();
        assert_eq!(loaded.len(), 2);
        assert!(loaded.iter().all(|&p| (p - cpu_frac).abs() < 1e-12));
        assert!((prof[8] - 7.5 / 64.0).abs() < 1e-12);
        let disks: f64 = prof[9..].iter().sum();
        assert!((disks - 32.0 / 250.0).abs() < 1e-12);
    }

    #[test]
    fn mean_variance_basics() {
        let (m, v) = mean_variance(&[0.5, 0.5, 0.5, 0.5]);
        assert_eq!((m, v), (0.5, 0.0));
        let (m, v) = mean_variance(&[1.0, 0.0]);
        assert!((m - 0.5).abs() < 1e-12);
        assert!((v - 0.25).abs() < 1e-12);
    }
}
