//! Best fit and worst fit — classic bin-packing references used by the
//! workspace's ablation benches.
//!
//! Best fit follows \[10\]'s description quoted in the paper's
//! introduction: "allocates a VM to the best-fit PM that has the minimum
//! remaining resources after allocating the VM".

use crate::{mean_variance, post_placement_profile};
use prvm_model::{scan, Cluster, PlacementAlgorithm, PlacementDecision, PmId, VmSpec};
use std::cmp::Reverse;

/// Chooses the used PM with the *least* remaining normalised capacity after
/// placement (tightest fit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BestFit;

/// Chooses the used PM with the *most* remaining normalised capacity after
/// placement (loosest fit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorstFit;

impl BestFit {
    /// Create a best-fit placer.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl WorstFit {
    /// Create a worst-fit placer.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// Algorithm 2 rating each used PM by its mean utilization after hosting
/// `vm` on its first feasible assignment, ordered by `order`.
fn scan_by_mean<S: PartialOrd>(
    cluster: &Cluster,
    vm: &VmSpec,
    exclude: &dyn Fn(PmId) -> bool,
    order: fn(f64) -> S,
) -> Option<PlacementDecision> {
    let found = scan(cluster, vm, exclude, |host, _| {
        let assignment = host.first_feasible(vm)?;
        let (mean, _) = mean_variance(&post_placement_profile(host, vm, &assignment));
        Some((order(mean), assignment))
    });
    found.map(|(_, decision)| decision)
}

impl PlacementAlgorithm for BestFit {
    fn name(&self) -> &str {
        "BestFit"
    }

    fn choose(
        &mut self,
        cluster: &Cluster,
        vm: &VmSpec,
        exclude: &dyn Fn(PmId) -> bool,
    ) -> Option<PlacementDecision> {
        scan_by_mean(cluster, vm, exclude, |mean| mean)
    }
}

impl PlacementAlgorithm for WorstFit {
    fn name(&self) -> &str {
        "WorstFit"
    }

    fn choose(
        &mut self,
        cluster: &Cluster,
        vm: &VmSpec,
        exclude: &dyn Fn(PmId) -> bool,
    ) -> Option<PlacementDecision> {
        scan_by_mean(cluster, vm, exclude, Reverse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_model::{catalog, Cluster};

    fn two_used_pms() -> Cluster {
        let mut c = Cluster::homogeneous(catalog::pm_m3(), 3);
        // PM 0 lightly loaded, PM 1 heavily loaded.
        let small = catalog::vm_m3_medium();
        let big = catalog::vm_m3_2xlarge();
        let a = c.pm(PmId(0)).first_feasible(&small).unwrap();
        c.place(PmId(0), small, a).unwrap();
        let a = c.pm(PmId(1)).first_feasible(&big).unwrap();
        c.place(PmId(1), big, a).unwrap();
        c
    }

    #[test]
    fn best_fit_picks_the_fuller_pm() {
        let c = two_used_pms();
        let d = BestFit::new()
            .choose(&c, &catalog::vm_m3_medium(), &|_| false)
            .unwrap();
        assert_eq!(d.pm, PmId(1));
    }

    #[test]
    fn worst_fit_picks_the_emptier_pm() {
        let c = two_used_pms();
        let d = WorstFit::new()
            .choose(&c, &catalog::vm_m3_medium(), &|_| false)
            .unwrap();
        assert_eq!(d.pm, PmId(0));
    }

    #[test]
    fn both_open_unused_pm_when_nothing_fits() {
        let mut c = Cluster::homogeneous(catalog::pm_c3(), 2);
        let vm = catalog::vm_c3_large();
        for _ in 0..2 {
            let a = c.pm(PmId(0)).first_feasible(&vm).unwrap();
            c.place(PmId(0), vm.clone(), a).unwrap();
        }
        assert_eq!(
            BestFit::new().choose(&c, &vm, &|_| false).unwrap().pm,
            PmId(1)
        );
        assert_eq!(
            WorstFit::new().choose(&c, &vm, &|_| false).unwrap().pm,
            PmId(1)
        );
    }
}
