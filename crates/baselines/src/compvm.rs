//! CompVM — consolidation of complementary VMs (Chen & Shen,
//! INFOCOM 2014 \[10\]).
//!
//! CompVM coordinates multi-dimensional requirements by packing VMs whose
//! demands are complementary: among used PMs it picks the placement that
//! minimises the **variance** of post-placement utilization across
//! dimensions (breaking ties toward higher total utilization). This is
//! exactly the "variance-based approach" the paper's motivation section
//! argues PageRankVM improves upon, so it doubles as the ablation of that
//! claim.

use crate::{mean_variance, post_placement_profile};
use prvm_model::{scan, Cluster, PlacementAlgorithm, PlacementDecision, PmId, VmSpec};
use std::cmp::Reverse;

/// Variance-minimising consolidation placer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompVm;

impl CompVm {
    /// Create a CompVM placer.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl PlacementAlgorithm for CompVm {
    fn name(&self) -> &str {
        "CompVM"
    }

    fn choose(
        &mut self,
        cluster: &Cluster,
        vm: &VmSpec,
        exclude: &dyn Fn(PmId) -> bool,
    ) -> Option<PlacementDecision> {
        // Each used PM's best distinct assignment: lowest variance, then
        // highest mean utilization, earliest among equals.
        let found = scan(cluster, vm, exclude, |host, _| {
            host.distinct_feasible(vm)
                .into_iter()
                .map(|assignment| {
                    let (mean, var) = mean_variance(&post_placement_profile(host, vm, &assignment));
                    ((Reverse(var), mean), assignment)
                })
                .reduce(|best, next| if next.0 > best.0 { next } else { best })
        });
        found.map(|(_, decision)| decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_model::{catalog, place_batch, Cluster, Pm};

    #[test]
    fn consolidates_onto_used_pms() {
        let mut algo = CompVm::new();
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 4);
        let vms = vec![catalog::vm_m3_medium(); 6];
        place_batch(&mut algo, &mut cluster, vms).unwrap();
        assert_eq!(cluster.active_pm_count(), 1);
    }

    #[test]
    fn prefers_variance_minimising_assignment() {
        // Put one m3.large on a PM, then place another: CompVM should
        // spread the vCPUs onto the *unloaded* cores (lower variance than
        // stacking onto the loaded ones).
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 1);
        let vm = catalog::vm_m3_large();
        let a = cluster.pm(PmId(0)).first_feasible(&vm).unwrap();
        cluster.place(PmId(0), vm.clone(), a.clone()).unwrap();

        let mut algo = CompVm::new();
        let d = algo.choose(&cluster, &vm, &|_| false).unwrap();
        for c in &d.assignment.cores {
            assert!(
                !a.cores.contains(c),
                "CompVM stacked onto an already-loaded core"
            );
        }
    }

    #[test]
    fn falls_back_to_unused_pm() {
        let mut cluster = Cluster::homogeneous(catalog::pm_c3(), 2);
        let vm = catalog::vm_c3_large();
        // Fill PM 0's memory (2 x 3.75 = 7.5 GiB).
        for _ in 0..2 {
            let a = cluster.pm(PmId(0)).first_feasible(&vm).unwrap();
            cluster.place(PmId(0), vm.clone(), a).unwrap();
        }
        let mut algo = CompVm::new();
        let d = algo.choose(&cluster, &vm, &|_| false).unwrap();
        assert_eq!(d.pm, PmId(1));
    }

    #[test]
    fn variance_tiebreak_prefers_higher_utilization() {
        // Trivial sanity: with a single empty PM the chosen assignment is
        // valid and the decision exists.
        let cluster = Cluster::homogeneous(catalog::pm_m3(), 1);
        let mut algo = CompVm::new();
        let vm = catalog::vm_m3_medium();
        // Empty cluster: no used PM, falls to unused.
        let d = algo.choose(&cluster, &vm, &|_| false).unwrap();
        let pm = Pm::new(catalog::pm_m3());
        pm.validate(&vm, &d.assignment).unwrap();
    }
}
