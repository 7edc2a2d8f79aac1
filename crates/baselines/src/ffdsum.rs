//! First Fit Decreasing Sum (FFDSum) — Panigrahy et al.'s vector bin
//! packing heuristic \[30\].
//!
//! The "size" of a VM is the weighted sum of its demand vector, each
//! dimension normalised by a reference PM's capacity. VMs are placed in
//! order of decreasing size, each by first fit.

use prvm_model::{first_fit, Cluster, PlacementAlgorithm, PlacementDecision, PmId, PmSpec, VmSpec};

/// FFDSum: decreasing-size ordering over a first-fit placer.
#[derive(Debug, Clone, PartialEq)]
pub struct FfdSum {
    reference: PmSpec,
}

impl FfdSum {
    /// Create an FFDSum placer; `reference` provides the capacities used to
    /// normalise each demand dimension (typically the dominant PM type of
    /// the datacenter).
    #[must_use]
    pub fn new(reference: PmSpec) -> Self {
        Self { reference }
    }

    /// The normalised size of a VM under this placer's reference PM.
    #[must_use]
    pub fn size(&self, vm: &VmSpec) -> f64 {
        vm.normalized_size(
            self.reference.total_cpu(),
            self.reference.memory,
            self.reference.total_disk(),
        )
    }
}

impl PlacementAlgorithm for FfdSum {
    fn name(&self) -> &str {
        "FFDSum"
    }

    fn order_batch(&self, vms: &mut [VmSpec]) {
        vms.sort_by(|a, b| self.size(b).total_cmp(&self.size(a)));
    }

    fn choose(
        &mut self,
        cluster: &Cluster,
        vm: &VmSpec,
        exclude: &dyn Fn(PmId) -> bool,
    ) -> Option<PlacementDecision> {
        first_fit(cluster, cluster.used_then_unused(), vm, exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_model::{catalog, place_batch, Cluster};

    #[test]
    fn batch_is_ordered_by_decreasing_size() {
        let ffd = FfdSum::new(catalog::pm_m3());
        let mut vms = vec![
            catalog::vm_m3_medium(),
            catalog::vm_m3_2xlarge(),
            catalog::vm_c3_large(),
            catalog::vm_m3_xlarge(),
        ];
        ffd.order_batch(&mut vms);
        let sizes: Vec<f64> = vms.iter().map(|v| ffd.size(v)).collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
        assert_eq!(vms[0].name, "m3.2xlarge");
    }

    #[test]
    fn size_accounts_for_all_dimensions() {
        let ffd = FfdSum::new(catalog::pm_m3());
        let big = ffd.size(&catalog::vm_m3_2xlarge());
        let small = ffd.size(&catalog::vm_m3_medium());
        assert!(big > small);
        // m3.2xlarge: 4800/20800 + 30/64 + 160/1000
        let expect = 4800.0 / 20800.0 + 30.0 / 64.0 + 160.0 / 1000.0;
        assert!((big - expect).abs() < 1e-12, "{big}");
    }

    #[test]
    fn places_like_first_fit_after_ordering() {
        let mut ffd = FfdSum::new(catalog::pm_m3());
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 4);
        let vms = vec![
            catalog::vm_m3_medium(),
            catalog::vm_m3_medium(),
            catalog::vm_m3_2xlarge(),
        ];
        place_batch(&mut ffd, &mut cluster, vms).unwrap();
        // Big VM first, mediums packed after it — all share PM 0
        // (memory: 30 + 2 x 3.75 = 37.5 of 64 GiB).
        assert_eq!(cluster.active_pm_count(), 1);
    }
}
