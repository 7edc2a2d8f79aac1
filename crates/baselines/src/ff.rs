//! First Fit (FF) — the Eucalyptus-style baseline \[27\].

use prvm_model::{first_fit, Cluster, PlacementAlgorithm, PlacementDecision, PmId, VmSpec};

/// Places each VM on the first PM (used list first, then unused) that has a
/// feasible anti-collocated assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstFit;

impl FirstFit {
    /// Create a first-fit placer.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl PlacementAlgorithm for FirstFit {
    fn name(&self) -> &str {
        "FF"
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
    fn fills_first_pm_before_opening_second() {
        let mut ff = FirstFit::new();
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 3);
        let vms = vec![catalog::vm_m3_medium(); 4];
        place_batch(&mut ff, &mut cluster, vms).unwrap();
        assert_eq!(cluster.active_pm_count(), 1);
        assert_eq!(cluster.pm(PmId(0)).vm_count(), 4);
    }

    #[test]
    fn opens_new_pm_when_first_is_full() {
        let mut ff = FirstFit::new();
        // C3 holds 7.5 GiB: two c3.large (3.75 GiB each) fill its memory.
        let mut cluster = Cluster::homogeneous(catalog::pm_c3(), 2);
        let vms = vec![catalog::vm_c3_large(); 3];
        place_batch(&mut ff, &mut cluster, vms).unwrap();
        assert_eq!(cluster.active_pm_count(), 2);
    }

    #[test]
    fn returns_none_when_everything_is_full() {
        let mut ff = FirstFit::new();
        let mut cluster = Cluster::homogeneous(catalog::pm_c3(), 1);
        place_batch(&mut ff, &mut cluster, vec![catalog::vm_c3_large(); 2]).unwrap();
        assert!(ff
            .choose(&cluster, &catalog::vm_c3_large(), &|_| false)
            .is_none());
    }

    #[test]
    fn respects_exclusion() {
        let mut ff = FirstFit::new();
        let cluster = Cluster::homogeneous(catalog::pm_m3(), 2);
        let d = ff
            .choose(&cluster, &catalog::vm_m3_medium(), &|pm| pm == PmId(0))
            .unwrap();
        assert_eq!(d.pm, PmId(1));
    }
}
