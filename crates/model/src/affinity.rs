//! PM-level collocation and anti-collocation groups.
//!
//! The paper's §II cites deployments with "complex resource requirements…
//! with VM collocation and anti-collocation requirements" at the *machine*
//! level (which VMs may or must share a PM), on top of the per-core /
//! per-disk constraints the core algorithm handles. This module is the
//! machine-level layer: [`AffinityRules`] names groups of VM requests
//! that must land on the same PM (collocation) or on pairwise-distinct
//! PMs (anti-collocation), and [`place_batch_with_rules`] drives any
//! [`PlacementAlgorithm`] under those rules.

use crate::cluster::{Cluster, PmId, VmId};
use crate::error::PlaceError;
use crate::traits::PlacementAlgorithm;
use crate::vm::VmSpec;
use std::collections::HashMap;

/// Machine-level affinity rules over a batch of VM requests, identified
/// by their index in the batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AffinityRules {
    /// Each inner set of request indices must share one PM.
    collocate: Vec<Vec<usize>>,
    /// Each inner set of request indices must use pairwise-distinct PMs.
    separate: Vec<Vec<usize>>,
}

impl AffinityRules {
    /// No rules.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Require the requests at `indices` to share a PM.
    ///
    /// # Panics
    ///
    /// Panics if `indices` has fewer than two entries (a trivial rule is
    /// almost certainly a bug).
    #[must_use]
    pub fn collocate(mut self, indices: Vec<usize>) -> Self {
        assert!(indices.len() >= 2, "collocation group needs >= 2 VMs");
        self.collocate.push(indices);
        self
    }

    /// Require the requests at `indices` to use pairwise-distinct PMs.
    ///
    /// # Panics
    ///
    /// Panics if `indices` has fewer than two entries.
    #[must_use]
    pub fn separate(mut self, indices: Vec<usize>) -> Self {
        assert!(indices.len() >= 2, "anti-collocation group needs >= 2 VMs");
        self.separate.push(indices);
        self
    }

    /// Check the rules are internally consistent for a batch of `n`
    /// requests: indices in range, and no pair both collocated and
    /// separated.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        for g in self.collocate.iter().chain(&self.separate) {
            for &i in g {
                if i >= n {
                    return Err(format!("rule references request {i}, batch has {n}"));
                }
            }
        }
        // Union-find over collocation groups; then any separate pair in
        // the same component is contradictory.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for g in &self.collocate {
            for w in g.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                parent[a] = b;
            }
        }
        for g in &self.separate {
            for i in 0..g.len() {
                for j in (i + 1)..g.len() {
                    if find(&mut parent, g[i]) == find(&mut parent, g[j]) {
                        return Err(format!(
                            "requests {} and {} are both collocated and separated",
                            g[i], g[j]
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// `true` if placing request `idx` on `pm` keeps every rule
    /// satisfiable given the placements so far (`placed[i] = Some(pm)` for
    /// already-placed requests).
    #[must_use]
    pub fn allows(&self, idx: usize, pm: PmId, placed: &[Option<PmId>]) -> bool {
        for g in &self.collocate {
            if g.contains(&idx) {
                for &other in g {
                    if let Some(Some(p)) = placed.get(other) {
                        if *p != pm {
                            return false;
                        }
                    }
                }
            }
        }
        for g in &self.separate {
            if g.contains(&idx) {
                for &other in g {
                    if other != idx {
                        if let Some(Some(p)) = placed.get(other) {
                            if *p == pm {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        true
    }
}

/// Place a batch under affinity rules: each request is placed by `algo`
/// restricted (via the exclusion hook) to PMs the rules allow.
///
/// Requests inside one collocation group are placed consecutively (group
/// members immediately after their first-placed member) so the shared PM
/// is fixed early; otherwise arrival order is kept — `order_batch` is
/// *not* applied, because reordering would break index-based rules.
///
/// # Errors
///
/// [`PlaceError::NoFeasiblePm`] when a request cannot be placed under the
/// rules. Earlier placements remain applied.
pub fn place_batch_with_rules(
    algo: &mut dyn PlacementAlgorithm,
    cluster: &mut Cluster,
    vms: &[VmSpec],
    rules: &AffinityRules,
) -> Result<Vec<VmId>, PlaceError> {
    rules
        .validate(vms.len())
        .map_err(|_| PlaceError::NoFeasiblePm)?;

    // Order: walk arrival order, but pull a request's collocation-group
    // mates right behind it.
    let mut order: Vec<usize> = Vec::with_capacity(vms.len());
    let mut queued = vec![false; vms.len()];
    for i in 0..vms.len() {
        if queued[i] {
            continue;
        }
        order.push(i);
        queued[i] = true;
        for g in &rules.collocate {
            if g.contains(&i) {
                for &j in g {
                    if !queued[j] {
                        order.push(j);
                        queued[j] = true;
                    }
                }
            }
        }
    }

    let mut placed: Vec<Option<PmId>> = vec![None; vms.len()];
    let mut ids: HashMap<usize, VmId> = HashMap::new();
    for idx in order {
        let vm = &vms[idx];
        let decision = algo
            .choose(cluster, vm, &|pm| !rules.allows(idx, pm, &placed))
            .ok_or(PlaceError::NoFeasiblePm)?;
        let id = cluster
            .place(decision.pm, vm.clone(), decision.assignment)
            .map_err(|_| PlaceError::InfeasibleAssignment { pm: decision.pm })?;
        placed[idx] = Some(decision.pm);
        ids.insert(idx, id);
    }
    Ok((0..vms.len()).map(|i| ids[&i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::traits::{first_fit, PlacementDecision};

    struct ToyFirstFit;
    impl PlacementAlgorithm for ToyFirstFit {
        fn name(&self) -> &str {
            "toy-ff"
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

    #[test]
    fn collocation_forces_shared_pm() {
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 4);
        let vms = vec![catalog::vm_m3_medium(); 4];
        let rules = AffinityRules::new().collocate(vec![1, 3]);
        let ids = place_batch_with_rules(&mut ToyFirstFit, &mut cluster, &vms, &rules).unwrap();
        assert_eq!(cluster.locate(ids[1]), cluster.locate(ids[3]));
    }

    #[test]
    fn separation_forces_distinct_pms() {
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 4);
        let vms = vec![catalog::vm_m3_medium(); 3];
        let rules = AffinityRules::new().separate(vec![0, 1, 2]);
        let ids = place_batch_with_rules(&mut ToyFirstFit, &mut cluster, &vms, &rules).unwrap();
        let pms: std::collections::HashSet<_> =
            ids.iter().map(|&id| cluster.locate(id).unwrap()).collect();
        assert_eq!(pms.len(), 3, "three VMs on three distinct PMs");
    }

    #[test]
    fn contradictory_rules_are_rejected() {
        let rules = AffinityRules::new()
            .collocate(vec![0, 1])
            .separate(vec![0, 1]);
        assert!(rules.validate(2).is_err());
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 2);
        let vms = vec![catalog::vm_m3_medium(); 2];
        assert_eq!(
            place_batch_with_rules(&mut ToyFirstFit, &mut cluster, &vms, &rules),
            Err(PlaceError::NoFeasiblePm)
        );
    }

    #[test]
    fn out_of_range_rule_is_invalid() {
        let rules = AffinityRules::new().collocate(vec![0, 9]);
        assert!(rules.validate(2).is_err());
    }

    #[test]
    fn transitive_collocation_via_union_find() {
        // {0,1} and {1,2} collocated; separating {0,2} is contradictory.
        let rules = AffinityRules::new()
            .collocate(vec![0, 1])
            .collocate(vec![1, 2])
            .separate(vec![0, 2]);
        assert!(rules.validate(3).is_err());
    }

    #[test]
    fn infeasible_separation_fails_gracefully() {
        // Two PMs but three VMs that must be pairwise separate.
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 2);
        let vms = vec![catalog::vm_m3_medium(); 3];
        let rules = AffinityRules::new().separate(vec![0, 1, 2]);
        let err = place_batch_with_rules(&mut ToyFirstFit, &mut cluster, &vms, &rules);
        assert_eq!(err, Err(PlaceError::NoFeasiblePm));
        assert_eq!(cluster.vm_count(), 2, "earlier placements remain");
    }

    #[test]
    fn collocation_capacity_limits_are_respected() {
        // Two m3.2xlarge fit one M3 (memory 60/64); a third collocated
        // with them cannot.
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 3);
        let vms = vec![catalog::vm_m3_2xlarge(); 3];
        let rules = AffinityRules::new().collocate(vec![0, 1, 2]);
        let err = place_batch_with_rules(&mut ToyFirstFit, &mut cluster, &vms, &rules);
        assert_eq!(err, Err(PlaceError::NoFeasiblePm));
    }

    #[test]
    fn no_rules_matches_plain_batch_placement() {
        let vms = vec![catalog::vm_m3_medium(); 5];
        let mut a = Cluster::homogeneous(catalog::pm_m3(), 3);
        place_batch_with_rules(&mut ToyFirstFit, &mut a, &vms, &AffinityRules::new()).unwrap();
        let mut b = Cluster::homogeneous(catalog::pm_m3(), 3);
        crate::traits::place_batch(&mut ToyFirstFit, &mut b, vms).unwrap();
        assert_eq!(a.active_pm_count(), b.active_pm_count());
    }
}
