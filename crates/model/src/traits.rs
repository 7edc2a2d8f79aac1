//! Algorithm interfaces shared by `pagerankvm` and `prvm-baselines`, and
//! the one PM scan they all run (Algorithm 2's skeleton).

use crate::assignment::Assignment;
use crate::cluster::{Cluster, PmId, VmId};
use crate::error::PlaceError;
use crate::pm::Pm;
use crate::units::Mhz;
use crate::vm::VmSpec;

/// The outcome of a placement choice: a PM and the concrete
/// anti-collocation-respecting assignment to apply there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementDecision {
    /// The chosen PM.
    pub pm: PmId,
    /// Where each vCPU / virtual disk lands.
    pub assignment: Assignment,
}

/// A VM placement algorithm (PageRankVM or a baseline).
///
/// Implementations must *not* mutate the cluster — they only choose; the
/// caller applies the decision via [`Cluster::place`]. This keeps every
/// algorithm trivially comparable under the same driver.
pub trait PlacementAlgorithm {
    /// Short name used in experiment output (e.g. `"PageRankVM"`, `"FF"`).
    fn name(&self) -> &str;

    /// Reorder a batch of requests before sequential placement. Only
    /// FFDSum overrides this (decreasing normalised size); the default is
    /// arrival order.
    fn order_batch(&self, _vms: &mut [VmSpec]) {}

    /// Choose a PM and assignment for `vm`, skipping PMs for which
    /// `exclude` returns `true` (used to keep migrations away from
    /// overloaded hosts). Returns `None` when no PM can host the VM.
    fn choose(
        &mut self,
        cluster: &Cluster,
        vm: &VmSpec,
        exclude: &dyn Fn(PmId) -> bool,
    ) -> Option<PlacementDecision>;
}

/// Picks which VM to evict from an overloaded PM.
pub trait EvictionPolicy {
    /// Short name used in experiment output.
    fn name(&self) -> &str;

    /// Choose the next VM to evict from `pm`. `cpu_demand` reports each
    /// resident VM's *current* CPU demand (trace-driven, may be below its
    /// reservation). Returns `None` if the PM hosts no VMs.
    fn select(&mut self, pm: &Pm, cpu_demand: &dyn Fn(VmId) -> Mhz) -> Option<VmId>;
}

/// Drive an algorithm over a batch of requests: order them, then place each
/// in sequence (the paper's initial VM allocation).
///
/// # Errors
///
/// Returns [`PlaceError::NoFeasiblePm`] on the first request no PM can
/// host; earlier placements remain applied (mirroring Algorithm 2's "Exit —
/// no solution").
pub fn place_batch(
    algo: &mut dyn PlacementAlgorithm,
    cluster: &mut Cluster,
    mut vms: Vec<VmSpec>,
) -> Result<Vec<VmId>, PlaceError> {
    algo.order_batch(&mut vms);
    let mut ids = Vec::with_capacity(vms.len());
    for vm in vms {
        let decision = algo
            .choose(cluster, &vm, &|_| false)
            .ok_or(PlaceError::NoFeasiblePm)?;
        let id = cluster
            .place(decision.pm, vm, decision.assignment)
            .map_err(|_| PlaceError::InfeasibleAssignment { pm: decision.pm })?;
        ids.push(id);
    }
    Ok(ids)
}

/// Algorithm 2's used-PM scan (lines 2–13): the candidate whose rating is
/// the maximum, earliest in `candidates` order among equal ratings.
///
/// Candidates that `exclude` names or that lack aggregate room for `vm`
/// are skipped. Every other PM is rated by `rate(pm, floor)`, where
/// `floor` is the best rating so far (`None` before the first). The rater
/// returns the PM's best `(rating, assignment)`, and may return `None`
/// for a PM that cannot beat `floor`. A rating replaces the best only if
/// strictly greater, so an earlier PM keeps a tie. Returns the winning
/// rating with its decision.
pub fn best_of<S: PartialOrd>(
    cluster: &Cluster,
    candidates: impl IntoIterator<Item = PmId>,
    vm: &VmSpec,
    exclude: &dyn Fn(PmId) -> bool,
    mut rate: impl FnMut(&Pm, Option<&S>) -> Option<(S, Assignment)>,
) -> Option<(S, PlacementDecision)> {
    let mut best: Option<(S, PlacementDecision)> = None;
    for pm in candidates.into_iter().filter(|&pm| !exclude(pm)) {
        let host = cluster.pm(pm);
        if !host.has_aggregate_room(vm) {
            continue;
        }
        let floor = best.as_ref().map(|(rating, _)| rating);
        if let Some((rating, assignment)) = rate(host, floor) {
            if floor.is_none_or(|floor| rating > *floor) {
                best = Some((rating, PlacementDecision { pm, assignment }));
            }
        }
    }
    best
}

/// Algorithm 2's opening rule (lines 17–24), and all of first fit: the
/// first candidate, `exclude`d ones skipped, with a feasible
/// anti-collocated assignment for `vm`. Stops at the first hit.
pub fn first_fit(
    cluster: &Cluster,
    candidates: impl IntoIterator<Item = PmId>,
    vm: &VmSpec,
    exclude: &dyn Fn(PmId) -> bool,
) -> Option<PlacementDecision> {
    candidates
        .into_iter()
        .filter(|&pm| !exclude(pm))
        .find_map(|pm| {
            let host = cluster.pm(pm);
            if !host.has_aggregate_room(vm) {
                return None;
            }
            host.first_feasible(vm)
                .map(|assignment| PlacementDecision { pm, assignment })
        })
}

/// Algorithm 2: [`best_of`] over the used PMs under `rate`, else
/// [`first_fit`] over the unused PMs. Returns the decision with its
/// winning rating, or with `None` when it opens an unused PM.
pub fn scan<S: PartialOrd>(
    cluster: &Cluster,
    vm: &VmSpec,
    exclude: &dyn Fn(PmId) -> bool,
    rate: impl FnMut(&Pm, Option<&S>) -> Option<(S, Assignment)>,
) -> Option<(Option<S>, PlacementDecision)> {
    match best_of(cluster, cluster.used_pms(), vm, exclude, rate) {
        Some((rating, decision)) => Some((Some(rating), decision)),
        None => first_fit(cluster, cluster.unused_pms(), vm, exclude).map(|d| (None, d)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    /// A toy first-fit used to exercise the driver without depending on the
    /// baselines crate.
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
    fn place_batch_places_everything_when_capacity_suffices() {
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 4);
        let vms = vec![catalog::vm_m3_large(); 6];
        let ids = place_batch(&mut ToyFirstFit, &mut cluster, vms).unwrap();
        assert_eq!(ids.len(), 6);
        assert_eq!(cluster.vm_count(), 6);
    }

    #[test]
    fn place_batch_reports_no_solution() {
        let mut cluster = Cluster::homogeneous(catalog::pm_c3(), 1);
        // C3 has 7.5 GiB; three m3.large (7.5 GiB each) cannot all fit.
        let vms = vec![catalog::vm_m3_large(); 3];
        let err = place_batch(&mut ToyFirstFit, &mut cluster, vms).unwrap_err();
        assert_eq!(err, PlaceError::NoFeasiblePm);
        assert_eq!(cluster.vm_count(), 1, "placements before failure remain");
    }

    #[test]
    fn exclusion_is_respected() {
        let cluster = {
            let mut c = Cluster::homogeneous(catalog::pm_m3(), 2);
            let vm = catalog::vm_m3_medium();
            let a = c.pm(PmId(0)).first_feasible(&vm).unwrap();
            c.place(PmId(0), vm, a).unwrap();
            c
        };
        let mut algo = ToyFirstFit;
        let vm = catalog::vm_m3_medium();
        let d = algo.choose(&cluster, &vm, &|pm| pm == PmId(0)).unwrap();
        assert_eq!(d.pm, PmId(1));
    }

    #[test]
    fn best_of_keeps_the_earliest_maximum_and_never_rates_excluded_pms() {
        // PMs 0..4 host 1, 2, 2 and 3 VMs; the rating is the VM count.
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 4);
        let vm = catalog::vm_m3_medium();
        for (pm, count) in [(0, 1), (1, 2), (2, 2), (3, 3)] {
            for _ in 0..count {
                let a = cluster.pm(PmId(pm)).first_feasible(&vm).unwrap();
                cluster.place(PmId(pm), vm.clone(), a).unwrap();
            }
        }
        let mut rated = 0;
        let (rating, d) = best_of(
            &cluster,
            cluster.used_pms(),
            &vm,
            &|pm| pm == PmId(3),
            |pm, _| {
                rated += 1;
                Some((pm.vm_count(), pm.first_feasible(&vm)?))
            },
        )
        .unwrap();
        assert_eq!((rating, d.pm, rated), (2, PmId(1), 3));
    }
}
