//! Algorithm interfaces shared by `pagerankvm` and `prvm-baselines`, the
//! one PM scan they all run (Algorithm 2's skeleton), and the one
//! overload-migration step the simulator and the testbed both run.

use crate::assignment::Assignment;
use crate::cluster::{Cluster, PmId, VmId};
use crate::error::PlaceError;
use crate::pm::Pm;
use crate::units::{convert, Mhz};
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

/// The paper's overload threshold (§VI): a PM whose CPU demand exceeds
/// this fraction of its capacity is overloaded.
pub const OVERLOAD_THRESHOLD: f64 = 0.9;

/// The paper's SLO threshold (§VI): a PM whose CPU demand reaches this
/// fraction of its capacity violates the SLO for that scan.
pub const SLO_THRESHOLD: f64 = 1.0;

/// What the overload step decides from: one scan's demands, dense by id.
/// A PM or VM past the end of its slice has zero demand and was not
/// overloaded.
#[derive(Debug, Clone, Copy)]
pub struct ScanDemand<'a> {
    /// A PM is overloaded when its demand exceeds this fraction of its
    /// CPU capacity.
    pub threshold: f64,
    /// Each PM's aggregate CPU demand now, by [`PmId`].
    pub pm: &'a [Mhz],
    /// Whether each PM was overloaded when the scan started, by [`PmId`].
    pub overloaded: &'a [bool],
    /// Each VM's CPU demand this scan, by [`VmId`].
    pub vm: &'a [Mhz],
}

impl ScanDemand<'_> {
    fn of_pm(&self, pm: PmId) -> Mhz {
        self.pm.get(pm.0).copied().unwrap_or(Mhz::ZERO)
    }

    fn of_vm(&self, vm: VmId) -> Mhz {
        convert::u64_to_usize(vm.0)
            .and_then(|slot| self.vm.get(slot).copied())
            .unwrap_or(Mhz::ZERO)
    }

    /// `demand` on `pm` would exceed the threshold.
    fn over(&self, demand: Mhz, pm: &Pm) -> bool {
        demand.fraction_of(pm.spec().total_cpu()) > self.threshold
    }
}

/// A VM the overload step took off an overloaded PM: out of the cluster,
/// bound for `to`. The caller moves it, or hands it back to
/// [`Migration::restore`].
#[derive(Debug)]
pub struct Migration {
    /// The evicted VM.
    pub vm: VmId,
    /// Its spec, as [`Cluster::remove`] returned it.
    pub spec: VmSpec,
    /// Its CPU demand this scan.
    pub demand: Mhz,
    /// The overloaded PM it left, and the cores and disks it held there:
    /// what [`Migration::restore`] puts it back on.
    from: PmId,
    from_assignment: Assignment,
    /// Where the placer puts it.
    pub to: PlacementDecision,
}

impl Migration {
    /// The move failed: put the VM back on the cores it left.
    pub fn restore(self, cluster: &mut Cluster) {
        put_back(cluster, self.vm, self.from, self.spec, self.from_assignment);
    }
}

fn put_back(cluster: &mut Cluster, vm: VmId, from: PmId, spec: VmSpec, assignment: Assignment) {
    let restored = cluster.place_as(vm, from, spec, assignment);
    debug_assert!(restored.is_ok(), "restoring a just-removed VM cannot fail");
}

/// One step of overload relief (the paper's rule for both evaluations):
/// the next VM to move off the overloaded PM `src`, already removed from
/// `cluster`. `None` means relief of `src` stops: its demand is at or
/// below the threshold, it is empty, or the evicted VM has nowhere to go
/// (it is then back on its original cores).
///
/// `evictor` picks the VM from each resident's demand this scan. The
/// placer may not put it on `src`, on a PM overloaded when the scan
/// started, or on a PM its demand would push over the threshold. The
/// caller moves the VM (or [`Migration::restore`]s it on failure) and
/// updates `demand` before the next step.
pub fn next_migration(
    cluster: &mut Cluster,
    src: PmId,
    demand: ScanDemand<'_>,
    evictor: &mut dyn EvictionPolicy,
    placer: &mut dyn PlacementAlgorithm,
) -> Option<Migration> {
    let host = cluster.pm(src);
    if !demand.over(demand.of_pm(src), host) || host.is_empty() {
        return None;
    }
    let vm = evictor.select(host, &|id| demand.of_vm(id))?;
    let vm_demand = demand.of_vm(vm);
    let Ok((_, spec, from_assignment)) = cluster.remove(vm) else {
        debug_assert!(false, "evictor selected a non-resident VM {}", vm.0);
        return None;
    };
    let exclude = |pm: PmId| {
        pm == src
            || demand.overloaded.get(pm.0).copied().unwrap_or(false)
            || demand.over(demand.of_pm(pm) + vm_demand, cluster.pm(pm))
    };
    let Some(to) = placer.choose(cluster, &spec, &exclude) else {
        put_back(cluster, vm, src, spec, from_assignment);
        return None;
    };
    Some(Migration {
        vm,
        spec,
        demand: vm_demand,
        from: src,
        from_assignment,
        to,
    })
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

    /// Evicts the resident with the highest demand, earliest on ties.
    struct ToyHighestDemand;

    impl EvictionPolicy for ToyHighestDemand {
        fn name(&self) -> &str {
            "toy-hd"
        }

        fn select(&mut self, pm: &Pm, cpu_demand: &dyn Fn(VmId) -> Mhz) -> Option<VmId> {
            pm.vms()
                .map(|(id, _, _)| id)
                .fold(None, |best, id| match best {
                    Some(b) if cpu_demand(b) >= cpu_demand(id) => Some(b),
                    _ => Some(id),
                })
        }
    }

    /// One 4 × 32-unit node per entry of `hosted`, holding that many
    /// `[1,1]` VMs (ids minted in order), plus one unused node.
    fn nodes(hosted: &[usize]) -> Cluster {
        let spec = crate::PmSpec::new("node", 4, Mhz(32), crate::MemMib::ZERO, Vec::new());
        let mut cluster = Cluster::homogeneous(spec, hosted.len() + 1);
        for (pm, &count) in hosted.iter().enumerate() {
            for _ in 0..count {
                let vm = catalog::geni_vm_2();
                let a = cluster.pm(PmId(pm)).first_feasible(&vm).unwrap();
                cluster.place(PmId(pm), vm, a).unwrap();
            }
        }
        cluster
    }

    /// Every PM's residents with their assignments, and the used order.
    fn snapshot(cluster: &Cluster) -> (Vec<Vec<(VmId, Assignment)>>, Vec<PmId>) {
        let residents = (0..cluster.len())
            .map(|pm| {
                let vms = cluster.pm(PmId(pm)).vms();
                vms.map(|(id, _, a)| (id, a.clone())).collect()
            })
            .collect();
        (residents, cluster.used_pms().collect())
    }

    fn at_half<'a>(pm: &'a [Mhz], overloaded: &'a [bool], vm: &'a [Mhz]) -> ScanDemand<'a> {
        ScanDemand {
            threshold: 0.5,
            pm,
            overloaded,
            vm,
        }
    }

    fn step(cluster: &mut Cluster, src: usize, demand: ScanDemand<'_>) -> Option<Migration> {
        next_migration(
            cluster,
            PmId(src),
            demand,
            &mut ToyHighestDemand,
            &mut ToyFirstFit,
        )
    }

    #[test]
    fn next_migration_skips_the_source_overloaded_and_over_threshold_pms() {
        // Capacity 128, threshold 0.5: a PM may hold up to 64. First fit
        // would take the first used PM that is not excluded: PM 0 is the
        // source, PM 1 was overloaded at scan start (its demand is zero
        // now), PM 2 would reach 41 + 24 = 65, PM 3 exactly 40 + 24 = 64.
        let mut cluster = nodes(&[2, 1, 1, 1]);
        let mut pm = vec![Mhz(88), Mhz::ZERO, Mhz(41), Mhz(40), Mhz::ZERO];
        let overloaded = [true, true, false, false, false];
        let vm = [Mhz(24), Mhz(10)];
        let before = snapshot(&cluster);

        // A failed move restores the VM onto the cores it left.
        let m = step(&mut cluster, 0, at_half(&pm, &overloaded, &vm)).unwrap();
        assert_eq!(
            (m.vm, m.demand, m.from, m.to.pm),
            (VmId(0), Mhz(24), PmId(0), PmId(3))
        );
        assert_eq!(
            cluster.locate(VmId(0)),
            None,
            "proposed VMs are out of the cluster"
        );
        m.restore(&mut cluster);
        assert_eq!(snapshot(&cluster), before);

        let m = step(&mut cluster, 0, at_half(&pm, &overloaded, &vm)).unwrap();
        assert_eq!(m.to.pm, PmId(3));
        cluster
            .place_as(m.vm, m.to.pm, m.spec, m.to.assignment)
            .unwrap();
        pm[3] += m.demand;
        pm[0] = pm[0].saturating_sub(m.demand);

        // PM 0 is now at the threshold, not over it: relief stops and
        // nothing moves.
        let moved = snapshot(&cluster);
        assert!(step(&mut cluster, 0, at_half(&pm, &overloaded, &vm)).is_none());
        assert_eq!(snapshot(&cluster), moved);
    }

    #[test]
    fn next_migration_without_a_destination_leaves_the_cluster_unchanged() {
        // PM 1 is overloaded and the unused PM 2 would go over 64.
        let mut cluster = nodes(&[2, 1]);
        let before = snapshot(&cluster);
        let demand = at_half(
            &[Mhz(88), Mhz::ZERO, Mhz(50)],
            &[true, true, false],
            &[Mhz(24), Mhz(10)],
        );
        assert!(step(&mut cluster, 0, demand).is_none());
        assert_eq!(snapshot(&cluster), before);

        // An empty PM needs no relief, whatever its demand reads.
        assert!(step(&mut cluster, 2, demand).is_none());
        assert_eq!(snapshot(&cluster), before);
    }
}
