//! Cluster state: the datacenter's PMs plus the paper's
//! `used_PM_list` / `unused_PM_list` bookkeeping (Algorithm 2).

use crate::assignment::Assignment;
use crate::error::ModelError;
use crate::pm::{Pm, PmSpec};
use crate::vm::VmSpec;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Identity of a PM within a [`Cluster`] (its index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PmId(pub usize);

/// Identity of a VM within a [`Cluster`]. Stable across migrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VmId(pub u64);

/// A datacenter: a fixed set of PMs, a used list (PMs hosting at least one
/// VM, in first-use order) and an unused list.
///
/// # Example
///
/// ```
/// use prvm_model::{catalog, Assignment, Cluster};
///
/// let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 3);
/// assert_eq!(cluster.len(), 3);
/// assert_eq!(cluster.active_pm_count(), 0);
///
/// // m3.large: 2 vCPUs on distinct cores, one disk (Table I).
/// let pm = cluster.unused_pms().next().expect("all PMs start unused");
/// let vm = cluster
///     .place(pm, catalog::vm_m3_large(), Assignment::new(vec![0, 1], vec![0]))
///     .expect("an empty m3 PM hosts an m3.large");
/// assert_eq!(cluster.active_pm_count(), 1);
/// assert_eq!(cluster.locate(vm), Some(pm));
///
/// // Removing the VM returns the PM to the unused list, but it still
/// // counts toward the paper's "PMs ever used" metric.
/// cluster.remove(vm).expect("vm is resident");
/// assert_eq!(cluster.active_pm_count(), 0);
/// assert_eq!(cluster.ever_used_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    pms: Vec<Pm>,
    used: Vec<PmId>,
    unused: VecDeque<PmId>,
    location: HashMap<VmId, PmId>,
    next_vm: u64,
    /// Every PM that hosted at least one VM at any point (for the paper's
    /// "number of PMs used" metric).
    ever_used: Vec<bool>,
    /// Crashed PMs: hidden from the used/unused iterators and rejected as
    /// placement targets until marked up again. All-false unless a fault
    /// plan is active.
    down: Vec<bool>,
}

impl Cluster {
    /// A cluster of `n` identical machines.
    #[must_use]
    pub fn homogeneous(spec: PmSpec, n: usize) -> Self {
        Self::from_specs(std::iter::repeat_n(spec, n))
    }

    /// A cluster from an explicit sequence of PM types (heterogeneous).
    #[must_use]
    pub fn from_specs(specs: impl IntoIterator<Item = PmSpec>) -> Self {
        let pms: Vec<Pm> = specs.into_iter().map(Pm::new).collect();
        let unused = (0..pms.len()).map(PmId).collect();
        let ever_used = vec![false; pms.len()];
        let down = vec![false; pms.len()];
        Self {
            pms,
            used: Vec::new(),
            unused,
            location: HashMap::new(),
            next_vm: 0,
            ever_used,
            down,
        }
    }

    /// Number of PMs in the datacenter.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pms.len()
    }

    /// `true` if the datacenter has no PMs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pms.is_empty()
    }

    /// Number of resident VMs.
    #[must_use]
    pub fn vm_count(&self) -> usize {
        self.location.len()
    }

    /// Access a PM.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn pm(&self, id: PmId) -> &Pm {
        &self.pms[id.0]
    }

    /// All PMs in id order.
    #[must_use]
    pub fn pms(&self) -> &[Pm] {
        &self.pms
    }

    /// The used-PM list in first-use order (the paper's `used_PM_list`).
    /// Down PMs are hidden, so every placement algorithm — they all walk
    /// this and [`Cluster::unused_pms`] through [`crate::scan`] — skips
    /// crashed machines for free.
    pub fn used_pms(&self) -> impl Iterator<Item = PmId> + '_ {
        self.used.iter().copied().filter(|pm| !self.down[pm.0])
    }

    /// The unused-PM list (the paper's `unused_PM_list`), down PMs hidden.
    pub fn unused_pms(&self) -> impl Iterator<Item = PmId> + '_ {
        self.unused.iter().copied().filter(|pm| !self.down[pm.0])
    }

    /// The used list, then the unused list: the order first fit tries PMs
    /// in. Down PMs are hidden.
    pub fn used_then_unused(&self) -> impl Iterator<Item = PmId> + '_ {
        self.used_pms().chain(self.unused_pms())
    }

    /// Number of PMs currently hosting at least one VM.
    #[must_use]
    pub fn active_pm_count(&self) -> usize {
        self.used.len()
    }

    /// Number of PMs that hosted at least one VM at any point in this
    /// cluster's history — the paper's "number of PMs used" metric.
    #[must_use]
    pub fn ever_used_count(&self) -> usize {
        self.ever_used.iter().filter(|&&b| b).count()
    }

    /// Mark a PM as crashed. Resident VMs stay resident — evacuating them
    /// is the caller's (sim engine / controller) responsibility, so the
    /// recovery policy lives with the recovery accounting.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownPm`] for an out-of-range id.
    pub fn mark_down(&mut self, pm: PmId) -> Result<(), ModelError> {
        if pm.0 >= self.pms.len() {
            return Err(ModelError::UnknownPm(pm));
        }
        self.down[pm.0] = true;
        Ok(())
    }

    /// Mark a crashed PM as recovered; it reappears in the used/unused
    /// iterators and can host VMs again.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownPm`] for an out-of-range id.
    pub fn mark_up(&mut self, pm: PmId) -> Result<(), ModelError> {
        if pm.0 >= self.pms.len() {
            return Err(ModelError::UnknownPm(pm));
        }
        self.down[pm.0] = false;
        Ok(())
    }

    /// True when the PM is marked down (false for out-of-range ids).
    #[must_use]
    pub fn is_down(&self, pm: PmId) -> bool {
        self.down.get(pm.0).copied().unwrap_or(false)
    }

    /// VM ids resident on one PM, in ascending id order (deterministic,
    /// for evacuation processing).
    #[must_use]
    pub fn resident_vms(&self, pm: PmId) -> Vec<VmId> {
        let mut vms: Vec<VmId> = self
            .location
            .iter()
            .filter(|(_, p)| **p == pm)
            .map(|(vm, _)| *vm)
            .collect();
        vms.sort_unstable();
        vms
    }

    /// Where a VM currently lives.
    #[must_use]
    pub fn locate(&self, vm: VmId) -> Option<PmId> {
        self.location.get(&vm).copied()
    }

    /// All resident VM ids (unordered).
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.location.keys().copied()
    }

    /// Place a new VM on `pm` under `assignment`, allocating a fresh
    /// [`VmId`].
    ///
    /// # Errors
    ///
    /// Propagates validation failures; the cluster is unchanged on error.
    pub fn place(
        &mut self,
        pm: PmId,
        vm: VmSpec,
        assignment: Assignment,
    ) -> Result<VmId, ModelError> {
        let id = VmId(self.next_vm);
        self.place_as(id, pm, vm, assignment)?;
        self.next_vm += 1;
        Ok(id)
    }

    /// Place a VM with a caller-chosen id (used to keep ids stable across
    /// migrations).
    ///
    /// # Errors
    ///
    /// Fails if the id is already resident somewhere or the assignment is
    /// invalid.
    pub fn place_as(
        &mut self,
        id: VmId,
        pm: PmId,
        vm: VmSpec,
        assignment: Assignment,
    ) -> Result<(), ModelError> {
        if pm.0 >= self.pms.len() {
            return Err(ModelError::UnknownPm(pm));
        }
        if self.down[pm.0] {
            return Err(ModelError::PmDown(pm));
        }
        if self.location.contains_key(&id) {
            return Err(ModelError::InvalidAssignment {
                reason: format!("VM {} already placed", id.0),
            });
        }
        let was_empty = self.pms[pm.0].is_empty();
        self.pms[pm.0].place(id, vm, assignment)?;
        self.location.insert(id, pm);
        self.next_vm = self.next_vm.max(id.0 + 1);
        self.ever_used[pm.0] = true;
        if was_empty {
            self.unused.retain(|&p| p != pm);
            self.used.push(pm);
        }
        Ok(())
    }

    /// Remove a VM, returning where it was and what it was.
    ///
    /// If the PM becomes empty it moves back to the unused list (it can be
    /// powered off).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownVm`] for an unknown id.
    pub fn remove(&mut self, id: VmId) -> Result<(PmId, VmSpec, Assignment), ModelError> {
        let pm = self.location.remove(&id).ok_or(ModelError::UnknownVm(id))?;
        let Ok((spec, assignment)) = self.pms[pm.0].remove(id) else {
            // The location map said `pm` hosts `id` but the PM disagrees —
            // a bookkeeping bug. Surface it as loudly as the build allows.
            debug_assert!(false, "location map and PM state disagree for VM {}", id.0);
            return Err(ModelError::UnknownVm(id));
        };
        if self.pms[pm.0].is_empty() {
            self.used.retain(|&p| p != pm);
            self.unused.push_back(pm);
        }
        Ok((pm, spec, assignment))
    }

    /// Move a VM to another PM under a new assignment (a migration).
    ///
    /// # Errors
    ///
    /// If the destination rejects the assignment the VM is restored on its
    /// source PM and the error returned.
    pub fn migrate(
        &mut self,
        id: VmId,
        to: PmId,
        assignment: Assignment,
    ) -> Result<(), ModelError> {
        let (from, spec, old) = self.remove(id)?;
        match self.place_as(id, to, spec.clone(), assignment) {
            Ok(()) => Ok(()),
            Err(e) => {
                let restored = self.place_as(id, from, spec, old);
                debug_assert!(restored.is_ok(), "restoring a just-removed VM cannot fail");
                Err(e)
            }
        }
    }

    /// The id the next [`Cluster::place`] will allocate.
    #[must_use]
    pub fn next_vm_id(&self) -> u64 {
        self.next_vm
    }

    /// Bump the fresh-id allocator to at least `next`. Recovery uses
    /// this: a snapshot records the allocator watermark so that replay
    /// never re-issues the id of a VM that was placed and later evicted
    /// before the snapshot was cut.
    pub fn reserve_vm_ids(&mut self, next: u64) {
        self.next_vm = self.next_vm.max(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn fresh_cluster_has_all_pms_unused() {
        let c = Cluster::homogeneous(catalog::pm_m3(), 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.active_pm_count(), 0);
        assert_eq!(c.unused_pms().count(), 3);
        assert_eq!(c.ever_used_count(), 0);
    }

    #[test]
    fn used_list_tracks_occupancy() {
        let mut c = Cluster::homogeneous(catalog::pm_m3(), 2);
        let vm = catalog::vm_m3_medium();
        let a = c.pm(PmId(1)).first_feasible(&vm).unwrap();
        let id = c.place(PmId(1), vm, a).unwrap();
        assert_eq!(c.used_pms().collect::<Vec<_>>(), vec![PmId(1)]);
        assert_eq!(c.unused_pms().collect::<Vec<_>>(), vec![PmId(0)]);
        assert_eq!(c.locate(id), Some(PmId(1)));

        c.remove(id).unwrap();
        assert_eq!(c.active_pm_count(), 0);
        assert_eq!(c.unused_pms().count(), 2);
        // "ever used" survives the removal.
        assert_eq!(c.ever_used_count(), 1);
    }

    #[test]
    fn vm_ids_are_unique_and_stable() {
        let mut c = Cluster::homogeneous(catalog::pm_m3(), 1);
        let vm = catalog::vm_m3_medium();
        let a1 = c.pm(PmId(0)).first_feasible(&vm).unwrap();
        let id1 = c.place(PmId(0), vm.clone(), a1).unwrap();
        let a2 = c.pm(PmId(0)).first_feasible(&vm).unwrap();
        let id2 = c.place(PmId(0), vm, a2).unwrap();
        assert_ne!(id1, id2);
    }

    #[test]
    fn migrate_moves_and_rolls_back() {
        let mut c = Cluster::homogeneous(catalog::pm_m3(), 2);
        let vm = catalog::vm_m3_large();
        let a = c.pm(PmId(0)).first_feasible(&vm).unwrap();
        let id = c.place(PmId(0), vm.clone(), a).unwrap();

        let dest = c.pm(PmId(1)).first_feasible(&vm).unwrap();
        c.migrate(id, PmId(1), dest).unwrap();
        assert_eq!(c.locate(id), Some(PmId(1)));
        assert!(c.pm(PmId(0)).is_empty());

        // A bad destination assignment rolls back.
        let bad = Assignment::new(vec![0, 0], vec![0]);
        let err = c.migrate(id, PmId(0), bad);
        assert!(err.is_err());
        assert_eq!(c.locate(id), Some(PmId(1)), "rolled back to source");
        assert_eq!(c.vm_count(), 1);
    }

    #[test]
    fn place_on_unknown_pm_errors() {
        let mut c = Cluster::homogeneous(catalog::pm_m3(), 1);
        let vm = catalog::vm_m3_medium();
        let err = c.place(PmId(5), vm, Assignment::default());
        assert_eq!(err, Err(ModelError::UnknownPm(PmId(5))));
    }

    #[test]
    fn down_pms_are_hidden_and_reject_placements() {
        let mut c = Cluster::homogeneous(catalog::pm_m3(), 3);
        let vm = catalog::vm_m3_medium();
        let a = c.pm(PmId(1)).first_feasible(&vm).unwrap();
        let id = c.place(PmId(1), vm.clone(), a).unwrap();

        c.mark_down(PmId(1)).unwrap();
        c.mark_down(PmId(2)).unwrap();
        assert!(c.is_down(PmId(1)) && c.is_down(PmId(2)));
        assert_eq!(c.used_pms().count(), 0, "down PM hidden from used list");
        assert_eq!(c.unused_pms().collect::<Vec<_>>(), vec![PmId(0)]);
        // The VM is still resident (evacuation is the caller's job).
        assert_eq!(c.locate(id), Some(PmId(1)));
        assert_eq!(c.resident_vms(PmId(1)), vec![id]);

        // Placing on a down PM is refused.
        let a = c.pm(PmId(2)).first_feasible(&vm).unwrap();
        assert_eq!(
            c.place(PmId(2), vm.clone(), a),
            Err(ModelError::PmDown(PmId(2)))
        );

        // Recovery restores visibility and placements.
        c.mark_up(PmId(2)).unwrap();
        assert!(c.is_down(PmId(1)) && !c.is_down(PmId(2)));
        let a = c.pm(PmId(2)).first_feasible(&vm).unwrap();
        assert!(c.place(PmId(2), vm, a).is_ok());
        assert!(c.mark_down(PmId(9)).is_err());
        assert!(!c.is_down(PmId(9)));
    }

    #[test]
    fn resident_vms_are_sorted_for_determinism() {
        let mut c = Cluster::homogeneous(catalog::pm_m3(), 1);
        let vm = catalog::vm_m3_medium();
        let mut ids = Vec::new();
        for _ in 0..4 {
            let a = c.pm(PmId(0)).first_feasible(&vm).unwrap();
            ids.push(c.place(PmId(0), vm.clone(), a).unwrap());
        }
        assert_eq!(c.resident_vms(PmId(0)), ids);
    }
}
