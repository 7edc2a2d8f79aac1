//! Physical machines.
//!
//! A [`PmSpec`] is the paper's `R_j = {C_j, B_j, D_j}`: a set of physical
//! cores (homogeneous capacity `A_j`), memory `B_j` and a set of physical
//! disks. A [`Pm`] is a live machine tracking per-core and per-disk
//! reservations plus the set of resident VMs and their [`Assignment`]s.

use crate::assignment::Assignment;
use crate::cluster::VmId;
use crate::combin;
use crate::error::ModelError;
use crate::units::{convert, DiskGb, MemMib, Mhz};
use crate::vm::VmSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Capacity description of one PM type (the paper's `R_j`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PmSpec {
    /// Human-readable type name, e.g. `"M3"`.
    pub name: String,
    /// Number of physical cores, `|C_j|`. Cores are homogeneous.
    pub cores: u32,
    /// Capacity of each core (`A_j^l`).
    pub core_mhz: Mhz,
    /// Total memory `B_j`.
    pub memory: MemMib,
    /// Capacity of each physical disk (`G_j^l`), one entry per disk. Stored
    /// sorted descending.
    disks: Vec<DiskGb>,
}

impl PmSpec {
    /// Create a PM spec. Disks are canonicalised (sorted descending).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        cores: u32,
        core_mhz: Mhz,
        memory: MemMib,
        mut disks: Vec<DiskGb>,
    ) -> Self {
        assert!(cores > 0, "a PM must have at least one core");
        disks.sort_unstable_by(|a, b| b.cmp(a));
        Self {
            name: name.into(),
            cores,
            core_mhz,
            memory,
            disks,
        }
    }

    /// Per-disk capacities, sorted descending.
    #[must_use]
    pub fn disks(&self) -> &[DiskGb] {
        &self.disks
    }

    /// Aggregate CPU capacity over all cores.
    #[must_use]
    pub fn total_cpu(&self) -> Mhz {
        Mhz(self.core_mhz.get() * u64::from(self.cores))
    }

    /// Aggregate disk capacity over all disks.
    #[must_use]
    pub fn total_disk(&self) -> DiskGb {
        self.disks.iter().copied().sum()
    }
}

impl fmt::Display for PmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} cores x {}, {}, {} disks)",
            self.name,
            self.cores,
            self.core_mhz,
            self.memory,
            self.disks.len()
        )
    }
}

/// A live physical machine with per-dimension reservations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pm {
    spec: PmSpec,
    /// Reserved MHz per physical core (index = core id).
    core_used: Vec<Mhz>,
    /// Reserved memory.
    mem_used: MemMib,
    /// Reserved GB per physical disk (index = disk id).
    disk_used: Vec<DiskGb>,
    /// Resident VMs and where their demands landed.
    vms: BTreeMap<VmId, (VmSpec, Assignment)>,
}

impl Pm {
    /// A fresh, empty machine of the given type.
    #[must_use]
    pub fn new(spec: PmSpec) -> Self {
        let cores = convert::u32_to_usize(spec.cores);
        let disks = spec.disks.len();
        Self {
            spec,
            core_used: vec![Mhz::ZERO; cores],
            mem_used: MemMib::ZERO,
            disk_used: vec![DiskGb::ZERO; disks],
            vms: BTreeMap::new(),
        }
    }

    /// The machine's capacity description.
    #[must_use]
    pub fn spec(&self) -> &PmSpec {
        &self.spec
    }

    /// Reserved MHz per core.
    #[must_use]
    pub fn core_used(&self) -> &[Mhz] {
        &self.core_used
    }

    /// Reserved memory.
    #[must_use]
    pub fn mem_used(&self) -> MemMib {
        self.mem_used
    }

    /// Reserved GB per disk.
    #[must_use]
    pub fn disk_used(&self) -> &[DiskGb] {
        &self.disk_used
    }

    /// Resident VMs with their specs and assignments, in `VmId` order.
    pub fn vms(&self) -> impl Iterator<Item = (VmId, &VmSpec, &Assignment)> {
        self.vms.iter().map(|(id, (spec, a))| (*id, spec, a))
    }

    /// Number of resident VMs.
    #[must_use]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// `true` if no VM is resident (the PM could be powered off).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// Look up a resident VM.
    #[must_use]
    pub fn vm(&self, id: VmId) -> Option<(&VmSpec, &Assignment)> {
        self.vms.get(&id).map(|(s, a)| (s, a))
    }

    /// Total reserved CPU across cores.
    #[must_use]
    pub fn total_cpu_used(&self) -> Mhz {
        self.core_used.iter().copied().sum()
    }

    /// Total reserved disk across disks.
    #[must_use]
    pub fn total_disk_used(&self) -> DiskGb {
        self.disk_used.iter().copied().sum()
    }

    /// Reserved CPU as a fraction of total CPU capacity.
    #[must_use]
    pub fn cpu_utilization(&self) -> f64 {
        self.total_cpu_used().fraction_of(self.spec.total_cpu())
    }

    /// Reserved memory as a fraction of capacity.
    #[must_use]
    pub fn mem_utilization(&self) -> f64 {
        self.mem_used.fraction_of(self.spec.memory)
    }

    /// Reserved disk as a fraction of total disk capacity.
    #[must_use]
    pub fn disk_utilization(&self) -> f64 {
        self.total_disk_used().fraction_of(self.spec.total_disk())
    }

    /// Quick aggregate check: does the PM have enough *total* free resource
    /// in every dimension class? Necessary but not sufficient for
    /// [`Self::first_feasible`]; used to prune candidates cheaply.
    #[must_use]
    pub fn has_aggregate_room(&self, vm: &VmSpec) -> bool {
        self.total_cpu_used() + vm.total_cpu() <= self.spec.total_cpu()
            && self.mem_used + vm.memory <= self.spec.memory
            && self.total_disk_used() + vm.total_disk() <= self.spec.total_disk()
            && vm.vcpus <= self.spec.cores
            && vm.disks().len() <= self.spec.disks.len()
    }

    /// Find any feasible anti-collocated assignment for `vm`, or `None`.
    #[must_use]
    pub fn first_feasible(&self, vm: &VmSpec) -> Option<Assignment> {
        if self.mem_used + vm.memory > self.spec.memory {
            return None;
        }
        let core_used: Vec<u64> = self.core_used.iter().map(|m| m.get()).collect();
        let core_caps = vec![self.spec.core_mhz.get(); core_used.len()];
        let cpu_demands = vec![vm.vcpu_mhz.get(); convert::u32_to_usize(vm.vcpus)];
        let cores = combin::first_feasible(&core_used, &core_caps, &cpu_demands)?;

        let disk_used: Vec<u64> = self.disk_used.iter().map(|d| d.get()).collect();
        let disk_caps: Vec<u64> = self.spec.disks.iter().map(|d| d.get()).collect();
        let disk_demands: Vec<u64> = vm.disks().iter().map(|d| d.get()).collect();
        let disks = combin::first_feasible(&disk_used, &disk_caps, &disk_demands)?;
        Some(Assignment::new(cores, disks))
    }

    /// Enumerate one representative assignment per *distinct* resulting
    /// usage profile — every permutation of the VM's request that matters
    /// (Algorithm 2, line 6).
    #[must_use]
    pub fn distinct_feasible(&self, vm: &VmSpec) -> Vec<Assignment> {
        if self.mem_used + vm.memory > self.spec.memory {
            return Vec::new();
        }
        let core_used: Vec<u64> = self.core_used.iter().map(|m| m.get()).collect();
        let core_caps = vec![self.spec.core_mhz.get(); core_used.len()];
        let cpu_demands = vec![vm.vcpu_mhz.get(); convert::u32_to_usize(vm.vcpus)];
        let core_options = combin::distinct_placements(&core_used, &core_caps, &cpu_demands);
        if core_options.is_empty() {
            return Vec::new();
        }

        let disk_used: Vec<u64> = self.disk_used.iter().map(|d| d.get()).collect();
        let disk_caps: Vec<u64> = self.spec.disks.iter().map(|d| d.get()).collect();
        let disk_demands: Vec<u64> = vm.disks().iter().map(|d| d.get()).collect();
        let disk_options = combin::distinct_placements(&disk_used, &disk_caps, &disk_demands);
        if disk_options.is_empty() {
            return Vec::new();
        }

        let mut out = Vec::with_capacity(core_options.len() * disk_options.len());
        for cores in &core_options {
            for disks in &disk_options {
                out.push(Assignment::new(cores.clone(), disks.clone()));
            }
        }
        out
    }

    /// Validate `assignment` for `vm` against shape, anti-collocation and
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidAssignment`] describing the violated
    /// rule.
    pub fn validate(&self, vm: &VmSpec, assignment: &Assignment) -> Result<(), ModelError> {
        let invalid = |reason: &str| ModelError::InvalidAssignment {
            reason: reason.to_string(),
        };
        if assignment.cores.len() != convert::u32_to_usize(vm.vcpus) {
            return Err(invalid("core list length != vCPU count"));
        }
        if assignment.disks.len() != vm.disks().len() {
            return Err(invalid("disk list length != virtual disk count"));
        }
        if !assignment.is_anti_collocated() {
            return Err(invalid("duplicate core or disk index (anti-collocation)"));
        }
        for &c in &assignment.cores {
            if c >= self.core_used.len() {
                return Err(invalid("core index out of range"));
            }
            if self.core_used[c] + vm.vcpu_mhz > self.spec.core_mhz {
                return Err(invalid("core capacity exceeded"));
            }
        }
        if self.mem_used + vm.memory > self.spec.memory {
            return Err(invalid("memory capacity exceeded"));
        }
        for (k, &d) in assignment.disks.iter().enumerate() {
            if d >= self.disk_used.len() {
                return Err(invalid("disk index out of range"));
            }
            if self.disk_used[d] + vm.disks()[k] > self.spec.disks[d] {
                return Err(invalid("disk capacity exceeded"));
            }
        }
        Ok(())
    }

    /// Reserve resources for `vm` under `assignment`.
    ///
    /// # Errors
    ///
    /// Fails if the assignment is invalid or the id is already resident;
    /// the PM is unchanged on error.
    pub fn place(
        &mut self,
        id: VmId,
        vm: VmSpec,
        assignment: Assignment,
    ) -> Result<(), ModelError> {
        self.validate(&vm, &assignment)?;
        if self.vms.contains_key(&id) {
            return Err(ModelError::InvalidAssignment {
                reason: format!("VM {} already resident", id.0),
            });
        }
        for &c in &assignment.cores {
            self.core_used[c] += vm.vcpu_mhz;
        }
        self.mem_used += vm.memory;
        for (k, &d) in assignment.disks.iter().enumerate() {
            self.disk_used[d] += vm.disks()[k];
        }
        self.vms.insert(id, (vm, assignment));
        Ok(())
    }

    /// Release the resources of a resident VM, returning its spec and
    /// assignment.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownVm`] if `id` is not resident.
    pub fn remove(&mut self, id: VmId) -> Result<(VmSpec, Assignment), ModelError> {
        let (vm, assignment) = self.vms.remove(&id).ok_or(ModelError::UnknownVm(id))?;
        for &c in &assignment.cores {
            self.core_used[c] -= vm.vcpu_mhz;
        }
        self.mem_used -= vm.memory;
        for (k, &d) in assignment.disks.iter().enumerate() {
            self.disk_used[d] -= vm.disks()[k];
        }
        Ok((vm, assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn pm() -> Pm {
        Pm::new(catalog::pm_m3())
    }

    #[test]
    fn fresh_pm_is_empty() {
        let pm = pm();
        assert!(pm.is_empty());
        assert_eq!(pm.cpu_utilization(), 0.0);
    }

    #[test]
    fn place_and_remove_round_trip() {
        let mut pm = pm();
        let vm = catalog::vm_m3_xlarge();
        let a = pm.first_feasible(&vm).expect("fits on empty M3");
        pm.place(VmId(1), vm.clone(), a.clone()).unwrap();
        assert_eq!(pm.vm_count(), 1);
        assert_eq!(pm.total_cpu_used(), vm.total_cpu());
        assert_eq!(pm.mem_used(), vm.memory);
        assert_eq!(pm.total_disk_used(), vm.total_disk());

        let (spec, got) = pm.remove(VmId(1)).unwrap();
        assert_eq!(spec, vm);
        assert_eq!(got, a);
        assert!(pm.is_empty());
        assert_eq!(pm.total_cpu_used(), Mhz::ZERO);
        assert_eq!(pm.total_disk_used(), DiskGb::ZERO);
    }

    #[test]
    fn anti_collocation_is_enforced() {
        let pm = pm();
        let vm = catalog::vm_m3_large(); // 2 vCPUs
        let bad = Assignment::new(vec![0, 0], vec![0]);
        assert!(matches!(
            pm.validate(&vm, &bad),
            Err(ModelError::InvalidAssignment { .. })
        ));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let pm = pm();
        let vm = catalog::vm_m3_large();
        let bad = Assignment::new(vec![0], vec![0]); // needs 2 cores
        assert!(pm.validate(&vm, &bad).is_err());
        let bad = Assignment::new(vec![0, 1], vec![]); // needs 1 disk
        assert!(pm.validate(&vm, &bad).is_err());
    }

    #[test]
    fn core_capacity_is_per_core_not_aggregate() {
        // A core holds 2600 MHz; four 650-MHz vCPUs fill one core exactly.
        let spec = PmSpec::new("tiny", 1, Mhz(2600), MemMib(102400), vec![DiskGb(1000)]);
        let mut pm = Pm::new(spec);
        let vm = VmSpec::new("v", 1, Mhz(650), MemMib(1), vec![DiskGb(1)]);
        for i in 0..4 {
            let a = pm.first_feasible(&vm).expect("core has room");
            pm.place(VmId(i), vm.clone(), a).unwrap();
        }
        assert!(pm.first_feasible(&vm).is_none(), "core is full");
        assert!(!pm.has_aggregate_room(&vm));
    }

    #[test]
    fn remove_unknown_vm_errors() {
        let mut pm = pm();
        assert_eq!(pm.remove(VmId(9)), Err(ModelError::UnknownVm(VmId(9))));
    }

    #[test]
    fn double_place_same_id_errors() {
        let mut pm = pm();
        let vm = catalog::vm_m3_medium();
        let a = pm.first_feasible(&vm).unwrap();
        pm.place(VmId(1), vm.clone(), a.clone()).unwrap();
        let a2 = pm.first_feasible(&vm).unwrap();
        assert!(pm.place(VmId(1), vm, a2).is_err());
    }

    #[test]
    fn distinct_feasible_outcomes_are_all_valid() {
        let mut pm = pm();
        let seed = catalog::vm_m3_large();
        let a = pm.first_feasible(&seed).unwrap();
        pm.place(VmId(0), seed, a).unwrap();

        let vm = catalog::vm_c3_xlarge();
        let options = pm.distinct_feasible(&vm);
        assert!(!options.is_empty());
        for opt in &options {
            pm.validate(&vm, opt).expect("enumerated option is valid");
        }
    }

    #[test]
    fn memory_capacity_is_enforced() {
        // C3 has only 7.5 GiB memory: an m3.xlarge (15 GiB) can never fit.
        let pm = Pm::new(catalog::pm_c3());
        let vm = catalog::vm_m3_xlarge();
        assert!(pm.first_feasible(&vm).is_none());
        assert!(pm.distinct_feasible(&vm).is_empty());
        assert!(!pm.has_aggregate_room(&vm));
    }
}
