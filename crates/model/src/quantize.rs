//! Quantization of real-unit specs into the integer profile space.
//!
//! The PageRank score table is computed over a small integer space (the
//! paper's worked examples use capacity 4 per dimension; its GENI experiment
//! uses 4 vCPU slots per core). A [`Quantizer`] maps a PM type to its
//! quantized capacities and each VM type to quantized demands *relative to
//! that PM type*, rounding demands **up** so quantized feasibility is
//! conservative (quantized-feasible implies real-feasible in every
//! per-dimension check up to slot granularity).

use crate::pm::{Pm, PmSpec};
use crate::units::convert;
use crate::vm::VmSpec;
use serde::{Deserialize, Serialize};

/// Resolution of the profile space. See module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Quantizer {
    /// Levels per physical core ("vCPU slots"); the paper's GENI setup uses 4.
    pub core_slots: u64,
    /// Levels for the memory dimension.
    pub mem_levels: u64,
    /// Levels per physical disk.
    pub disk_levels: u64,
}

impl Default for Quantizer {
    /// 4 slots per core (paper §VI-A), 16 memory levels, 4 disk levels,
    /// with ≤ 8 % memory rounding error on every Table I type. For the
    /// Table I/II catalog a traced `perfbench` sim-day run,
    /// `bash perfbench/run.sh --workload sim-day --seed N --seconds 5
    /// --trace 1`, reports `graph.nodes` = 82,287 and `graph.edges` =
    /// 3,309,785, summed over both PM types. Nearly all of it is the m3
    /// PM's graph (82,265 nodes, 3,309,760 edges); the c3 PM's has 22
    /// nodes and 25 edges. The m3 graph builds in ≈ 224 ms: the
    /// `graph_build` cell of `pagerankvm bench --vms 1000 --threads 1
    /// --repeats 9`, median of six processes (release, 2-vCPU host). A
    /// single traced run times one cold build, which spreads too widely
    /// to quote.
    fn default() -> Self {
        Self {
            core_slots: 4,
            mem_levels: 16,
            disk_levels: 4,
        }
    }
}

/// Quantized capacities of a PM type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantizedPm {
    /// Number of cores.
    pub cores: usize,
    /// Slots per core.
    pub core_cap: u64,
    /// Memory capacity in levels; `0` when the PM has no memory dimension
    /// (CPU-only experiments).
    pub mem_cap: u64,
    /// Number of disks.
    pub disks: usize,
    /// Levels per disk; `0` when the PM has no disks.
    pub disk_cap: u64,
}

/// Quantized demands of a VM type relative to one PM type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantizedVm {
    /// VM type name (diagnostics).
    pub name: String,
    /// Number of vCPUs (each goes to a distinct core).
    pub vcpus: usize,
    /// Slots demanded by each vCPU.
    pub vcpu_slots: u64,
    /// Memory demand in levels.
    pub mem_units: u64,
    /// Disk demand in levels, one per virtual disk (sorted descending).
    pub disk_units: Vec<u64>,
}

/// `ceil(value * levels / cap)`, with 0 for an absent dimension.
fn ceil_units(value: u64, cap: u64, levels: u64) -> u64 {
    if cap == 0 || value == 0 {
        0
    } else {
        (value * levels).div_ceil(cap)
    }
}

/// `round(value * levels / cap)`, at least 1 for a positive demand.
///
/// Used for vCPU slots: ceiling would inflate a 0.7 GHz vCPU to two
/// 0.65 GHz slots (+86 %), collapsing the scored space long before the PM
/// is really full. Nearest-rounding keeps the profile faithful; the placer
/// re-validates every candidate against real capacities, so the slight
/// optimism can never admit an infeasible placement.
fn round_units(value: u64, cap: u64, levels: u64) -> u64 {
    if cap == 0 || value == 0 {
        0
    } else {
        ((value * levels + cap / 2) / cap).max(1)
    }
}

impl Quantizer {
    /// Quantize a PM type's capacities.
    ///
    /// # Panics
    ///
    /// Panics if the PM's disks are not homogeneous — the profile space
    /// treats disks as interchangeable, which requires equal capacities
    /// (true of Table II and of every major cloud PM SKU).
    #[must_use]
    pub fn quantize_pm(&self, pm: &PmSpec) -> QuantizedPm {
        let disk_cap = if pm.disks().is_empty() {
            0
        } else {
            let first = pm.disks()[0];
            assert!(
                pm.disks().iter().all(|&d| d == first),
                "profile space requires homogeneous disks"
            );
            self.disk_levels
        };
        QuantizedPm {
            cores: convert::u32_to_usize(pm.cores),
            core_cap: self.core_slots,
            mem_cap: if pm.memory.get() == 0 {
                0
            } else {
                self.mem_levels
            },
            disks: pm.disks().len(),
            disk_cap,
        }
    }

    /// Quantize a VM type's demands relative to `pm`. Memory and disk
    /// round up (conservative); vCPU slots round to nearest.
    #[must_use]
    pub fn quantize_vm(&self, vm: &VmSpec, pm: &PmSpec) -> QuantizedVm {
        let vcpu_slots = round_units(vm.vcpu_mhz.get(), pm.core_mhz.get(), self.core_slots);
        let mem_units = ceil_units(vm.memory.get(), pm.memory.get(), self.mem_levels);
        let disk_cap = pm.disks().first().map_or(0, |d| d.get());
        let mut disk_units: Vec<u64> = vm
            .disks()
            .iter()
            .map(|d| ceil_units(d.get(), disk_cap, self.disk_levels))
            .collect();
        disk_units.sort_unstable_by(|a, b| b.cmp(a));
        QuantizedVm {
            name: vm.name.clone(),
            vcpus: convert::u32_to_usize(vm.vcpus),
            vcpu_slots,
            mem_units,
            disk_units,
        }
    }

    /// The current quantized usage of a live PM: the sum of its resident
    /// VMs' quantized demands, mapped through their assignments.
    ///
    /// Returns `(per-core slots, memory levels, per-disk levels)`. Because
    /// every placement made through the PageRankVM placer is
    /// quantized-feasible, this usage normally stays within the quantized
    /// capacities; fallback placements may exceed them, in which case score
    /// lookups simply miss (documented in DESIGN.md §5).
    ///
    /// Computes each VM's units in place with the same rounding as
    /// [`Self::quantize_vm`], without building a [`QuantizedVm`]: the
    /// placer calls this once per scanned PM. A VM's disks are stored
    /// sorted descending and ceiling is monotone, so the `k`-th disk's
    /// units are the `k`-th entry of `quantize_vm`'s sorted `disk_units`.
    #[must_use]
    pub fn quantized_usage(&self, pm: &Pm) -> (Vec<u64>, u64, Vec<u64>) {
        let spec = pm.spec();
        let disk_cap = spec.disks().first().map_or(0, |d| d.get());
        let mut cores = vec![0u64; convert::u32_to_usize(spec.cores)];
        let mut mem = 0u64;
        let mut disks = vec![0u64; spec.disks().len()];
        for (_, vm, assignment) in pm.vms() {
            let slots = round_units(vm.vcpu_mhz.get(), spec.core_mhz.get(), self.core_slots);
            for &c in &assignment.cores {
                cores[c] += slots;
            }
            mem += ceil_units(vm.memory.get(), spec.memory.get(), self.mem_levels);
            for (&d, size) in assignment.disks.iter().zip(vm.disks()) {
                disks[d] += ceil_units(size.get(), disk_cap, self.disk_levels);
            }
        }
        (cores, mem, disks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::cluster::VmId;
    use crate::units::{DiskGb, MemMib, Mhz};

    #[test]
    fn default_quantization_of_m3_pm() {
        let q = Quantizer::default();
        let pm = q.quantize_pm(&catalog::pm_m3());
        assert_eq!(
            pm,
            QuantizedPm {
                cores: 8,
                core_cap: 4,
                mem_cap: 16,
                disks: 4,
                disk_cap: 4
            }
        );
    }

    #[test]
    fn cpu_only_pm_has_no_mem_or_disk_dimensions() {
        let q = Quantizer::default();
        let pm = q.quantize_pm(&catalog::geni_pm());
        assert_eq!(pm.mem_cap, 0);
        assert_eq!(pm.disks, 0);
    }

    #[test]
    fn vm_demands_round_up() {
        let q = Quantizer::default();
        let m3 = catalog::pm_m3();
        // m3.medium: 600 MHz of a 2600 MHz core at 4 slots -> 1 slot.
        let v = q.quantize_vm(&catalog::vm_m3_medium(), &m3);
        assert_eq!(v.vcpu_slots, 1);
        // 3.75 GiB of 64 GiB at 16 levels -> ceil(0.9375) = 1 level.
        assert_eq!(v.mem_units, 1);
        // 4 GB of 250 GB at 4 levels -> 1 level.
        assert_eq!(v.disk_units, vec![1]);

        // c3 vCPUs are 700 MHz: round(700*4/2600) = 1 slot (nearest).
        let v = q.quantize_vm(&catalog::vm_c3_large(), &m3);
        assert_eq!(v.vcpu_slots, 1);

        // m3.2xlarge: 30 GiB -> ceil(30*16/64) = 8 levels; 80 GB disks ->
        // ceil(80*4/250) = 2 levels each.
        let v = q.quantize_vm(&catalog::vm_m3_2xlarge(), &m3);
        assert_eq!(v.mem_units, 8);
        assert_eq!(v.disk_units, vec![2, 2]);
    }

    #[test]
    fn quantized_usage_sums_resident_vms() {
        let q = Quantizer::default();
        let mut pm = Pm::new(catalog::pm_m3());
        let vm = catalog::vm_m3_xlarge();
        let a = pm.first_feasible(&vm).unwrap();
        pm.place(VmId(0), vm, a.clone()).unwrap();

        let (cores, mem, disks) = q.quantized_usage(&pm);
        assert_eq!(cores.iter().sum::<u64>(), 4); // 4 vCPUs x 1 slot
        assert_eq!(mem, 4); // 15 GiB of 64 at 16 levels -> 4 levels
        assert_eq!(disks.iter().sum::<u64>(), 2); // 2 disks x 1 level
        for &c in &a.cores {
            assert_eq!(cores[c], 1);
        }
    }

    #[test]
    fn quantized_usage_matches_per_vm_quantization() {
        // The in-place sum must equal the sum of `quantize_vm` results
        // mapped through each assignment, for every catalog VM type on
        // every catalog PM type.
        let q = Quantizer::default();
        let vm_types: Vec<VmSpec> = catalog::ec2_vm_types()
            .into_iter()
            .chain(catalog::geni_vm_types())
            .collect();
        let pm_types: Vec<PmSpec> = catalog::ec2_pm_types()
            .into_iter()
            .chain([catalog::geni_pm()])
            .collect();
        // Fill a PM with each type alone, then with all types in turn.
        let mut fills: Vec<Vec<VmSpec>> = vm_types.iter().map(|v| vec![v.clone()]).collect();
        fills.push(vm_types.clone());
        for spec in &pm_types {
            for fill in &fills {
                let mut pm = Pm::new(spec.clone());
                let (mut id, mut turn, mut stuck) = (0, 0, 0);
                while stuck < fill.len() {
                    let vm = &fill[turn % fill.len()];
                    turn += 1;
                    id += 1;
                    match pm.first_feasible(vm) {
                        Some(a) => {
                            pm.place(VmId(id), vm.clone(), a).unwrap();
                            stuck = 0;
                        }
                        None => stuck += 1,
                    }
                }
                let mut cores = vec![0u64; convert::u32_to_usize(spec.cores)];
                let mut mem = 0u64;
                let mut disks = vec![0u64; spec.disks().len()];
                for (_, v, a) in pm.vms() {
                    let qv = q.quantize_vm(v, spec);
                    for &c in &a.cores {
                        cores[c] += qv.vcpu_slots;
                    }
                    mem += qv.mem_units;
                    for (&d, &units) in a.disks.iter().zip(&qv.disk_units) {
                        disks[d] += units;
                    }
                }
                assert_eq!(
                    q.quantized_usage(&pm),
                    (cores, mem, disks),
                    "{} VMs of {} types on {}",
                    pm.vm_count(),
                    fill.len(),
                    spec.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "homogeneous disks")]
    fn heterogeneous_disks_rejected() {
        let pm = PmSpec::new(
            "odd",
            2,
            Mhz(1000),
            MemMib(1024),
            vec![DiskGb(100), DiskGb(200)],
        );
        let _ = Quantizer::default().quantize_pm(&pm);
    }

    #[test]
    fn zero_demand_quantizes_to_zero() {
        let q = Quantizer::default();
        let v = q.quantize_vm(&catalog::geni_vm_2(), &catalog::geni_pm());
        assert_eq!(v.mem_units, 0);
        assert!(v.disk_units.is_empty());
        assert_eq!(v.vcpu_slots, 1); // 1 of 4 "MHz" at 4 slots
    }
}
