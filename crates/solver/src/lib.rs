//! Exact branch-and-bound solver for the paper's placement model (§IV).
//!
//! The paper formulates initial VM allocation as a mixed-integer program —
//! Equ. (1)–(10) are the assignment, anti-collocation and capacity
//! constraints; Equ. (11) minimises the number of powered-on PMs — and
//! argues that branch-and-bound \[22\] is hopeless at datacenter scale,
//! which motivates the PageRankVM heuristic. This crate implements that
//! exact solver for *small* instances so the heuristics can be validated
//! against the true optimum (and so the paper's intractability claim can be
//! demonstrated empirically: see the `solver_scaling` bench).
//!
//! ```
//! use prvm_solver::{solve_min_pms, SolverConfig};
//! use prvm_model::catalog;
//!
//! let pms = vec![catalog::pm_m3(); 3];
//! let vms = vec![catalog::vm_m3_large(); 4];
//! let solution = solve_min_pms(&pms, &vms, &SolverConfig::default()).unwrap();
//! assert_eq!(solution.pm_count, 1); // four m3.large fit one M3
//! assert!(solution.optimal);
//! ```

#![warn(missing_docs)]
#![warn(clippy::expect_used)]

use prvm_model::{first_fit, Assignment, Cluster, PlacementDecision, PmId, PmSpec, VmSpec};
use std::time::{Duration, Instant};

/// Search limits. The solver is exact when it finishes within them;
/// otherwise it reports the best solution found with `optimal = false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum branch-and-bound nodes to expand.
    pub max_nodes: u64,
    /// Wall-clock budget.
    pub time_limit: Duration,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            max_nodes: 2_000_000,
            time_limit: Duration::from_secs(10),
        }
    }
}

/// An exact (or best-found) solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Number of PMs powered on — the objective of Equ. (11) with unit
    /// costs.
    pub pm_count: usize,
    /// Placement per VM, in input order.
    pub placements: Vec<(PmId, Assignment)>,
    /// `true` if the search space was exhausted (proven optimal).
    pub optimal: bool,
    /// Branch-and-bound nodes expanded.
    pub nodes_explored: u64,
}

/// Minimise the number of PMs hosting `vms`, subject to per-core,
/// per-disk, memory and anti-collocation constraints.
///
/// Returns `None` when no feasible assignment exists at all.
#[must_use]
pub fn solve_min_pms(
    pm_specs: &[PmSpec],
    vms: &[VmSpec],
    config: &SolverConfig,
) -> Option<Solution> {
    // Order VMs by decreasing footprint: large items first prunes earlier.
    let mut order: Vec<usize> = (0..vms.len()).collect();
    order.sort_by(|&a, &b| {
        let key = |v: &VmSpec| {
            v.total_cpu().get() as f64 / 1000.0
                + v.memory.get() as f64 / 1024.0
                + v.total_disk().get() as f64 / 100.0
        };
        key(&vms[b]).total_cmp(&key(&vms[a]))
    });

    let mut search = Search {
        vms,
        order,
        cluster: Cluster::from_specs(pm_specs.iter().cloned()),
        best: None,
        best_count: pm_specs.len() + 1,
        nodes: 0,
        config: *config,
        started: Instant::now(),
        exhausted: true,
        current: vec![None; vms.len()],
    };
    search.greedy_incumbent();
    search.dfs(0);

    let best = search.best?;
    Some(Solution {
        pm_count: search.best_count,
        placements: best,
        optimal: search.exhausted,
        nodes_explored: search.nodes,
    })
}

struct Search<'a> {
    vms: &'a [VmSpec],
    order: Vec<usize>,
    cluster: Cluster,
    best: Option<Vec<(PmId, Assignment)>>,
    best_count: usize,
    nodes: u64,
    config: SolverConfig,
    started: Instant,
    exhausted: bool,
    current: Vec<Option<(PmId, Assignment)>>,
}

impl Search<'_> {
    /// Seed the incumbent with a first-fit solution so pruning bites
    /// immediately.
    fn greedy_incumbent(&mut self) {
        let mut cluster = Cluster::from_specs(self.cluster.pms().iter().map(|p| p.spec().clone()));
        let mut placements = vec![None; self.vms.len()];
        for &vi in &self.order.clone() {
            let vm = &self.vms[vi];
            match first_fit(&cluster, cluster.used_then_unused(), vm, &|_| false) {
                Some(PlacementDecision { pm, assignment }) => {
                    let placed = cluster.place(pm, vm.clone(), assignment.clone());
                    if placed.is_err() {
                        debug_assert!(false, "first_feasible assignment places");
                        return; // no incumbent; search decides feasibility
                    }
                    placements[vi] = Some((pm, assignment));
                }
                None => return, // no incumbent; search decides feasibility
            }
        }
        let Some(best) = placements.into_iter().collect::<Option<Vec<_>>>() else {
            debug_assert!(false, "the loop above placed every VM");
            return;
        };
        self.best_count = cluster.active_pm_count();
        self.best = Some(best);
    }

    fn out_of_budget(&mut self) -> bool {
        if self.nodes >= self.config.max_nodes || self.started.elapsed() >= self.config.time_limit {
            self.exhausted = false;
            true
        } else {
            false
        }
    }

    /// A valid lower bound on additional PMs: remaining aggregate demand
    /// over the largest single-PM capacity, by the loosest dimension.
    fn lower_bound(&self, depth: usize) -> usize {
        let mut cpu = 0u64;
        let mut mem = 0u64;
        let mut disk = 0u64;
        for &vi in &self.order[depth..] {
            let vm = &self.vms[vi];
            cpu += vm.total_cpu().get();
            mem += vm.memory.get();
            disk += vm.total_disk().get();
        }
        // Free capacity on already-used PMs counts toward the remainder.
        let mut free_cpu = 0u64;
        let mut free_mem = 0u64;
        let mut free_disk = 0u64;
        for pm in self.cluster.used_pms() {
            let pm = self.cluster.pm(pm);
            free_cpu += pm.spec().total_cpu().get() - pm.total_cpu_used().get();
            free_mem += pm.spec().memory.get() - pm.mem_used().get();
            free_disk += pm.spec().total_disk().get() - pm.total_disk_used().get();
        }
        let (mut max_cpu, mut max_mem, mut max_disk) = (0u64, 0u64, 0u64);
        for pm in self.cluster.unused_pms() {
            let spec = self.cluster.pm(pm).spec();
            max_cpu = max_cpu.max(spec.total_cpu().get());
            max_mem = max_mem.max(spec.memory.get());
            max_disk = max_disk.max(spec.total_disk().get());
        }
        let need = |demand: u64, free: u64, per_pm: u64| -> usize {
            let rem = demand.saturating_sub(free);
            if rem == 0 {
                0
            } else if per_pm == 0 {
                usize::MAX / 2
            } else {
                rem.div_ceil(per_pm) as usize
            }
        };
        need(cpu, free_cpu, max_cpu)
            .max(need(mem, free_mem, max_mem))
            .max(need(disk, free_disk, max_disk))
    }

    fn dfs(&mut self, depth: usize) {
        if self.out_of_budget() {
            return;
        }
        self.nodes += 1;

        let used = self.cluster.active_pm_count();
        if used + self.lower_bound(depth) >= self.best_count {
            return; // cannot beat the incumbent
        }
        if depth == self.order.len() {
            // All placed: strictly better by the bound check above.
            let Some(best) = self.current.iter().cloned().collect::<Option<Vec<_>>>() else {
                debug_assert!(false, "assignment is complete at full depth");
                return;
            };
            self.best_count = used;
            self.best = Some(best);
            return;
        }

        let vi = self.order[depth];
        let vm = self.vms[vi].clone();

        // Candidates: every used PM, plus ONE unused PM per distinct spec
        // (unused PMs of equal spec are interchangeable — symmetry break).
        let mut candidates: Vec<PmId> = self.cluster.used_pms().collect();
        let mut seen_specs: Vec<PmSpec> = Vec::new();
        for pm in self.cluster.unused_pms() {
            let spec = self.cluster.pm(pm).spec().clone();
            if !seen_specs.contains(&spec) {
                seen_specs.push(spec);
                candidates.push(pm);
            }
        }

        for pm in candidates {
            for assignment in self.cluster.pm(pm).distinct_feasible(&vm) {
                let Ok(id) = self.cluster.place(pm, vm.clone(), assignment.clone()) else {
                    debug_assert!(false, "enumerated assignment is valid");
                    continue;
                };
                self.current[vi] = Some((pm, assignment));
                self.dfs(depth + 1);
                self.current[vi] = None;
                let removed = self.cluster.remove(id);
                debug_assert!(removed.is_ok(), "just-placed VM removes cleanly");
                if self.out_of_budget() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_model::catalog;

    #[test]
    fn single_vm_uses_one_pm() {
        let s = solve_min_pms(
            [catalog::pm_m3(); 1].as_ref(),
            &[catalog::vm_m3_medium()],
            &SolverConfig::default(),
        )
        .unwrap();
        assert_eq!(s.pm_count, 1);
        assert!(s.optimal);
        assert_eq!(s.placements.len(), 1);
    }

    #[test]
    fn memory_forces_two_pms() {
        // Three m3.2xlarge: 30 GiB each, M3 holds 64 GiB -> two per PM.
        let s = solve_min_pms(
            &vec![catalog::pm_m3(); 3],
            &vec![catalog::vm_m3_2xlarge(); 3],
            &SolverConfig::default(),
        )
        .unwrap();
        assert_eq!(s.pm_count, 2);
        assert!(s.optimal);
    }

    #[test]
    fn infeasible_returns_none_solution_with_no_placements() {
        // An m3.xlarge (15 GiB) cannot fit a C3 (7.5 GiB).
        let s = solve_min_pms(
            &vec![catalog::pm_c3(); 2],
            &[catalog::vm_m3_xlarge()],
            &SolverConfig::default(),
        );
        assert!(s.is_none());
    }

    #[test]
    fn solution_respects_anti_collocation() {
        let pms = vec![catalog::pm_m3(); 2];
        let vms = vec![catalog::vm_c3_xlarge(), catalog::vm_m3_large()];
        let s = solve_min_pms(&pms, &vms, &SolverConfig::default()).unwrap();
        let mut cluster = Cluster::from_specs(pms);
        for (i, (pm, a)) in s.placements.iter().enumerate() {
            assert!(a.is_anti_collocated());
            cluster
                .place(*pm, vms[i].clone(), a.clone())
                .expect("solver placements replay cleanly");
        }
        assert_eq!(cluster.active_pm_count(), s.pm_count);
    }

    #[test]
    fn optimum_beats_or_matches_greedy() {
        // A mix where first-fit wastes a PM: big VMs after small ones.
        let pms = vec![catalog::pm_m3(); 4];
        let vms = vec![
            catalog::vm_m3_medium(),
            catalog::vm_m3_2xlarge(),
            catalog::vm_m3_medium(),
            catalog::vm_m3_2xlarge(),
            catalog::vm_m3_medium(),
        ];
        let s = solve_min_pms(&pms, &vms, &SolverConfig::default()).unwrap();
        // Memory: 2 x 30 + 3 x 3.75 = 71.25 GiB > 64 -> at least 2 PMs;
        // exactly 2 suffice.
        assert_eq!(s.pm_count, 2);
        assert!(s.optimal);
    }

    #[test]
    fn budget_exhaustion_reports_non_optimal() {
        // 14 c3.large need 2 M3s (per-core vCPU slots), but the aggregate
        // lower bound says 1 — the bound gap forces real search, which the
        // 5-node budget cuts short.
        let pms = vec![catalog::pm_m3(); 3];
        let vms = vec![catalog::vm_c3_large(); 14];
        let s = solve_min_pms(
            &pms,
            &vms,
            &SolverConfig {
                max_nodes: 5,
                time_limit: Duration::from_secs(10),
            },
        )
        .unwrap();
        assert!(!s.optimal);
        assert!(s.pm_count >= 2, "greedy incumbent still reported");
    }

    #[test]
    fn heterogeneous_pool_prefers_fewer_pms_not_specific_types() {
        // One C3 + one M3; two c3.large fit the C3 exactly (memory), or
        // the M3 — either way one PM suffices.
        let pms = vec![catalog::pm_c3(), catalog::pm_m3()];
        let vms = vec![catalog::vm_c3_large(); 2];
        let s = solve_min_pms(&pms, &vms, &SolverConfig::default()).unwrap();
        assert_eq!(s.pm_count, 1);
    }
}
