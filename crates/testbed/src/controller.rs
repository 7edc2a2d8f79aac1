//! The centralized controller (the paper's extra GENI instance "responsible
//! for running the VM placement algorithms to assign the jobs").
//!
//! The controller keeps where each job runs in one place, a mirror
//! [`Cluster`], and what each job demands in a trace table indexed by job
//! id. It drives virtual time in 10-second ticks, asks each [`NodeAgent`]
//! whether its node answers, computes each answering node's demand from
//! the mirror and the traces, and performs kill-and-restart migrations off
//! overloaded nodes.
//!
//! ## Failure handling
//!
//! The controller degrades instead of panicking (DESIGN.md §9): losing
//! contact with a node is a typed [`ControllerError`] naming the node, the
//! node is **quarantined** — its mirror capacity withdrawn, its jobs
//! re-placed through the same placement algorithm — and a quarantined node
//! that reports again is readmitted empty. The only panic left is for a
//! genuine bug: the mirror rejecting the algorithm's own decision. On the
//! paper path (no [`FaultPlan`]) every agent answers every tick.

use crate::node::NodeAgent;
use crate::{TestbedConfig, TestbedOutcome};
use pagerankvm::audit::debug_check_cluster;
use prvm_faults::FaultPlan;
use prvm_model::units::convert;
use prvm_model::{
    catalog, next_migration, Cluster, EvictionPolicy, Mhz, PlacementAlgorithm, PlacementDecision,
    PmId, ScanDemand, VmId, VmSpec, SLO_THRESHOLD,
};
use prvm_obs::event;
use prvm_traces::{generate, Trace, TraceKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Why the controller lost contact with a node agent. Every variant names
/// the node, so logs and quarantine events always say *which* agent went
/// away — not just that one did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerError {
    /// The agent has died and refuses every call.
    NodeDisconnected {
        /// Index of the dead node.
        node: usize,
    },
    /// The agent stayed silent at a tick.
    NodeTimeout {
        /// Index of the unresponsive node.
        node: usize,
        /// Scan (virtual time step) at which the controller gave up.
        scan: usize,
    },
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NodeDisconnected { node } => {
                write!(f, "node {node} disconnected: agent refuses calls")
            }
            Self::NodeTimeout { node, scan } => {
                write!(f, "node {node} timed out at scan {scan}")
            }
        }
    }
}

impl std::error::Error for ControllerError {}

impl ControllerError {
    /// The node the controller lost contact with.
    fn node(&self) -> usize {
        match *self {
            Self::NodeDisconnected { node } | Self::NodeTimeout { node, .. } => node,
        }
    }
}

/// Controller-side liveness state of one node agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Reporting normally.
    Up,
    /// Unresponsive: capacity withdrawn, jobs re-placed; may rejoin.
    Quarantined,
    /// Agent dead: never coming back.
    Dead,
}

/// Mutable controller state shared by the scan loop and the
/// failure-recovery paths.
struct Supervisor {
    agents: Vec<NodeAgent>,
    state: Vec<NodeState>,
    /// Where every live job runs, with its spec and pinned cores: the
    /// testbed's only placement record.
    mirror: Cluster,
    node_failures: usize,
    rejoined_nodes: usize,
    replaced_jobs: usize,
    lost_jobs: usize,
}

impl Supervisor {
    /// Apply `d` to the mirror and start job `vm` on the destination
    /// agent. `Err` means that agent is dead: the job then sits on it in
    /// the mirror until the caller drains the node.
    fn start_on(
        &mut self,
        vm: VmId,
        spec: VmSpec,
        d: PlacementDecision,
    ) -> Result<(), ControllerError> {
        self.mirror
            .place_as(vm, d.pm, spec, d.assignment)
            .unwrap_or_else(|e| panic!("algorithm decision rejected by mirror: {e}"));
        self.agents[d.pm.0].alive()
    }

    /// Restart job `vm`, already out of the mirror, wherever `placer` puts
    /// it (no exclusions), or count it lost when nothing fits. `Err` names
    /// a dead destination that still has to be drained.
    fn replace(
        &mut self,
        vm: VmId,
        spec: VmSpec,
        from: usize,
        scan: usize,
        placer: &mut dyn PlacementAlgorithm,
    ) -> Result<(), ControllerError> {
        let Some(d) = placer.choose(&self.mirror, &spec, &|_| false) else {
            self.lost_jobs += 1;
            event("testbed.job_lost")
                .field("job", vm.0)
                .field("from", from)
                .field("scan", scan)
                .emit();
            return Ok(());
        };
        let to = d.pm.0;
        self.start_on(vm, spec, d)?;
        self.replaced_jobs += 1;
        event("testbed.job_replaced")
            .field("job", vm.0)
            .field("from", from)
            .field("to", to)
            .field("scan", scan)
            .emit();
        Ok(())
    }

    /// Withdraw the failed node's capacity and re-place its resident jobs
    /// through `placer`. A destination that turns out dead mid-hand-off is
    /// failed over too: cascades drain through the worklist instead of
    /// recursing.
    fn quarantine(
        &mut self,
        err: ControllerError,
        scan: usize,
        placer: &mut dyn PlacementAlgorithm,
    ) {
        let mut worklist = vec![err];
        while let Some(err) = worklist.pop() {
            let n = err.node();
            let n_dead = matches!(err, ControllerError::NodeDisconnected { .. });
            let before = self.state[n];
            if before == NodeState::Dead {
                continue;
            }
            self.state[n] = if n_dead {
                NodeState::Dead
            } else {
                NodeState::Quarantined
            };
            if before == NodeState::Quarantined {
                // Capacity already withdrawn; at most it is now known to
                // never rejoin.
                continue;
            }
            self.node_failures += 1;
            prvm_obs::counter!("testbed.node_failures");
            event("testbed.node_quarantined")
                .field("node", n)
                .field("scan", scan)
                .field("dead", n_dead)
                .emit();

            let pm = PmId(n);
            let victims = self.mirror.resident_vms(pm);
            debug_assert!(!self.mirror.is_down(pm), "quarantined node already down");
            let down = self.mirror.mark_down(pm);
            debug_assert!(down.is_ok(), "node index is in range");
            for vm in victims {
                let Ok((_, spec, _)) = self.mirror.remove(vm) else {
                    debug_assert!(false, "resident job {} vanished", vm.0);
                    continue;
                };
                // A dead destination keeps the job in the mirror; draining
                // it re-places the job again.
                if let Err(dead) = self.replace(vm, spec, n, scan, placer) {
                    worklist.push(dead);
                }
            }
        }
    }

    /// A quarantined node answered the current tick: readmit it. Its jobs
    /// were already re-placed, so its capacity returns empty.
    fn rejoin(&mut self, node: usize, scan: usize) {
        debug_assert_eq!(self.state[node], NodeState::Quarantined);
        self.state[node] = NodeState::Up;
        let up = self.mirror.mark_up(PmId(node));
        debug_assert!(up.is_ok(), "node index is in range");
        self.rejoined_nodes += 1;
        event("testbed.node_rejoined")
            .field("node", node)
            .field("scan", scan)
            .emit();
    }
}

/// CPU demand at scan `t` of a job with `vcpus` vCPUs and utilization
/// `trace`, in slot units (one slot is one `Mhz`): each vCPU bursts up to a
/// full core of `slots_per_core`, scaled by the trace.
fn job_demand(trace: &Trace, vcpus: u32, slots_per_core: u64, t: usize) -> Mhz {
    let per_vcpu = trace.at(t) * slots_per_core as f64;
    Mhz((per_vcpu * f64::from(vcpus)).round() as u64)
}

/// Run the full testbed experiment: `n_jobs` jobs placed and supervised by
/// `placer`/`evictor` for the configured duration, with node agents
/// killed or stalled per `faults`' [`prvm_faults::AgentFault`]s.
///
/// Fully deterministic under `seed` and `faults`. The controller
/// quarantines unresponsive nodes (withdrawing their mirror capacity and
/// re-placing their jobs), readmits nodes that report again, and always
/// returns a complete — possibly degraded — [`TestbedOutcome`]. With
/// [`FaultPlan::none`] every node answers every tick: that is the paper
/// path.
///
/// # Panics
///
/// Panics only if the mirror cluster rejects a placement decision (a bug,
/// not an expected runtime condition).
#[must_use]
pub fn run_testbed(
    cfg: &TestbedConfig,
    n_jobs: usize,
    placer: &mut dyn PlacementAlgorithm,
    evictor: &mut dyn EvictionPolicy,
    seed: u64,
    faults: &FaultPlan,
) -> TestbedOutcome {
    let scans = cfg.scans();
    let mut rng = StdRng::seed_from_u64(seed);

    let mut sup = Supervisor {
        agents: (0..cfg.nodes)
            .map(|node| NodeAgent::new(node, faults.agent_fault(node)))
            .collect(),
        state: vec![NodeState::Up; cfg.nodes],
        mirror: Cluster::homogeneous(cfg.pm_spec(), cfg.nodes),
        node_failures: 0,
        rejoined_nodes: 0,
        replaced_jobs: 0,
        lost_jobs: 0,
    };

    // --- Generate and place the jobs --------------------------------------
    // Job ids are `0..placed`, minted in order by the mirror, so the trace
    // of job `id` is `traces[id]`. A rejected job's trace is drawn (keeping
    // the RNG stream) and dropped.
    let mut traces: Vec<Trace> = Vec::with_capacity(n_jobs);
    let mut rejected = 0usize;
    let mut specs: Vec<_> = (0..n_jobs)
        .map(|_| {
            if rng.gen_bool(0.5) {
                catalog::geni_vm_2()
            } else {
                catalog::geni_vm_4()
            }
        })
        .collect();
    placer.order_batch(&mut specs);
    for spec in specs {
        let trace = generate(TraceKind::GoogleCluster, scans.max(1), &mut rng)
            .scaled(cfg.utilization_scale);
        let Some(d) = placer.choose(&sup.mirror, &spec, &|_| false) else {
            rejected += 1;
            continue;
        };
        let id = VmId(sup.mirror.next_vm_id());
        debug_assert_eq!(convert::u64_to_usize(id.0), Some(traces.len()));
        traces.push(trace);
        // Agents die only at a tick, so none refuses a job here.
        let started = sup.start_on(id, spec, d);
        debug_assert!(started.is_ok(), "agent died before the first tick");
    }
    let pms_used_initial = sup.mirror.active_pm_count();

    // --- Scan loop ---------------------------------------------------------
    let cap = cfg.pm_spec().total_cpu();
    let mut migrations = 0usize;
    let mut overload_events = 0usize;
    let mut slo_samples = 0usize;
    let mut active_samples = 0usize;
    // Dense per-scan state, sized once and reset every scan: demand by job
    // id, demand, report and overload flags by node. One slot is one `Mhz`.
    let mut vm_demand = vec![Mhz::ZERO; traces.len()];
    let mut node_demand = vec![Mhz::ZERO; cfg.nodes];
    let mut reported = vec![false; cfg.nodes];
    let mut overloaded = vec![false; cfg.nodes];

    for t in 0..scans {
        // Tick every non-dead node in index order and, at its turn, add up
        // the demands of the jobs the mirror places on each `Up` one.
        // Quarantined nodes still get ticks so a merely stalled agent can
        // answer and rejoin. A dead agent is drained at once, so the nodes
        // ticked after it see its re-placed jobs.
        vm_demand.fill(Mhz::ZERO);
        node_demand.fill(Mhz::ZERO);
        reported.fill(false);
        for node in 0..cfg.nodes {
            if sup.state[node] == NodeState::Dead {
                continue;
            }
            match sup.agents[node].tick(t) {
                Ok(true) => reported[node] = true,
                Ok(false) => continue,
                Err(dead) => {
                    sup.quarantine(dead, t, placer);
                    continue;
                }
            }
            if sup.state[node] != NodeState::Up {
                continue;
            }
            for (id, spec, _) in sup.mirror.pm(PmId(node)).vms() {
                let Some(slot) = convert::u64_to_usize(id.0) else {
                    continue;
                };
                let d = job_demand(&traces[slot], spec.vcpus, cfg.slots_per_core, t);
                node_demand[node] += d;
                vm_demand[slot] = d;
            }
        }
        // Readmit (empty) every quarantined node that answered, then
        // quarantine every `Up` node that stayed silent.
        for (node, &answered) in reported.iter().enumerate() {
            if answered && sup.state[node] == NodeState::Quarantined {
                sup.rejoin(node, t);
            }
        }
        for (node, &answered) in reported.iter().enumerate() {
            if !answered && sup.state[node] == NodeState::Up {
                sup.quarantine(ControllerError::NodeTimeout { node, scan: t }, t, placer);
            }
        }

        // SLO + overload accounting over *active* nodes. Jobs lost to
        // capacity exhaustion keep violating their SLO every scan.
        let mut any_overloaded = false;
        for (node, flag) in overloaded.iter_mut().enumerate() {
            *flag = false;
            if sup.state[node] != NodeState::Up || sup.mirror.pm(PmId(node)).is_empty() {
                continue;
            }
            active_samples += 1;
            let util = node_demand[node].fraction_of(cap);
            if util >= SLO_THRESHOLD {
                slo_samples += 1;
            }
            *flag = util > cfg.overload_threshold;
            any_overloaded |= *flag;
        }
        active_samples += sup.lost_jobs;
        slo_samples += sup.lost_jobs;
        if any_overloaded {
            overload_events += 1;
        }

        // Kill-and-restart migrations.
        for src in 0..cfg.nodes {
            if !overloaded[src] || sup.state[src] != NodeState::Up {
                continue;
            }
            loop {
                let demand = ScanDemand {
                    threshold: cfg.overload_threshold,
                    pm: &node_demand,
                    overloaded: &overloaded,
                    vm: &vm_demand,
                };
                // The destination is chosen BEFORE killing, so an
                // unplaceable job is never interrupted.
                let Some(m) = next_migration(&mut sup.mirror, PmId(src), demand, evictor, placer)
                else {
                    break;
                };
                // Kill on the source (`next_migration` took the job out of
                // the mirror), restart on the destination. The destination
                // answered this tick, and agents die only at a tick.
                let dest = m.to.pm.0;
                let started = sup.start_on(m.vm, m.spec, m.to);
                debug_assert!(started.is_ok(), "node {dest} died between ticks");
                migrations += 1;
                node_demand[dest] += m.demand;
                node_demand[src] = node_demand[src].saturating_sub(m.demand);
            }
        }
        debug_check_cluster(&sup.mirror, "a testbed scan");
    }

    TestbedOutcome {
        pms_used_initial,
        pms_used: sup.mirror.ever_used_count(),
        migrations,
        slo_violation_pct: if active_samples == 0 {
            0.0
        } else {
            100.0 * slo_samples as f64 / active_samples as f64
        },
        overload_events,
        rejected_jobs: rejected,
        node_failures: sup.node_failures,
        rejoined_nodes: sup.rejoined_nodes,
        replaced_jobs: sup.replaced_jobs,
        lost_jobs: sup.lost_jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_baselines::{FirstFit, MinimumMigrationTime};

    fn quick_cfg() -> TestbedConfig {
        TestbedConfig {
            duration_s: 300, // 30 ticks
            ..TestbedConfig::default()
        }
    }

    fn run_ff(cfg: &TestbedConfig, n_jobs: usize, seed: u64) -> TestbedOutcome {
        run_testbed(
            cfg,
            n_jobs,
            &mut FirstFit::new(),
            &mut MinimumMigrationTime::new(),
            seed,
            &FaultPlan::none(),
        )
    }

    #[test]
    fn testbed_is_deterministic() {
        let cfg = quick_cfg();
        assert_eq!(run_ff(&cfg, 50, 3), run_ff(&cfg, 50, 3));
    }

    #[test]
    fn jobs_fit_and_nodes_are_used() {
        let cfg = quick_cfg();
        let o = run_ff(&cfg, 100, 1);
        assert_eq!(o.rejected_jobs, 0);
        assert!(o.pms_used >= 1 && o.pms_used <= cfg.nodes);
    }

    #[test]
    fn more_jobs_use_at_least_as_many_nodes() {
        let cfg = quick_cfg();
        let small = run_ff(&cfg, 50, 7);
        let large = run_ff(&cfg, 250, 7);
        assert!(large.pms_used >= small.pms_used);
    }

    #[test]
    fn hot_workload_triggers_kill_restart_migrations() {
        // Unscaled traces + low overload threshold: FirstFit's packing
        // must overload and migrate.
        let cfg = TestbedConfig {
            duration_s: 600,
            utilization_scale: 1.0,
            overload_threshold: 0.25,
            ..TestbedConfig::default()
        };
        let o = run_ff(&cfg, 120, 11);
        assert!(o.overload_events > 0, "{o:?}");
        assert!(o.migrations > 0, "{o:?}");
    }

    #[test]
    fn slo_percentage_is_bounded() {
        let o = run_ff(&quick_cfg(), 150, 5);
        assert!((0.0..=100.0).contains(&o.slo_violation_pct));
    }

    #[test]
    fn job_demand_bursts_each_vcpu_to_a_full_core() {
        // 2 vCPUs x 0.5 x 32 = 32; 2 x 0.25 x 32 = 16; 4 x 0.25 x 32 = 32.
        assert_eq!(job_demand(&Trace::constant(0.5, 8), 2, 32, 0), Mhz(32));
        assert_eq!(job_demand(&Trace::constant(0.25, 8), 2, 32, 7), Mhz(16));
        assert_eq!(job_demand(&Trace::constant(0.25, 8), 4, 32, 3), Mhz(32));
    }

    #[test]
    fn controller_errors_name_the_node() {
        let disc = ControllerError::NodeDisconnected { node: 7 };
        assert!(disc.to_string().contains("node 7"), "{disc}");
        let slow = ControllerError::NodeTimeout { node: 3, scan: 12 };
        let msg = slow.to_string();
        assert!(msg.contains("node 3") && msg.contains("scan 12"), "{msg}");
    }
}
