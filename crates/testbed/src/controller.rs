//! The centralized controller (the paper's extra GENI instance "responsible
//! for running the VM placement algorithms to assign the jobs").
//!
//! The controller keeps a mirror [`Cluster`] for placement decisions,
//! drives virtual time in 10-second ticks, collects per-node status over
//! channels, and performs kill-and-restart migrations off overloaded nodes.
//!
//! ## Failure handling
//!
//! Early versions panicked the moment any agent channel misbehaved. The
//! controller now degrades instead (DESIGN.md §9): losing contact with a
//! node is a typed [`ControllerError`] naming the node, the node is
//! **quarantined** — its mirror capacity withdrawn, its jobs re-placed
//! through the same placement algorithm — and a quarantined node that
//! reports again is reset and readmitted. The only panics left are for
//! genuine bugs (the mirror rejecting the algorithm's own decision). On
//! the paper path (no [`FaultPlan`]) nothing times out and the run is
//! byte-identical to the pre-fault-layer controller.

use crate::messages::{JobHandle, ToController, ToNode};
use crate::node::NodeAgent;
use crate::{TestbedConfig, TestbedOutcome};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use prvm_faults::FaultPlan;
use prvm_model::units::convert;
use prvm_model::{
    catalog, next_migration, Cluster, EvictionPolicy, Mhz, PlacementAlgorithm, PlacementDecision,
    PmId, ScanDemand, VmId, SLO_THRESHOLD,
};
use prvm_obs::event;
use prvm_traces::{generate, TraceKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Why the controller lost contact with a node agent. Every variant names
/// the node, so logs and quarantine events always say *which* agent went
/// away — not just that one did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerError {
    /// The agent's channel endpoint is closed: its thread exited.
    NodeDisconnected {
        /// Index of the node whose agent hung up.
        node: usize,
    },
    /// The agent failed to report within [`TestbedConfig::node_timeout_ms`].
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
                write!(f, "node {node} disconnected: agent channel closed")
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
    /// Channel disconnected: never coming back.
    Dead,
}

/// Send to one agent. `Err` means the agent thread is gone; the caller
/// decides whether that is a fault to absorb or a bug to surface.
fn send_to_agent(tx: &Sender<ToNode>, node: usize, msg: ToNode) -> Result<(), ControllerError> {
    tx.send(msg)
        .map_err(|_| ControllerError::NodeDisconnected { node })
}

/// Which node a controller-bound message came from.
fn message_source(msg: &ToController) -> usize {
    match msg {
        ToController::Status { node, .. } | ToController::Killed { node, .. } => *node,
    }
}

/// Receive the next controller-bound message: buffered messages (kept
/// aside by a rejoin drain) first, then the live channel under the
/// remaining deadline budget.
fn next_message(
    pending: &mut VecDeque<ToController>,
    from_nodes: &Receiver<ToController>,
    remaining: Duration,
) -> Result<ToController, RecvTimeoutError> {
    if let Some(msg) = pending.pop_front() {
        return Ok(msg);
    }
    from_nodes.recv_timeout(remaining)
}

/// Mutable controller state shared by the scan loop and the
/// failure-recovery paths.
struct Supervisor {
    to_nodes: Vec<Sender<ToNode>>,
    state: Vec<NodeState>,
    mirror: Cluster,
    /// Last-known handle of every live job, so jobs on a dead node can be
    /// restarted elsewhere without the agent's cooperation.
    registry: HashMap<VmId, JobHandle>,
    node_failures: usize,
    rejoined_nodes: usize,
    replaced_jobs: usize,
    lost_jobs: usize,
}

impl Supervisor {
    /// Apply `d` to the mirror, record `job`'s new handle and start it on
    /// the destination agent. `Err` means that agent is dead: the job then
    /// sits on it in the mirror until the caller drains the node.
    fn start_on(&mut self, job: JobHandle, d: PlacementDecision) -> Result<(), ControllerError> {
        self.mirror
            .place_as(job.id, d.pm, job.spec.clone(), d.assignment.clone())
            .unwrap_or_else(|e| panic!("algorithm decision rejected by mirror: {e}"));
        let handle = JobHandle {
            assignment: d.assignment,
            ..job
        };
        self.registry.insert(handle.id, handle.clone());
        send_to_agent(&self.to_nodes[d.pm.0], d.pm.0, ToNode::Start(handle))
    }

    /// Restart registered job `vm`, already out of the mirror, wherever
    /// `placer` puts it (no exclusions), or count it lost when nothing
    /// fits. `Err` names a dead destination that still has to be drained.
    fn replace(
        &mut self,
        vm: VmId,
        from: usize,
        scan: usize,
        placer: &mut dyn PlacementAlgorithm,
    ) -> Result<(), ControllerError> {
        let Some(job) = self.registry.get(&vm).cloned() else {
            debug_assert!(false, "job {} missing from the registry", vm.0);
            self.lost_jobs += 1;
            return Ok(());
        };
        let Some(d) = placer.choose(&self.mirror, &job.spec, &|_| false) else {
            self.lost_jobs += 1;
            self.registry.remove(&vm);
            event("testbed.job_lost")
                .field("job", vm.0)
                .field("from", from)
                .field("scan", scan)
                .emit();
            return Ok(());
        };
        let to = d.pm.0;
        self.start_on(job, d)?;
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
                if self.mirror.remove(vm).is_err() {
                    debug_assert!(false, "resident job {} vanished", vm.0);
                    continue;
                }
                // A dead destination keeps the job in the mirror; draining
                // it re-places the job again.
                if let Err(dead) = self.replace(vm, n, scan, placer) {
                    worklist.push(dead);
                }
            }
        }
    }

    /// A quarantined node reported again with a current-scan status:
    /// readmit it. Its jobs were already re-placed, so the agent is reset
    /// to empty before its capacity returns.
    ///
    /// Before `Reset` is sent, every in-flight message is drained from
    /// the shared channel: anything this node sent before it sees the
    /// reset (stale statuses from its tick backlog, late kill acks) is
    /// void and must not linger to be misread by a later handshake loop.
    /// Previously those leftovers were absorbed only when a
    /// `recv_timeout` happened to expire past them — a flaky-by-design
    /// window. Messages from *other* nodes are kept, in order, in
    /// `pending` for the caller to process normally.
    fn rejoin(
        &mut self,
        node: usize,
        scan: usize,
        placer: &mut dyn PlacementAlgorithm,
        from_nodes: &Receiver<ToController>,
        pending: &mut VecDeque<ToController>,
    ) {
        debug_assert_eq!(self.state[node], NodeState::Quarantined);
        pending.retain(|msg| message_source(msg) != node);
        while let Ok(msg) = from_nodes.try_recv() {
            if message_source(&msg) != node {
                pending.push_back(msg);
            }
        }
        match send_to_agent(&self.to_nodes[node], node, ToNode::Reset) {
            Ok(()) => {
                self.state[node] = NodeState::Up;
                let up = self.mirror.mark_up(PmId(node));
                debug_assert!(up.is_ok(), "node index is in range");
                self.rejoined_nodes += 1;
                event("testbed.node_rejoined")
                    .field("node", node)
                    .field("scan", scan)
                    .emit();
            }
            Err(err) => {
                // Died between its status and our reset; it holds no
                // jobs, so this only finalizes the state.
                self.quarantine(err, scan, placer);
            }
        }
    }

    /// Every job in the mirror has a registry handle pinned to the same
    /// cores, and the registry holds nothing else.
    fn mirror_matches_registry(&self) -> bool {
        let mut resident = 0;
        let pinned_alike = (0..self.state.len()).all(|node| {
            self.mirror.pm(PmId(node)).vms().all(|(id, _, assignment)| {
                resident += 1;
                self.registry
                    .get(&id)
                    .is_some_and(|h| h.assignment == *assignment)
            })
        });
        pinned_alike && resident == self.registry.len()
    }
}

/// Run the full testbed experiment: `n_jobs` jobs placed and supervised by
/// `placer`/`evictor` for the configured duration, with node agents
/// killed or stalled per `faults`' [`prvm_faults::AgentFault`]s.
///
/// Spawns one agent thread per node; fully deterministic under `seed`
/// (ticks are lockstep). The controller quarantines unresponsive nodes
/// (withdrawing their mirror capacity and re-placing their jobs),
/// readmits nodes that report again, and always returns a complete —
/// possibly degraded — [`TestbedOutcome`]. With [`FaultPlan::none`] no
/// timeout ever fires: that is the paper path.
///
/// # Panics
///
/// Panics only if the mirror cluster rejects a placement decision (a bug,
/// not an expected runtime condition).
#[must_use]
#[allow(clippy::too_many_lines)]
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
    let timeout = Duration::from_millis(cfg.node_timeout_ms);

    // --- Spawn node agents ----------------------------------------------
    let (to_controller, from_nodes): (Sender<ToController>, Receiver<ToController>) = unbounded();
    let mut to_nodes: Vec<Sender<ToNode>> = Vec::with_capacity(cfg.nodes);
    let mut handles = Vec::with_capacity(cfg.nodes);
    for node in 0..cfg.nodes {
        let (tx, rx) = unbounded();
        to_nodes.push(tx);
        let mut agent = NodeAgent::new(node, cfg.slots_per_core, rx, to_controller.clone());
        if let Some(fault) = faults.agent_fault(node) {
            agent = agent.with_fault(fault);
        }
        handles.push(std::thread::spawn(move || agent.run()));
    }
    // Only agents hold senders now, so a fully-dead fleet is observable
    // as a disconnect rather than an eternal block.
    drop(to_controller);

    let mut sup = Supervisor {
        to_nodes,
        state: vec![NodeState::Up; cfg.nodes],
        mirror: Cluster::homogeneous(cfg.pm_spec(), cfg.nodes),
        registry: HashMap::new(),
        node_failures: 0,
        rejoined_nodes: 0,
        replaced_jobs: 0,
        lost_jobs: 0,
    };

    // --- Generate and place the jobs --------------------------------------
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
        let job = JobHandle {
            id: VmId(sup.mirror.next_vm_id()),
            spec,
            assignment: d.assignment.clone(),
            trace,
        };
        // Agents cannot die before the first tick, so a send failure here
        // is unreachable; absorb it anyway.
        let sent = sup.start_on(job, d);
        debug_assert!(sent.is_ok(), "agent died before the first tick");
    }
    let pms_used_initial = sup.mirror.active_pm_count();

    // --- Scan loop ---------------------------------------------------------
    let cap = cfg.pm_spec().total_cpu();
    let mut migrations = 0usize;
    let mut overload_events = 0usize;
    let mut slo_samples = 0usize;
    let mut active_samples = 0usize;
    // Messages set aside by a rejoin drain (see [`Supervisor::rejoin`]),
    // consumed before the live channel so ordering is preserved.
    let mut pending: VecDeque<ToController> = VecDeque::new();
    // Dense per-scan state, sized once and reset every scan: demand by job
    // id (ids are `0..n_jobs`, minted in order by the initial placement),
    // demand, report and overload flags by node. One slot is one `Mhz`.
    let mut job_demand = vec![Mhz::ZERO; n_jobs];
    let mut node_demand = vec![Mhz::ZERO; cfg.nodes];
    let mut reported = vec![false; cfg.nodes];
    let mut overloaded = vec![false; cfg.nodes];

    for t in 0..scans {
        for node in 0..cfg.nodes {
            if sup.state[node] == NodeState::Dead {
                continue;
            }
            // Quarantined nodes still get ticks so a merely-stalled agent
            // can answer a current one and rejoin.
            if let Err(e) = send_to_agent(&sup.to_nodes[node], node, ToNode::Tick { t }) {
                sup.quarantine(e, t, placer);
            }
        }

        // Collect one current-scan status per non-dead node (lockstep),
        // under a shared real-time deadline. On the fault-free path every
        // agent answers immediately and the deadline is never felt.
        job_demand.fill(Mhz::ZERO);
        node_demand.fill(Mhz::ZERO);
        reported.fill(false);
        let mut awaiting = sup.state.iter().filter(|s| **s != NodeState::Dead).count();
        let deadline = Instant::now() + timeout;
        while awaiting > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match next_message(&mut pending, &from_nodes, remaining) {
                Ok(ToController::Status {
                    node,
                    t: rt,
                    job_demands,
                }) => {
                    if rt != t || reported[node] {
                        // A stale answer from a previously-stalled agent
                        // (its jobs were re-placed; the demands are void).
                        continue;
                    }
                    reported[node] = true;
                    awaiting -= 1;
                    match sup.state[node] {
                        NodeState::Up => {
                            for (id, d) in job_demands {
                                let d = Mhz(d);
                                node_demand[node] += d;
                                if let Some(slot) = convert::u64_to_usize(id.0)
                                    .and_then(|slot| job_demand.get_mut(slot))
                                {
                                    *slot = d;
                                }
                            }
                        }
                        // A current-scan status from a quarantined node
                        // means it is back; readmit it (empty) and ignore
                        // the demands of its already-re-placed jobs.
                        NodeState::Quarantined => {
                            sup.rejoin(node, t, placer, &from_nodes, &mut pending);
                        }
                        NodeState::Dead => {}
                    }
                }
                // A late kill acknowledgment from a node that timed out
                // mid-handshake; the job was already recovered.
                Ok(ToController::Killed { .. }) => {}
                // Out of time: every live node that has not reported is a
                // straggler. Out of senders: every agent thread is gone.
                Err(e) => {
                    let disconnected = e == RecvTimeoutError::Disconnected;
                    for (node, &answered) in reported.iter().enumerate() {
                        if sup.state[node] != NodeState::Up || (answered && !disconnected) {
                            continue;
                        }
                        let err = if disconnected {
                            ControllerError::NodeDisconnected { node }
                        } else {
                            ControllerError::NodeTimeout { node, scan: t }
                        };
                        sup.quarantine(err, t, placer);
                    }
                    awaiting = 0;
                }
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
                    vm: &job_demand,
                };
                // The destination is chosen BEFORE killing, so an
                // unplaceable job is never interrupted.
                let Some(m) = next_migration(&mut sup.mirror, PmId(src), demand, evictor, placer)
                else {
                    break;
                };
                // Kill on the source, restart on the destination. A source
                // that dies mid-handshake forfeits the job: the registry
                // copy restarts wherever the placer now puts it (quarantining
                // the source may have filled the chosen destination) and
                // the source is quarantined.
                let killed = match send_to_agent(&sup.to_nodes[src], src, ToNode::Kill(m.vm)) {
                    Ok(()) => {
                        let kill_deadline = Instant::now() + timeout;
                        loop {
                            let remaining = kill_deadline.saturating_duration_since(Instant::now());
                            match next_message(&mut pending, &from_nodes, remaining) {
                                Ok(ToController::Killed { job, .. }) if job.id == m.vm => {
                                    break Some(job);
                                }
                                // Foreign late acks and stale statuses are
                                // dropped; rejoins wait for the next scan.
                                Ok(_) => {}
                                Err(_) => break None,
                            }
                        }
                    }
                    Err(_) => None,
                };
                let Some(job) = killed else {
                    let err = ControllerError::NodeTimeout { node: src, scan: t };
                    sup.quarantine(err, t, placer);
                    if let Err(dead) = sup.replace(m.vm, src, t, placer) {
                        sup.quarantine(dead, t, placer);
                    }
                    break;
                };
                let dest = m.to.pm.0;
                if let Err(dead) = sup.start_on(job, m.to) {
                    // Dead destination: drain it (re-placing this job
                    // with the rest) and stop evicting this source.
                    sup.quarantine(dead, t, placer);
                    break;
                }
                migrations += 1;
                node_demand[dest] += m.demand;
                node_demand[src] = node_demand[src].saturating_sub(m.demand);
                if sup.state[src] != NodeState::Up {
                    break;
                }
            }
        }
        debug_assert!(
            sup.mirror_matches_registry(),
            "mirror and registry disagree after scan {t}"
        );
    }

    // --- Shutdown -----------------------------------------------------------
    for (node, tx) in sup.to_nodes.iter().enumerate() {
        if sup.state[node] != NodeState::Dead {
            let _ = tx.send(ToNode::Shutdown);
        }
    }
    for h in handles {
        h.join().unwrap_or_else(|_| panic!("agent thread panicked"));
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
    fn controller_errors_name_the_node() {
        let disc = ControllerError::NodeDisconnected { node: 7 };
        assert!(disc.to_string().contains("node 7"), "{disc}");
        let slow = ControllerError::NodeTimeout { node: 3, scan: 12 };
        let msg = slow.to_string();
        assert!(msg.contains("node 3") && msg.contains("scan 12"), "{msg}");
    }
}
