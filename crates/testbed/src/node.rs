//! Node agents: one per emulated GENI instance, called directly by the
//! controller.
//!
//! An agent owns its resident jobs, samples their utilization traces each
//! tick and reports per-job CPU demand. [`NodeAgent::kill`] and
//! [`NodeAgent::start`] emulate the paper's "kill the VMs (jobs) and
//! continue them on the destination PMs" migration. Every answer is a pure
//! function of the calls the agent has received, so a fault is a typed
//! answer rather than a late one: a stalled agent stays silent at a tick,
//! and a dead one refuses every call.

use crate::ControllerError;
use prvm_faults::AgentFault;
use prvm_model::{Assignment, Mhz, VmId, VmSpec};
use prvm_traces::Trace;

/// A job (the testbed's stand-in for a VM) as handed to a node agent.
#[derive(Debug, Clone, PartialEq)]
pub struct JobHandle {
    /// Cluster-wide identity.
    pub id: VmId,
    /// CPU-only resource request (`[1,1]` or `[1,1,1,1]`).
    pub spec: VmSpec,
    /// Which physical cores the job's vCPUs pin to (anti-collocation).
    pub assignment: Assignment,
    /// Utilization trace driving the job's CPU demand.
    pub trace: Trace,
}

/// Per-node state: resident jobs and the injected fault, if any.
pub struct NodeAgent {
    node: usize,
    /// A vCPU may burst to this many slot units (one full core).
    slots_per_core: u64,
    jobs: Vec<JobHandle>,
    /// Injected failure behavior; `None` on the paper path.
    fault: Option<AgentFault>,
    /// Set by the tick that reaches `die_at_tick`; never cleared.
    dead: bool,
}

impl NodeAgent {
    /// Create an agent for node `node` that fails as `fault` says.
    #[must_use]
    pub fn new(node: usize, slots_per_core: u64, fault: Option<AgentFault>) -> Self {
        Self {
            node,
            slots_per_core,
            jobs: Vec::new(),
            fault,
            dead: false,
        }
    }

    fn refused(&self) -> ControllerError {
        ControllerError::NodeDisconnected { node: self.node }
    }

    /// CPU demand of one job at scan `t`, in slot units (one slot is one
    /// `Mhz`): each vCPU bursts up to a full core, scaled by its
    /// utilization trace.
    fn job_demand(&self, job: &JobHandle, t: usize) -> Mhz {
        let per_vcpu = job.trace.at(t) * self.slots_per_core as f64;
        Mhz((per_vcpu * f64::from(job.spec.vcpus)).round() as u64)
    }

    /// Start (or resume after migration) a job on this node.
    ///
    /// # Errors
    ///
    /// [`ControllerError::NodeDisconnected`] if the agent has died.
    pub fn start(&mut self, job: JobHandle) -> Result<(), ControllerError> {
        if self.dead {
            return Err(self.refused());
        }
        self.jobs.push(job);
        Ok(())
    }

    /// Kill job `vm` and hand it back for re-placement; `None` if the
    /// agent has died or does not hold the job.
    pub fn kill(&mut self, vm: VmId) -> Option<JobHandle> {
        if self.dead {
            return None;
        }
        let pos = self.jobs.iter().position(|j| j.id == vm)?;
        Some(self.jobs.swap_remove(pos))
    }

    /// Advance to scan `t` and report `(job, demand)` for every resident
    /// job, or `None` — silence — while a stall window covers `t`. The
    /// tick that reaches `die_at_tick` is silent too and kills the agent.
    ///
    /// # Errors
    ///
    /// [`ControllerError::NodeDisconnected`] if the agent has died.
    pub fn tick(&mut self, t: usize) -> Result<Option<Vec<(VmId, Mhz)>>, ControllerError> {
        if self.dead {
            return Err(self.refused());
        }
        if let Some(fault) = self.fault {
            if fault.die_at_tick.is_some_and(|d| t >= d) {
                self.dead = true;
                return Ok(None);
            }
            if fault.stall.is_some_and(|w| w.covers(t)) {
                return Ok(None);
            }
        }
        Ok(Some(
            self.jobs
                .iter()
                .map(|j| (j.id, self.job_demand(j, t)))
                .collect(),
        ))
    }

    /// Drop every resident job. Called when a quarantined node rejoins:
    /// the controller already re-placed its jobs elsewhere, so whatever
    /// the agent still holds is stale. A dead agent ignores it.
    pub fn reset(&mut self) {
        self.jobs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_faults::{FaultPlan, StallWindow};
    use prvm_model::catalog;

    fn job(id: u64, util: f64) -> JobHandle {
        JobHandle {
            id: VmId(id),
            spec: catalog::geni_vm_2(),
            assignment: Assignment::new(vec![0, 1], vec![]),
            trace: Trace::constant(util, 8),
        }
    }

    fn job_ids(status: Option<Vec<(VmId, Mhz)>>) -> Vec<VmId> {
        status.expect("agent answers").iter().map(|s| s.0).collect()
    }

    #[test]
    fn agent_reports_demands_and_kills() {
        let mut agent = NodeAgent::new(3, 32, None);
        agent.start(job(1, 0.5)).unwrap();
        agent.start(job(2, 0.25)).unwrap();
        // 2 vCPUs x 0.5 x 32 = 32; 2 x 0.25 x 32 = 16.
        assert_eq!(
            agent.tick(0).unwrap(),
            Some(vec![(VmId(1), Mhz(32)), (VmId(2), Mhz(16))])
        );

        assert_eq!(agent.kill(VmId(1)).map(|j| j.id), Some(VmId(1)));

        // Killing an unknown job is ignored, then the next tick only
        // reports the survivor.
        assert_eq!(agent.kill(VmId(9)), None);
        assert_eq!(job_ids(agent.tick(1).unwrap()), vec![VmId(2)]);
    }

    #[test]
    fn killed_agent_goes_silent_then_refuses_every_call() {
        let fault = AgentFault {
            die_at_tick: Some(2),
            stall: None,
        };
        let mut agent = NodeAgent::new(1, 32, Some(fault));
        agent.start(job(1, 0.5)).unwrap();
        assert!(agent.tick(0).unwrap().is_some());
        assert_eq!(agent.tick(2), Ok(None), "dies silently");

        let gone = ControllerError::NodeDisconnected { node: 1 };
        assert_eq!(agent.tick(3), Err(gone));
        assert_eq!(agent.start(job(2, 0.5)), Err(gone));
        assert_eq!(agent.kill(VmId(1)), None);
        agent.reset();
        assert_eq!(agent.tick(4), Err(gone));
    }

    #[test]
    fn stalled_agent_goes_silent_then_resumes_and_resets() {
        let fault = AgentFault {
            die_at_tick: None,
            stall: Some(StallWindow { from: 1, ticks: 2 }),
        };
        let mut agent = NodeAgent::new(0, 32, Some(fault));
        agent.start(job(1, 0.5)).unwrap();
        // Ticks 1 and 2 fall in the stall window and get no answer.
        let answered: Vec<bool> = (0..4).map(|t| agent.tick(t).unwrap().is_some()).collect();
        assert_eq!(answered, vec![true, false, false, true]);

        // After a reset the agent holds no jobs.
        agent.reset();
        assert_eq!(agent.tick(4), Ok(Some(Vec::new())));
    }

    #[test]
    fn kill_wins_over_a_stall_from_its_tick_on() {
        // One node carries both faults; the stall window outlasts the kill.
        let plan = FaultPlan::none()
            .with_agent_stall(0, 1, 6)
            .with_agent_kill(0, 3);
        let mut agent = NodeAgent::new(0, 32, plan.agent_fault(0));
        agent.start(job(1, 0.5)).unwrap();
        assert_eq!(job_ids(agent.tick(0).unwrap()), vec![VmId(1)]);
        assert_eq!(agent.tick(1), Ok(None), "stalled");
        assert_eq!(agent.tick(3), Ok(None), "dies inside the stall window");
        let gone = Err(ControllerError::NodeDisconnected { node: 0 });
        assert_eq!(agent.tick(4), gone, "dead, not stalled");
        assert_eq!(agent.tick(7), gone, "the stall has ended; still dead");
    }
}
