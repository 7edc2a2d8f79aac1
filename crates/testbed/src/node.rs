//! Node agents: one per emulated GENI instance, called directly by the
//! controller.
//!
//! An agent holds no jobs: where each job runs is the controller's mirror
//! cluster, and what it demands is its trace. The agent is the node's
//! fault behaviour. Every answer is a pure function of the calls the agent
//! has received, so a fault is a typed answer rather than a late one: a
//! stalled agent stays silent at a tick, and a dead one refuses every
//! call.

use crate::ControllerError;
use prvm_faults::AgentFault;

/// Per-node liveness: the injected fault, if any.
pub struct NodeAgent {
    node: usize,
    /// Injected failure behavior; `None` on the paper path.
    fault: Option<AgentFault>,
    /// Set by the tick that reaches `die_at_tick`; never cleared.
    dead: bool,
}

impl NodeAgent {
    /// Create an agent for node `node` that fails as `fault` says.
    #[must_use]
    pub fn new(node: usize, fault: Option<AgentFault>) -> Self {
        Self {
            node,
            fault,
            dead: false,
        }
    }

    /// Liveness check before a job starts (or restarts after a migration)
    /// on this node. A stalled agent is alive; one that died at its last
    /// tick is not, even before the controller notices its silence.
    ///
    /// # Errors
    ///
    /// [`ControllerError::NodeDisconnected`] if the agent has died.
    pub fn alive(&self) -> Result<(), ControllerError> {
        if self.dead {
            return Err(ControllerError::NodeDisconnected { node: self.node });
        }
        Ok(())
    }

    /// Advance to scan `t`: `true` if the agent answers, `false` —
    /// silence — while a stall window covers `t`. The tick that reaches
    /// `die_at_tick` is silent too and kills the agent.
    ///
    /// # Errors
    ///
    /// [`ControllerError::NodeDisconnected`] if the agent has died.
    pub fn tick(&mut self, t: usize) -> Result<bool, ControllerError> {
        self.alive()?;
        if let Some(fault) = self.fault {
            if fault.die_at_tick.is_some_and(|d| t >= d) {
                self.dead = true;
                return Ok(false);
            }
            if fault.stall.is_some_and(|w| w.covers(t)) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_faults::{FaultPlan, StallWindow};

    #[test]
    fn fault_free_agent_answers_every_tick() {
        let mut agent = NodeAgent::new(3, None);
        assert_eq!(agent.alive(), Ok(()));
        assert!((0..5).all(|t| agent.tick(t) == Ok(true)));
        assert_eq!(agent.alive(), Ok(()));
    }

    #[test]
    fn killed_agent_goes_silent_then_refuses_every_call() {
        let fault = AgentFault {
            die_at_tick: Some(2),
            stall: None,
        };
        let mut agent = NodeAgent::new(1, Some(fault));
        assert_eq!(agent.tick(0), Ok(true));
        assert_eq!(agent.alive(), Ok(()));
        assert_eq!(agent.tick(2), Ok(false), "dies silently");

        let gone = ControllerError::NodeDisconnected { node: 1 };
        assert_eq!(agent.alive(), Err(gone), "refuses a job the tick it dies");
        assert_eq!(agent.tick(3), Err(gone));
        assert_eq!(agent.alive(), Err(gone));
        assert_eq!(agent.tick(4), Err(gone));
    }

    #[test]
    fn stalled_agent_goes_silent_then_resumes() {
        let fault = AgentFault {
            die_at_tick: None,
            stall: Some(StallWindow { from: 1, ticks: 2 }),
        };
        let mut agent = NodeAgent::new(0, Some(fault));
        // Ticks 1 and 2 fall in the stall window and get no answer.
        let answered: Vec<bool> = (0..4).map(|t| agent.tick(t).unwrap()).collect();
        assert_eq!(answered, vec![true, false, false, true]);
        // A stalled agent is alive: it still accepts jobs.
        assert_eq!(agent.alive(), Ok(()));
    }

    #[test]
    fn kill_wins_over_a_stall_from_its_tick_on() {
        // One node carries both faults; the stall window outlasts the kill.
        let plan = FaultPlan::none()
            .with_agent_stall(0, 1, 6)
            .with_agent_kill(0, 3);
        let mut agent = NodeAgent::new(0, plan.agent_fault(0));
        assert_eq!(agent.tick(0), Ok(true));
        assert_eq!(agent.tick(1), Ok(false), "stalled");
        assert_eq!(agent.tick(3), Ok(false), "dies inside the stall window");
        let gone = Err(ControllerError::NodeDisconnected { node: 0 });
        assert_eq!(agent.tick(4), gone, "dead, not stalled");
        assert_eq!(agent.tick(7), gone, "the stall has ended; still dead");
    }
}
