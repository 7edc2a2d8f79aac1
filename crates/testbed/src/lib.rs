//! GENI testbed emulation (§VI-A, "GENI testbed").
//!
//! The paper's testbed is 10 four-core VM instances standing in for PMs, a
//! centralized controller running the placement algorithms, and *jobs*
//! standing in for VMs: CPU-only requests of shape `[1,1]` or `[1,1,1,1]`
//! whose vCPUs must land on distinct cores. Every 10 seconds the
//! controller scans utilization; overloaded nodes have jobs killed and
//! restarted elsewhere (the testbed's migration).
//!
//! This crate emulates that deployment in one process: the controller
//! calls each node agent directly under a lockstep virtual clock, so the
//! same control-plane logic runs without real machines and without wall
//! time (DESIGN.md §4). The controller keeps each job once: where it runs
//! in a mirror cluster, what it demands in a trace table by job id. An
//! agent holds no jobs; a faulty one answers a tick with silence or
//! refuses calls once dead. No outcome depends on how fast anything runs.
//!
//! ## Capacity note
//!
//! The paper states each physical core hosts 4 vCPUs, yet runs up to 300
//! jobs (≈ 800 vCPUs) on 40 cores — its admission must have been
//! oversubscribed. We therefore give each core
//! [`TestbedConfig::slots_per_core`] = 32 reservation units (8×
//! oversubscription of the stated 4) and let each vCPU burst to a full
//! core, which reproduces the paper's job counts *and* its overload
//! dynamics.
//!
//! ```no_run
//! use prvm_testbed::{run_testbed, FaultPlan, TestbedConfig};
//! use prvm_baselines::{FirstFit, MinimumMigrationTime};
//!
//! let cfg = TestbedConfig::default();
//! let outcome = run_testbed(&cfg, 200, &mut FirstFit::new(),
//!                           &mut MinimumMigrationTime::new(), 42, &FaultPlan::none());
//! println!("nodes used: {}", outcome.pms_used);
//! ```

#![warn(missing_docs)]
#![warn(clippy::expect_used)]

pub mod controller;
pub mod node;

pub use controller::{run_testbed, ControllerError};
pub use node::NodeAgent;
pub use prvm_faults::{AgentFault, FaultPlan, StallWindow};

use prvm_model::{MemMib, Mhz, PmSpec};
use serde::{Deserialize, Serialize};

/// Shape and timing of the emulated testbed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestbedConfig {
    /// Number of PM-emulating instances (paper: 10).
    pub nodes: usize,
    /// Physical cores per instance (paper: 4).
    pub cores_per_node: u32,
    /// Reservation units per core; each vCPU reserves one unit and may
    /// burst to the whole core (see the crate-level capacity note).
    pub slots_per_core: u64,
    /// Seconds between controller scans (paper: 10 s).
    pub scan_interval_s: u64,
    /// Experiment duration (paper: 4 h).
    pub duration_s: u64,
    /// Overload threshold on node CPU utilization (paper:
    /// [`prvm_model::OVERLOAD_THRESHOLD`]). The SLO threshold is the
    /// paper's [`prvm_model::SLO_THRESHOLD`].
    pub overload_threshold: f64,
    /// Scale factor applied to the Google-trace job utilizations so the
    /// aggregate load fits the testbed's physical capacity.
    pub utilization_scale: f64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        Self {
            nodes: 10,
            cores_per_node: 4,
            slots_per_core: 32,
            scan_interval_s: 10,
            duration_s: 4 * 3600,
            overload_threshold: prvm_model::OVERLOAD_THRESHOLD,
            utilization_scale: 0.5,
        }
    }
}

impl TestbedConfig {
    /// Number of scans over the experiment duration.
    ///
    /// # Panics
    ///
    /// Panics if `scan_interval_s` is zero.
    #[must_use]
    pub fn scans(&self) -> usize {
        assert!(self.scan_interval_s > 0, "scan interval must be positive");
        (self.duration_s / self.scan_interval_s) as usize
    }

    /// The PM spec of one emulated node: `cores_per_node` cores of
    /// `slots_per_core` units, CPU-only.
    #[must_use]
    pub fn pm_spec(&self) -> PmSpec {
        PmSpec::new(
            "geni-node",
            self.cores_per_node,
            Mhz(self.slots_per_core),
            MemMib::ZERO,
            Vec::new(),
        )
    }

    /// Build the Profile–PageRank score book matching this testbed (one
    /// vCPU = one slot, exactly).
    ///
    /// # Errors
    ///
    /// Propagates graph-construction failures (an absurd `slots_per_core`
    /// can exceed the node limit).
    pub fn score_book(&self) -> Result<pagerankvm::ScoreBook, pagerankvm::GraphError> {
        pagerankvm::ScoreBook::build(
            prvm_model::Quantizer {
                core_slots: self.slots_per_core,
                mem_levels: 1,
                disk_levels: 1,
            },
            &[self.pm_spec()],
            &prvm_model::catalog::geni_vm_types(),
            &pagerankvm::PageRankConfig::default(),
            pagerankvm::GraphLimits::default(),
        )
    }
}

/// Aggregate results of one testbed run (Figs. 4 and 8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestbedOutcome {
    /// Nodes used by the initial job allocation (Fig. 4(a)).
    pub pms_used_initial: usize,
    /// Distinct nodes that ever hosted a job (initial + migration
    /// targets).
    pub pms_used: usize,
    /// Kill-and-restart migrations performed (Fig. 4(b)).
    pub migrations: usize,
    /// Percentage of (active node, scan) samples at/above the SLO
    /// threshold (Fig. 8).
    pub slo_violation_pct: f64,
    /// Scans with at least one overloaded node.
    pub overload_events: usize,
    /// Jobs rejected at initial placement.
    pub rejected_jobs: usize,
    /// Node agents quarantined at least once (fault injection only;
    /// always zero on the paper path).
    pub node_failures: usize,
    /// Quarantined nodes that reported again and were readmitted.
    pub rejoined_nodes: usize,
    /// Jobs re-placed off quarantined or dead nodes.
    pub replaced_jobs: usize,
    /// Jobs dropped because no capacity remained to re-place them; each
    /// keeps counting as an SLO-violating sample every later scan.
    pub lost_jobs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_shape() {
        let c = TestbedConfig::default();
        assert_eq!(c.nodes, 10);
        assert_eq!(c.cores_per_node, 4);
        assert_eq!(c.scan_interval_s, 10);
        assert_eq!(c.scans(), 1440);
        let pm = c.pm_spec();
        assert_eq!(pm.cores, 4);
        assert_eq!(pm.total_cpu(), Mhz(128));
    }

    #[test]
    fn score_book_builds_for_testbed() {
        let cfg = TestbedConfig {
            slots_per_core: 8, // keep the unit test quick
            ..TestbedConfig::default()
        };
        let book = cfg.score_book().unwrap();
        let table = book.table(&cfg.pm_spec()).unwrap();
        assert!(table.len() > 10);
        // The empty profile must be scoreable.
        let empty = table.space().empty_profile();
        assert!(table.score(&empty).is_some());
    }
}
