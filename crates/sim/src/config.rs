//! Simulation configuration (§VI-A, "Simulation") and its validation.

use prvm_traces::TraceKind;
use serde::{Deserialize, Serialize};

/// A configuration the engine cannot run. Produced by
/// [`SimConfig::validate`] / [`MultiConfig::validate`], and returned by
/// [`crate::Scenario::run`] and [`crate::simulate_multi`] before any work
/// starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimConfigError {
    /// `scan_interval_s == 0`: the scan cadence must be positive.
    ZeroScanInterval,
    /// `schedulers == 0`: a multi-scheduler run needs at least one
    /// scheduler.
    ZeroSchedulers,
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::ZeroScanInterval => {
                write!(f, "scan interval must be positive (scan_interval_s = 0)")
            }
            SimConfigError::ZeroSchedulers => {
                write!(f, "at least one scheduler is required (schedulers = 0)")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Timing and burst parameters of the simulated datacenter. The overload
/// and SLO thresholds are the paper's, [`prvm_model::OVERLOAD_THRESHOLD`]
/// and [`prvm_model::SLO_THRESHOLD`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Seconds between utilization scans; the paper uses 300 s.
    pub scan_interval_s: u64,
    /// Total simulated time; the paper simulates 24 h.
    pub horizon_s: u64,
    /// CPU burst factor: a vCPU rated `α` GHz may consume up to
    /// `burst_factor · α` when the trace drives it hot. EC2 vCPU ratings
    /// are baseline guarantees, not caps; bursting is what makes packed
    /// hosts overload in CloudSim's utilization-driven runs (DESIGN.md §4).
    pub burst_factor: f64,
    /// Maximum placement attempts for a VM evacuated off a crashed PM
    /// before the engine gives up on it (fault injection only; DESIGN.md
    /// §9).
    pub evac_max_attempts: u32,
}

/// Cap, in scans, on the exponential backoff between evacuation attempts
/// (virtual time; fault injection only).
pub const EVAC_BACKOFF_CAP_SCANS: usize = 8;

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            scan_interval_s: 300,
            horizon_s: 24 * 3600,
            burst_factor: 6.0,
            evac_max_attempts: 5,
        }
    }
}

impl SimConfig {
    /// Check the configuration is runnable.
    ///
    /// # Errors
    ///
    /// [`SimConfigError::ZeroScanInterval`] when `scan_interval_s == 0`.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.scan_interval_s == 0 {
            return Err(SimConfigError::ZeroScanInterval);
        }
        Ok(())
    }

    /// Number of scan intervals in the horizon; 0 when
    /// `scan_interval_s == 0`, a configuration [`Self::validate`] rejects.
    #[must_use]
    pub fn scans(&self) -> usize {
        self.horizon_s
            .checked_div(self.scan_interval_s)
            .map_or(0, |n| n as usize)
    }
}

/// Shape of a multi-scheduler run ([`crate::multi::simulate_multi`]):
/// how many concurrent schedulers share the placement store, and how
/// stale their local views are allowed to get.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiConfig {
    /// Concurrent placement schedulers sharing one store. `1` is the
    /// centralized baseline: no staleness, no conflicts.
    pub schedulers: usize,
    /// Virtual seconds between a scheduler's decision and the store
    /// seeing the commit request. Staleness window #1.
    pub commit_delay_s: u64,
    /// Virtual seconds between the store committing and the schedulers
    /// hearing about it. Staleness window #2 — while it runs, every
    /// other scheduler still places against the old view.
    pub ack_delay_s: u64,
    /// Virtual seconds between consecutive VM request arrivals
    /// (round-robin across schedulers).
    pub inter_arrival_s: u64,
    /// Placement retries for a request whose commit keeps getting
    /// rejected before it is counted as rejected.
    pub max_retries: u32,
}

impl Default for MultiConfig {
    fn default() -> Self {
        Self {
            schedulers: 1,
            commit_delay_s: 0,
            ack_delay_s: 0,
            inter_arrival_s: 1,
            max_retries: 8,
        }
    }
}

impl MultiConfig {
    /// Check the configuration is runnable.
    ///
    /// # Errors
    ///
    /// [`SimConfigError::ZeroSchedulers`] when `schedulers == 0`.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.schedulers == 0 {
            return Err(SimConfigError::ZeroSchedulers);
        }
        Ok(())
    }
}

/// Workload shape: how many VMs, which trace family drives them, and how
/// large the PM pool is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of VM requests (the paper sweeps 1000–3000).
    pub n_vms: usize,
    /// The trace archive to emulate.
    pub trace_kind: TraceKind,
    /// M3 PMs available. Pools are sized generously — the metric is how
    /// many get *used*, not how many exist.
    pub m3_pms: usize,
    /// C3 PMs available.
    pub c3_pms: usize,
}

impl WorkloadConfig {
    /// A pool comfortably larger than any algorithm needs for `n_vms`
    /// EC2-mix VMs: one M3 per VM plus half as many C3s.
    #[must_use]
    pub fn sized_for(n_vms: usize, trace_kind: TraceKind) -> Self {
        Self {
            n_vms,
            trace_kind,
            m3_pms: n_vms.max(4),
            c3_pms: (n_vms / 2).max(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.scan_interval_s, 300);
        assert_eq!(c.horizon_s, 86400);
        assert_eq!(c.scans(), 288);
        assert_eq!(EVAC_BACKOFF_CAP_SCANS, 8);
    }

    #[test]
    fn sized_pool_scales_with_vms() {
        let w = WorkloadConfig::sized_for(3000, TraceKind::PlanetLab);
        assert_eq!(w.m3_pms, 3000);
        assert_eq!(w.c3_pms, 1500);
        let w = WorkloadConfig::sized_for(1, TraceKind::GoogleCluster);
        assert!(w.m3_pms >= 4 && w.c3_pms >= 2);
    }

    #[test]
    fn zero_scan_interval_is_a_typed_error() {
        let c = SimConfig {
            scan_interval_s: 0,
            ..SimConfig::default()
        };
        assert_eq!(c.scans(), 0, "scans() is total");
        assert_eq!(c.validate(), Err(SimConfigError::ZeroScanInterval));
        let wl = WorkloadConfig::sized_for(4, TraceKind::PlanetLab);
        let run = crate::Scenario::default().run(
            &c,
            crate::build_cluster(&wl),
            &crate::Workload::generate(&wl, 1, 0),
            &mut prvm_baselines::FirstFit::new(),
            &mut prvm_baselines::MinimumMigrationTime::new(),
        );
        assert_eq!(run.err(), Some(SimConfigError::ZeroScanInterval));
        let ok = SimConfig::default();
        assert_eq!(ok.scans(), 288);
        assert_eq!(ok.validate(), Ok(()));
        assert!(format!("{}", SimConfigError::ZeroScanInterval).contains("positive"));
    }

    #[test]
    fn multi_config_validates_scheduler_count() {
        let mut m = MultiConfig::default();
        assert_eq!(m.schedulers, 1);
        assert!(m.validate().is_ok());
        m.schedulers = 0;
        assert_eq!(m.validate(), Err(SimConfigError::ZeroSchedulers));
        assert!(format!("{}", SimConfigError::ZeroSchedulers).contains("scheduler"));
    }
}
