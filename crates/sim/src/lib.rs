//! CloudSim-equivalent datacenter simulator for the PageRankVM
//! reproduction (§VI-A "Simulation").
//!
//! The simulator reproduces exactly the loop the paper's evaluation
//! depends on: place N VMs with a [`prvm_model::PlacementAlgorithm`], then
//! every 300 s over 24 h compute each PM's trace-driven CPU demand, flag
//! PMs above the 90 % overload threshold, migrate VMs off them (eviction
//! policy + the same placement algorithm for destinations), and account
//! the paper's four metrics: PMs used, energy (Table III), migrations and
//! SLO violations.
//!
//! The loop is expressed as events on a seeded virtual-time
//! discrete-event [`kernel`] (arrivals, crashes, recoveries, evacuation
//! sweeps, departures, scans, samples) — bit-identical to the historical
//! scan loop, but extensible. [`Scenario::run`] is the one entry point:
//! a [`Scenario`] sets the fault plan, a churn [`DepartureModel`] and the
//! invariant audit, and the returned [`SimRun`] carries the outcome, the
//! per-scan [`TimeSeries`], the event trace and the kernel stats.
//! [`simulate`] is the paper-path shorthand. [`multi`] runs N placement
//! schedulers against one eventually-consistent placement store
//! (DESIGN.md §14).
//!
//! ```
//! use prvm_sim::{simulate, SimConfig, Workload, WorkloadConfig, build_cluster};
//! use prvm_baselines::{FirstFit, MinimumMigrationTime};
//! use prvm_traces::TraceKind;
//!
//! let sim = SimConfig { horizon_s: 3600, ..SimConfig::default() };
//! let wl = WorkloadConfig { n_vms: 20, trace_kind: TraceKind::PlanetLab,
//!                           m3_pms: 20, c3_pms: 10 };
//! let workload = Workload::generate(&wl, sim.scans(), 42);
//! let outcome = simulate(&sim, build_cluster(&wl), &workload,
//!                        &mut FirstFit::new(), &mut MinimumMigrationTime::new());
//! assert_eq!(outcome.rejected_vms, 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::expect_used)]

pub mod config;
pub mod energy;
pub mod engine;
pub mod kernel;
pub mod multi;
pub mod runner;
pub mod timeseries;
pub mod workload;

pub use config::{MultiConfig, SimConfig, SimConfigError, WorkloadConfig, EVAC_BACKOFF_CAP_SCANS};
pub use energy::PowerCurve;
pub use engine::{simulate, simulate_recorded, simulate_with_audit, Scenario, SimOutcome, SimRun};
pub use kernel::{Event, EventHandler, EventRecord, Kernel, KernelStats};
pub use multi::{simulate_multi, MultiOutcome, SchedulerReport};
pub use prvm_faults::{FaultClock, FaultPlan};
pub use runner::{ec2_score_book, run_repeats, Algorithm, MetricSummary};
pub use timeseries::{ScanSample, TimeSeries};
pub use workload::{build_cluster, DepartureModel, Workload};
