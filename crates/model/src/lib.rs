//! Datacenter resource model for the PageRankVM reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * integer-exact resource [`units`] (MHz, MiB, GB) so capacity checks never
//!   suffer floating-point drift;
//! * [`VmSpec`]/[`PmSpec`] descriptions and the EC2-derived [`catalog`]
//!   (Tables I and II of the paper);
//! * [`Assignment`]s that record *which* physical core hosts each vCPU and
//!   *which* physical disk hosts each virtual disk — the paper's `y`/`z`
//!   binary variables — and enforce the anti-collocation constraints
//!   (Equ. (3)–(4) and (8)–(9));
//! * a [`Cluster`] of physical machines with the paper's
//!   `used_PM_list` / `unused_PM_list` bookkeeping;
//! * the [`combin`] module, which enumerates the *distinct* outcomes of
//!   placing a permutable multi-dimensional demand onto interchangeable
//!   dimensions (the combinatorial heart shared with the profile graph);
//! * the [`Quantizer`] bridging real-unit specs into the small integer
//!   profile space the PageRank table is built over;
//! * the [`PlacementAlgorithm`] and [`EvictionPolicy`] traits implemented by
//!   `pagerankvm` and `prvm-baselines`, the one PM [`scan`] they share
//!   (Algorithm 2's [`best_of`] over used PMs, else [`first_fit`]), and
//!   the one overload step, [`next_migration`], that the simulator and
//!   the testbed both run.
//!
//! # Example
//!
//! ```
//! use prvm_model::{catalog, Cluster};
//!
//! // A small datacenter of four M3 hosts.
//! let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 4);
//! let vm = catalog::vm_m3_large();
//!
//! // Find a feasible anti-collocated assignment on the first PM and place it.
//! let assignment = cluster.pm(prvm_model::PmId(0)).first_feasible(&vm).unwrap();
//! let vm_id = cluster.place(prvm_model::PmId(0), vm, assignment).unwrap();
//! assert_eq!(cluster.used_pms().count(), 1);
//! cluster.remove(vm_id).unwrap();
//! assert_eq!(cluster.used_pms().count(), 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::expect_used)]
#![cfg_attr(not(test), warn(clippy::as_conversions))]

pub mod affinity;
pub mod assignment;
pub mod catalog;
pub mod cluster;
pub mod combin;
pub mod error;
pub mod pm;
pub mod quantize;
pub mod traits;
pub mod units;
pub mod vm;

pub use affinity::{place_batch_with_rules, AffinityRules};
pub use assignment::Assignment;
pub use cluster::{Cluster, PmId, VmId};
pub use error::{ModelError, PlaceError};
pub use pm::{Pm, PmSpec};
pub use quantize::{QuantizedPm, QuantizedVm, Quantizer};
pub use traits::{
    best_of, first_fit, next_migration, place_batch, scan, EvictionPolicy, Migration,
    PlacementAlgorithm, PlacementDecision, ScanDemand, OVERLOAD_THRESHOLD, SLO_THRESHOLD,
};
pub use units::{DiskGb, MemMib, Mhz};
pub use vm::{Vm, VmSpec};
