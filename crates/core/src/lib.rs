//! # PageRankVM
//!
//! A reproduction of *"PageRankVM: A PageRank Based Algorithm with
//! Anti-Collocation Constraints for Virtual Machine Placement in Cloud
//! Datacenters"* (Li, Shen, Miles — ICDCS 2018).
//!
//! The algorithm ranks PM resource-usage **profiles** by how likely they are
//! to develop into the *best profile* (full utilization in every dimension)
//! by hosting more VMs from a known VM-type set, and places each VM where
//! the resulting profile ranks highest:
//!
//! 1. [`profile`] — canonical multi-dimensional profiles where every
//!    physical core and disk is its own dimension (this is how
//!    anti-collocation constraints are encoded);
//! 2. [`intern`] — hash-consed profile arena whose dense [`intern::ProfileId`]s
//!    double as graph node ids;
//! 3. [`graph`] — the profile graph: `A → B` iff hosting one VM turns
//!    profile `A` into profile `B`; built CSR-first over the interner,
//!    with [`ProfileGraph::extend`] for catalog deltas (alias a known
//!    footprint, otherwise build the merged catalog cold);
//! 4. [`mod@pagerank`] — Algorithm 1: iterative PageRank with damping 0.85,
//!    plus [`pagerank_warm`] restarting power iteration from a previous run;
//! 5. [`bpru`] — the Best-Possible-Resource-Utilization discount;
//! 6. [`table`] — the Profile–PageRank score table consulted at placement
//!    time, with `extend` (graph extend plus warm-started PageRank) and
//!    `build_seeded`, its from-scratch reference;
//! 7. [`cache`] — the persisted `PVSB` score-book artifact
//!    (versioned, checksummed, catalog-hash keyed);
//! 8. [`placer`] — Algorithm 2 (initial allocation) and the paper's
//!    eviction rule for overloaded PMs;
//! 9. [`two_choice`] — the sampled O(1) variant sketched in §V-C.
//!
//! Graph construction and PageRank run on the process-wide worker pool,
//! whose width [`prvm_par::set_global_threads`] sets (the CLI's
//! `--threads`). Results are bit-for-bit identical at every width
//! (DESIGN.md §10), so the width is a wall-clock knob only.
//!
//! # Quickstart
//!
//! ```
//! use pagerankvm::{PageRankConfig, GraphLimits, PageRankVmPlacer, ScoreBook};
//! use prvm_model::{catalog, place_batch, Cluster, Quantizer};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the Profile–PageRank score table once per PM type…
//! let book = Arc::new(ScoreBook::build(
//!     Quantizer { core_slots: 2, mem_levels: 4, disk_levels: 2 },
//!     &catalog::ec2_pm_types(),
//!     &catalog::ec2_vm_types(),
//!     &PageRankConfig::default(),
//!     GraphLimits::default(),
//! )?);
//!
//! // …then place VMs with Algorithm 2.
//! let mut placer = PageRankVmPlacer::new(book);
//! let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 50);
//! let requests = vec![catalog::vm_m3_large(); 20];
//! place_batch(&mut placer, &mut cluster, requests)?;
//! assert!(cluster.active_pm_count() < 20);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::expect_used)]
#![warn(clippy::missing_panics_doc)]
#![cfg_attr(not(test), warn(clippy::as_conversions))]

pub mod analysis;
pub mod audit;
pub mod bpru;
pub mod cache;
pub mod graph;
pub mod intern;
pub mod pagerank;
pub mod placer;
pub mod profile;
pub mod table;
pub mod two_choice;

pub use analysis::{paths_to_best, rank_stats, top_profiles, RankStats};
pub use audit::{AuditReport, Invariant, Violation};
pub use bpru::bpru as compute_bpru;
pub use cache::CacheError;
pub use graph::{GraphError, GraphLimits, NodeId, ProfileGraph};
pub use intern::{ProfileId, ProfileInterner};
pub use pagerank::{pagerank, pagerank_warm, Orientation, PageRankConfig, PageRankResult};
pub use placer::{PageRankEviction, PageRankVmPlacer, RankedOptions};
pub use profile::{KindSpace, Profile, ProfileSpace, ProfileVm};
pub use table::{ScoreBook, ScoreTable};
pub use two_choice::TwoChoicePlacer;
