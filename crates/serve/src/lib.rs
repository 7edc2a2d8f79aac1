//! `prvm-serve`: the crash-safe placement daemon.
//!
//! A dependency-free framed-TCP server that owns a live
//! [`prvm_model::Cluster`] + [`pagerankvm::ScoreBook`] and answers
//! `place` / `evict` / `migrate` / `stats` / `snapshot` requests from
//! concurrent clients, engineered failure-first:
//!
//! - **Durability** ([`journal`]): every mutation is appended to a
//!   checksummed write-ahead journal (sync before apply, apply before
//!   reply) with periodic compaction into a versioned snapshot keyed by
//!   the catalog hash. Cold start replays to byte-identical state —
//!   proven through the I/O fault family in `prvm-faults`.
//! - **Availability** ([`server`]): per-request deadlines with typed
//!   timeout replies, a bounded admission queue that sheds load with
//!   typed responses (never dropped connections) and deterministic
//!   capped backoff guidance, and graceful drain on SIGTERM.
//! - **Total parsing** ([`wire`]): any byte stream either decodes to
//!   valid frames or a typed protocol error; the decoder never panics
//!   and never over-reads.
//!
//! The [`chaos`] module runs the whole stack under the seeded I/O fault
//! matrix; the `pagerankvm chaos --target serve` subcommand drives it.

#![warn(missing_docs)]
#![warn(clippy::expect_used)]

pub mod chaos;
pub mod client;
pub mod journal;
pub mod server;
pub mod state;
pub mod wire;

pub use chaos::{run_io_chaos, ChaosError, IoChaosOutcome};
pub use client::{Client, ClientError};
pub use journal::{Journal, JournalError, Op, OpKind, Replay, Snapshot, Store};
pub use server::{retry_backoff_ms, Server, ServerConfig, ServerHandle};
pub use state::{CatalogSpec, ServeState, StateError};
pub use wire::{
    ErrorCode, Frame, FrameDecoder, ProtocolError, Request, Response, MAX_PAYLOAD, VERSION,
};
