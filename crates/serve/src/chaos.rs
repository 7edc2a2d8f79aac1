//! The serve-layer chaos harness: the full journal + state stack driven
//! through every I/O fault preset with a scripted, seeded workload.
//!
//! Invariants checked on every run (violations are hard errors, so the
//! chaos CLI fails loudly):
//!
//! 1. Every request resolves to a typed outcome — an acked mutation, a
//!    typed placement rejection, a typed journal error, or an injected
//!    crash. Nothing panics, nothing is silently lost.
//! 2. After every injected crash, replaying the durable bytes yields
//!    exactly the acked ops — or the acked ops plus the single in-flight
//!    one ([`prvm_faults::CrashSite::AfterSync`]'s durable-but-unacked
//!    ambiguity). Never less, never garbage.
//! 3. A state recovered from the durable bytes has the same FNV digest
//!    as the live state built through the ack-time commit path —
//!    byte-identical placements, assignments, and allocator watermark.
//! 4. A replay through the *faulty* read path (bit rot, short reads)
//!    yields a checksum-verified prefix of the acked ops — corruption
//!    truncates, it never fabricates.

use crate::journal::{Journal, JournalError, Op, OpKind};
use crate::state::{CatalogSpec, ServeState, StateError};
use crate::wire::{EvictReq, MigrateReq, PlaceReq};
use prvm_faults::io::is_injected_crash;
use prvm_faults::{splitmix64, FaultFile, IoFaultPlan};
use prvm_model::Quantizer;
use std::fmt;
use std::io::Cursor;

/// What one chaos run did and proved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoChaosOutcome {
    /// The fault preset exercised.
    pub preset: String,
    /// The coin seed.
    pub seed: u64,
    /// Requests scripted.
    pub requests: usize,
    /// Mutations acked (journaled + applied).
    pub acked: u64,
    /// Typed placement rejections (no capacity / unknown VM).
    pub rejected: u64,
    /// Typed journal failures that were not crashes (e.g. ENOSPC); the
    /// op was not applied and the daemon carried on.
    pub journal_errors: u64,
    /// Injected crashes survived.
    pub crashes: u64,
    /// Crash recoveries where the in-flight record was lost (torn or
    /// unsynced) — the client saw an error, the state never had it.
    pub lost_inflight: u64,
    /// Crash recoveries where the in-flight record was durable but
    /// unacknowledged — replay resurrects it (at-least-once territory).
    pub ghost_acks: u64,
    /// Digest comparisons performed (each crash recovery plus the final
    /// pull-the-plug check).
    pub digest_checks: u64,
    /// FNV digest (hex) of the final live state.
    pub final_digest: String,
}

/// Chaos-run failures. [`ChaosError::Invariant`] means the stack broke
/// one of the module-level guarantees — the bug the harness exists to
/// catch.
#[derive(Debug)]
pub enum ChaosError {
    /// The preset name is not in [`IoFaultPlan::io_preset_names`].
    UnknownPreset(String),
    /// Building or recovering state failed structurally.
    State(StateError),
    /// The journal failed outside an injected fault's contract.
    Journal(JournalError),
    /// A durability invariant was violated — the real failure mode.
    Invariant(String),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownPreset(name) => write!(f, "unknown I/O fault preset {name:?}"),
            Self::State(e) => write!(f, "{e}"),
            Self::Journal(e) => write!(f, "{e}"),
            Self::Invariant(detail) => write!(f, "durability invariant violated: {detail}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<StateError> for ChaosError {
    fn from(e: StateError) -> Self {
        Self::State(e)
    }
}

impl From<JournalError> for ChaosError {
    fn from(e: JournalError) -> Self {
        Self::Journal(e)
    }
}

/// Re-arm a crash plan for the session after `reboots` recoveries: the
/// ordinal grows so every session makes progress before dying again
/// (ordinal 1 would crash the first append of every life, forever).
fn rearm(plan: &IoFaultPlan, reboots: u64) -> IoFaultPlan {
    let mut next = plan.clone();
    if let Some(crash) = plan.crash {
        next = next.with_crash(crash.site, crash.ordinal.max(2) + reboots);
    }
    next
}

/// Track which VMs the script believes are resident, mirroring ops.
fn note_op(resident: &mut Vec<u64>, op: &Op) {
    match op.kind {
        OpKind::Place => resident.push(op.vm),
        OpKind::Remove => resident.retain(|&v| v != op.vm),
        OpKind::Migrate => {}
    }
}

const VM_TYPES: [&str; 4] = ["m3.medium", "m3.large", "m3.xlarge", "c3.large"];

/// Run the scripted workload against the journal + state stack under the
/// named I/O fault preset. See the module docs for the invariants.
///
/// # Errors
///
/// [`ChaosError::UnknownPreset`] for a bad preset name;
/// [`ChaosError::Invariant`] when the stack violated a durability
/// guarantee (the failure this harness exists to surface).
pub fn run_io_chaos(
    preset: &str,
    seed: u64,
    requests: usize,
) -> Result<IoChaosOutcome, ChaosError> {
    let plan = IoFaultPlan::io_preset(preset, seed)
        .ok_or_else(|| ChaosError::UnknownPreset(preset.to_string()))?;
    // Coarse profile resolution: the durability invariants under test
    // are resolution-independent, and the score book — a pure function
    // of the catalog — is built once and shared across every reboot.
    let catalog_spec = CatalogSpec::ec2(8).with_quantizer(Quantizer {
        core_slots: 2,
        mem_levels: 4,
        disk_levels: 2,
    });
    let book = ServeState::build_book(&catalog_spec)?;
    // `live` is the daemon's in-memory view: it commits ops exactly when
    // the journal acks them, like the server's worker does.
    let mut live = ServeState::recover_with_book(&catalog_spec, book.clone(), None, &[])?;
    let mut acked_ops: Vec<Op> = Vec::new();
    let mut resident: Vec<u64> = Vec::new();
    let mut inflight: Option<Op> = None;

    let mut outcome = IoChaosOutcome {
        preset: preset.to_string(),
        seed,
        requests,
        acked: 0,
        rejected: 0,
        journal_errors: 0,
        crashes: 0,
        lost_inflight: 0,
        ghost_acks: 0,
        digest_checks: 0,
        final_digest: String::new(),
    };

    let mut disk: Vec<u8> = Vec::new();
    let mut i = 0usize;
    let final_disk: Vec<u8>;
    'sessions: loop {
        let session_plan = rearm(&plan, outcome.crashes);
        let file = FaultFile::new(Cursor::new(std::mem::take(&mut disk)), session_plan);
        let (mut journal, replay) = Journal::open(file)?;

        // Reboot verification: the durable ops must be the acked ones,
        // or the acked ones plus the single in-flight record.
        if outcome.crashes > 0 {
            if replay.ops == acked_ops {
                outcome.lost_inflight += 1;
            } else if replay.ops.len() == acked_ops.len() + 1
                && replay.ops.starts_with(&acked_ops)
                && replay.ops.last() == inflight.as_ref()
            {
                // Ghost ack: the op is durable, so the daemon's view must
                // adopt it — exactly what a recovering server does.
                if let Some(op) = replay.ops.last() {
                    live.commit(op)?;
                    note_op(&mut resident, op);
                }
                acked_ops.clone_from(&replay.ops);
                outcome.ghost_acks += 1;
            } else {
                return Err(ChaosError::Invariant(format!(
                    "replay after crash returned {} ops; expected the {} acked (± the in-flight record)",
                    replay.ops.len(),
                    acked_ops.len()
                )));
            }
            let recovered =
                ServeState::recover_with_book(&catalog_spec, book.clone(), None, &replay.ops)?;
            if recovered.digest() != live.digest() {
                return Err(ChaosError::Invariant(
                    "recovered state digest differs from the live commit path".to_string(),
                ));
            }
            outcome.digest_checks += 1;
        }

        while i < requests {
            let roll = splitmix64(seed ^ splitmix64(i as u64));
            i += 1;
            let prepared = match roll % 10 {
                6 | 7 if !resident.is_empty() => {
                    let vm = resident[(roll >> 8) as usize % resident.len()];
                    live.prepare_evict(&EvictReq {
                        id: i as u64,
                        deadline_ms: 0,
                        vm,
                    })
                    .map(|(op, _)| op)
                }
                8 | 9 if !resident.is_empty() => {
                    let vm = resident[(roll >> 8) as usize % resident.len()];
                    live.prepare_migrate(&MigrateReq {
                        id: i as u64,
                        deadline_ms: 0,
                        vm,
                    })
                    .map(|(op, _)| op)
                }
                _ => live
                    .prepare_place(&PlaceReq {
                        id: i as u64,
                        deadline_ms: 0,
                        vm_type: VM_TYPES[(roll >> 16) as usize % VM_TYPES.len()].to_string(),
                    })
                    .map(|(op, _)| op),
            };
            let op = match prepared {
                Ok(op) => op,
                Err(_typed) => {
                    outcome.rejected += 1;
                    continue;
                }
            };
            match journal.append(&op) {
                Ok(()) => {
                    live.commit(&op)?;
                    note_op(&mut resident, &op);
                    acked_ops.push(op);
                    outcome.acked += 1;
                }
                Err(JournalError::Io(e)) if is_injected_crash(&e) => {
                    outcome.crashes += 1;
                    inflight = Some(op);
                    disk = journal.into_file().into_inner().into_inner();
                    continue 'sessions;
                }
                Err(JournalError::Io(_)) => {
                    // ENOSPC or kin: typed failure, op not applied, the
                    // journal restored its tail — life goes on.
                    outcome.journal_errors += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
        final_disk = journal.into_file().into_inner().into_inner();
        break;
    }

    // Final pull-the-plug checks. First through the faulty read path:
    // whatever survives bit rot and short reads must be a checksum-
    // verified prefix of the acked ops — never fabricated records.
    let read_plan = rearm(&plan, outcome.crashes + 1);
    let faulted = FaultFile::new(Cursor::new(final_disk.clone()), read_plan);
    match Journal::open(faulted) {
        Ok((_, replay)) => {
            if !acked_ops.starts_with(&replay.ops) {
                return Err(ChaosError::Invariant(
                    "faulty-path replay returned ops that were never acked".to_string(),
                ));
            }
        }
        Err(JournalError::Io(e)) if is_injected_crash(&e) => {
            // The re-armed crash fired during recovery's truncation —
            // acceptable: recovery itself is crash-safe by idempotence.
        }
        Err(e) => return Err(e.into()),
    }

    // Then through a clean read path: the durable bytes must replay to
    // exactly the acked ops and a state digest-identical to the live one.
    let (_, clean) = Journal::open(Cursor::new(final_disk))?;
    if clean.ops != acked_ops {
        return Err(ChaosError::Invariant(format!(
            "clean replay returned {} ops, expected {} acked",
            clean.ops.len(),
            acked_ops.len()
        )));
    }
    // A fresh book, not the shared one: its digest matching the live
    // state's shows that the book is a pure function of the catalog.
    let fresh_book = ServeState::build_book(&catalog_spec)?;
    let recovered = ServeState::recover_with_book(&catalog_spec, fresh_book, None, &clean.ops)?;
    if recovered.digest() != live.digest() || recovered.book_digest() != live.book_digest() {
        return Err(ChaosError::Invariant(
            "final recovered state is not byte-identical to the live state".to_string(),
        ));
    }
    outcome.digest_checks += 1;
    outcome.final_digest = format!("{:016x}", live.digest());
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_satisfies_the_invariants() {
        for preset in IoFaultPlan::io_preset_names() {
            let outcome = run_io_chaos(preset, 42, 48).expect(preset);
            assert!(outcome.acked > 0, "{preset}: some work must land");
            assert!(outcome.digest_checks > 0, "{preset}: digests verified");
            assert!(!outcome.final_digest.is_empty(), "{preset}");
        }
    }

    #[test]
    fn crash_presets_actually_crash_and_recover() {
        for preset in ["torn-write", "lost-sync", "ghost-ack"] {
            let outcome = run_io_chaos(preset, 7, 40).expect(preset);
            assert!(outcome.crashes >= 1, "{preset}: the crash coin must fire");
            assert_eq!(
                outcome.lost_inflight + outcome.ghost_acks,
                outcome.crashes,
                "{preset}: every crash classifies as lost or ghost"
            );
        }
        let ghost = run_io_chaos("ghost-ack", 7, 40).expect("ghost-ack");
        assert!(ghost.ghost_acks >= 1, "AfterSync must resurrect a record");
        let lost = run_io_chaos("lost-sync", 7, 40).expect("lost-sync");
        assert!(lost.lost_inflight >= 1, "BeforeSync must lose the record");
    }

    #[test]
    fn disk_full_errors_are_survivable() {
        let outcome = run_io_chaos("disk-full", 3, 64).expect("disk-full");
        assert!(
            outcome.journal_errors > 0,
            "ENOSPC coins must fire at p=0.15"
        );
        assert!(outcome.acked > 0, "and other appends still land");
        assert_eq!(outcome.crashes, 0, "ENOSPC is an error, not a death");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run_io_chaos("short-io", 11, 32).expect("run a");
        let b = run_io_chaos("short-io", 11, 32).expect("run b");
        assert_eq!(a, b, "same seed, same outcome");
        let c = run_io_chaos("short-io", 12, 32).expect("run c");
        assert_ne!(a.final_digest, c.final_digest, "seed changes the workload");
    }

    #[test]
    fn unknown_preset_is_typed() {
        let err = run_io_chaos("meteor", 1, 4).expect_err("unknown");
        assert!(matches!(err, ChaosError::UnknownPreset(_)), "{err}");
    }
}
