//! Write-ahead journal + versioned snapshot: the daemon's durability.
//!
//! **Journal format.** A flat sequence of records, each
//! `[len u32 LE][crc32 u32 LE][payload: len bytes]` where the payload is
//! the JSON encoding of one applied [`Op`]. Appends are `write_all` +
//! `sync` — the op is applied to the in-memory cluster only after the
//! sync returns, so an acknowledged mutation is always on disk.
//!
//! **Torn-tail truncation.** Replay scans records from the start and
//! stops at the first incomplete header, oversized length, checksum
//! mismatch, or unparsable payload — everything before that point is the
//! durable prefix, everything after is a torn tail from a crash (or rot)
//! and is truncated away. A crash can therefore lose at most the single
//! in-flight unacknowledged record, never a committed one.
//!
//! **Snapshot.** Compaction serializes the full placement map (plus the
//! VM-id allocator watermark) into `[magic "PVSN"][len][crc][payload]`,
//! written to a temp file, synced, then atomically renamed over the
//! current snapshot — only then is the journal truncated. The snapshot
//! carries a monotonically increasing `version` and the `catalog_hash`
//! of the PM/VM catalog it was cut under; recovery refuses a snapshot
//! whose catalog hash does not match the running daemon's, because score
//! tables and assignments are only meaningful against their own catalog.
//!
//! Everything here is generic over [`StorageFile`], so the recovery
//! tests drive the exact code path through `FaultFile<Cursor<Vec<u8>>>`
//! with crash-point coins instead of mocking any of it.

use pagerankvm::cache::crc32;
use prvm_faults::StorageFile;
use prvm_model::{Assignment, VmSpec};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, SeekFrom};
use std::path::{Path, PathBuf};

/// Upper bound on one journal/snapshot record's payload.
pub const MAX_RECORD: u32 = 16 << 20;
/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PVSN";

/// What a journal record did. A unit enum (vendored-serde friendly);
/// the op's meaning for each field is documented on [`Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// A VM was placed.
    Place,
    /// A VM was removed.
    Remove,
    /// A VM was migrated.
    Migrate,
}

/// One applied state mutation — the *decision*, not the request, so
/// replay is placer-independent and bit-exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Op {
    /// What happened.
    pub kind: OpKind,
    /// The VM the op concerns.
    pub vm: u64,
    /// Place: target PM. Remove: source PM (audit trail). Migrate:
    /// destination PM.
    pub pm: usize,
    /// The VM's spec — present for `Place` (replay must know what to
    /// place), absent otherwise.
    pub spec: Option<VmSpec>,
    /// Core assignment for `Place`/`Migrate`; empty for `Remove`.
    pub cores: Vec<usize>,
    /// Disk assignment for `Place`/`Migrate`; empty for `Remove`.
    pub disks: Vec<usize>,
}

impl Op {
    /// A placement op.
    #[must_use]
    pub fn place(vm: u64, pm: usize, spec: VmSpec, assignment: &Assignment) -> Self {
        Self {
            kind: OpKind::Place,
            vm,
            pm,
            spec: Some(spec),
            cores: assignment.cores.clone(),
            disks: assignment.disks.clone(),
        }
    }

    /// A removal op.
    #[must_use]
    pub fn remove(vm: u64, pm: usize) -> Self {
        Self {
            kind: OpKind::Remove,
            vm,
            pm,
            spec: None,
            cores: Vec::new(),
            disks: Vec::new(),
        }
    }

    /// A migration op (destination side).
    #[must_use]
    pub fn migrate(vm: u64, to: usize, assignment: &Assignment) -> Self {
        Self {
            kind: OpKind::Migrate,
            vm,
            pm: to,
            spec: None,
            cores: assignment.cores.clone(),
            disks: assignment.disks.clone(),
        }
    }

    /// The op's assignment (cores + disks) as a model [`Assignment`].
    #[must_use]
    pub fn assignment(&self) -> Assignment {
        Assignment::new(self.cores.clone(), self.disks.clone())
    }
}

/// Journal/snapshot layer failures.
#[derive(Debug)]
pub enum JournalError {
    /// The storage failed (possibly an injected crash — see
    /// [`prvm_faults::io::is_injected_crash`]).
    Io(io::Error),
    /// A snapshot exists but was cut under a different catalog.
    CatalogMismatch {
        /// Hash of the running daemon's catalog.
        want: u64,
        /// Hash recorded in the snapshot.
        got: u64,
    },
    /// A snapshot (not a journal tail — those truncate) is structurally
    /// broken: recovery cannot proceed without operator action.
    Corrupt(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "journal I/O: {e}"),
            Self::CatalogMismatch { want, got } => write!(
                f,
                "snapshot catalog hash 0x{got:016x} does not match running catalog 0x{want:016x}"
            ),
            Self::Corrupt(detail) => write!(f, "snapshot corrupt: {detail}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// What replay found in a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The valid ops, in append order.
    pub ops: Vec<Op>,
    /// Bytes of torn tail truncated away (0 for a clean journal).
    pub truncated_bytes: u64,
}

fn fixed4(buf: &[u8], at: usize) -> Option<[u8; 4]> {
    buf.get(at..at.checked_add(4)?)?.try_into().ok()
}

/// An open write-ahead journal positioned at its tail.
#[derive(Debug)]
pub struct Journal<F: StorageFile> {
    file: F,
    records: u64,
    end: u64,
}

impl<F: StorageFile> Journal<F> {
    /// Open a journal: scan every valid record, truncate the torn tail
    /// (if any), and position the file for appends.
    ///
    /// # Errors
    ///
    /// Only I/O failures. Corruption is not an error here — it marks the
    /// end of the durable prefix.
    pub fn open(mut file: F) -> Result<(Self, Replay), JournalError> {
        file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut ops = Vec::new();
        let mut off = 0usize;
        while let Some(len) = fixed4(&bytes, off).map(u32::from_le_bytes) {
            if len > MAX_RECORD {
                break;
            }
            let Some(want_crc) = fixed4(&bytes, off + 4).map(u32::from_le_bytes) else {
                break;
            };
            let Some(payload) = off
                .checked_add(8)
                .and_then(|body| bytes.get(body..body + len as usize))
            else {
                break;
            };
            if crc32(payload) != want_crc {
                break;
            }
            let Ok(op) = serde_json::from_slice::<Op>(payload) else {
                break;
            };
            ops.push(op);
            off += 8 + len as usize;
        }
        let truncated_bytes = (bytes.len() - off) as u64;
        if truncated_bytes > 0 {
            file.truncate(off as u64)?;
            file.sync()?;
        }
        file.seek(SeekFrom::Start(off as u64))?;
        let records = ops.len() as u64;
        Ok((
            Self {
                file,
                records,
                end: off as u64,
            },
            Replay {
                ops,
                truncated_bytes,
            },
        ))
    }

    /// Append one op durably: the record is on disk when this returns
    /// `Ok`. On error the op MUST NOT be applied to in-memory state —
    /// the caller replies with a typed journal error instead.
    ///
    /// # Errors
    ///
    /// I/O failures (including injected crashes and ENOSPC); encoding
    /// failures surface as [`JournalError::Corrupt`].
    pub fn append(&mut self, op: &Op) -> Result<(), JournalError> {
        let payload = serde_json::to_vec(op).map_err(|e| JournalError::Corrupt(e.to_string()))?;
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_RECORD)
            .ok_or_else(|| JournalError::Corrupt("record exceeds MAX_RECORD".to_string()))?;
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        if let Err(e) = self.file.write_all(&record).and_then(|()| self.file.sync()) {
            // A failed append leaves the tail position unknown (a torn
            // record may be buffered or even durable). Restore the
            // last-known-good tail so later appends cannot land after
            // garbage; if the handle is dead this fails too, harmlessly.
            let _ = self.file.truncate(self.end);
            return Err(e.into());
        }
        self.end += record.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Valid records currently in the journal.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Truncate to empty — called only after a snapshot that covers
    /// every journaled op has been durably committed.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn reset(&mut self) -> Result<(), JournalError> {
        self.file.truncate(0)?;
        self.file.sync()?;
        self.file.seek(SeekFrom::Start(0))?;
        self.end = 0;
        self.records = 0;
        Ok(())
    }

    /// Unwrap the underlying storage (test/kill harness).
    pub fn into_file(self) -> F {
        self.file
    }
}

/// One resident VM in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// The VM's id.
    pub vm: u64,
    /// Its host PM.
    pub pm: usize,
    /// Its spec.
    pub spec: VmSpec,
    /// Core assignment.
    pub cores: Vec<usize>,
    /// Disk assignment.
    pub disks: Vec<usize>,
}

/// A full-state snapshot: replaying it into an empty cluster, then
/// replaying the journal on top, reproduces the pre-crash cluster
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Monotonically increasing compaction counter.
    pub version: u64,
    /// Hash of the PM/VM catalog this snapshot was cut under.
    pub catalog_hash: u64,
    /// The VM-id allocator watermark at the cut.
    pub next_vm_id: u64,
    /// Every resident VM, sorted by id.
    pub placements: Vec<Placement>,
}

/// Write a snapshot to `file` (truncating it first).
///
/// # Errors
///
/// I/O failures; encoding failures as [`JournalError::Corrupt`].
pub fn write_snapshot<F: StorageFile>(file: &mut F, snap: &Snapshot) -> Result<(), JournalError> {
    let payload = serde_json::to_vec(snap).map_err(|e| JournalError::Corrupt(e.to_string()))?;
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_RECORD)
        .ok_or_else(|| JournalError::Corrupt("snapshot exceeds MAX_RECORD".to_string()))?;
    file.truncate(0)?;
    file.seek(SeekFrom::Start(0))?;
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    file.write_all(&out)?;
    file.sync()?;
    Ok(())
}

/// Read a snapshot from `file`. `Ok(None)` for an empty file (no
/// snapshot has ever been cut).
///
/// # Errors
///
/// [`JournalError::Corrupt`] for a non-empty file that is not a valid
/// snapshot — unlike a journal tail, a broken snapshot cannot be
/// silently truncated (it is the base state), so it surfaces loudly.
pub fn read_snapshot<F: StorageFile>(file: &mut F) -> Result<Option<Snapshot>, JournalError> {
    file.seek(SeekFrom::Start(0))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.is_empty() {
        return Ok(None);
    }
    if bytes.get(..4) != Some(&SNAPSHOT_MAGIC[..]) {
        return Err(JournalError::Corrupt("bad snapshot magic".to_string()));
    }
    let Some(len) = fixed4(&bytes, 4).map(u32::from_le_bytes) else {
        return Err(JournalError::Corrupt(
            "snapshot header truncated".to_string(),
        ));
    };
    if len > MAX_RECORD {
        return Err(JournalError::Corrupt(format!(
            "snapshot length {len} oversized"
        )));
    }
    let Some(want_crc) = fixed4(&bytes, 8).map(u32::from_le_bytes) else {
        return Err(JournalError::Corrupt(
            "snapshot header truncated".to_string(),
        ));
    };
    let Some(payload) = bytes.get(12..12 + len as usize) else {
        return Err(JournalError::Corrupt("snapshot body truncated".to_string()));
    };
    if crc32(payload) != want_crc {
        return Err(JournalError::Corrupt(
            "snapshot checksum mismatch".to_string(),
        ));
    }
    let snap = serde_json::from_slice::<Snapshot>(payload)
        .map_err(|e| JournalError::Corrupt(e.to_string()))?;
    Ok(Some(snap))
}

/// On-disk layout of one daemon's durable state: a directory holding
/// `journal.wal` and `snapshot.bin` (plus `snapshot.tmp` transiently
/// during compaction).
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Open (creating if needed) a state directory.
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The state directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.wal")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    fn snapshot_tmp_path(&self) -> PathBuf {
        self.dir.join("snapshot.tmp")
    }

    /// The persisted score-book artifact (`PVSB`, DESIGN.md §15). Kept
    /// beside the journal: the book is derived state, but deriving it is
    /// the expensive part of a cold start.
    #[must_use]
    pub fn book_path(&self) -> PathBuf {
        self.dir.join("scores.pvsb")
    }

    /// Open (creating if needed) the journal file and replay it.
    ///
    /// # Errors
    ///
    /// Propagates [`JournalError`].
    pub fn open_journal(&self) -> Result<(Journal<std::fs::File>, Replay), JournalError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.journal_path())?;
        Journal::open(file)
    }

    /// Load the current snapshot, `None` if one was never cut.
    ///
    /// # Errors
    ///
    /// Propagates [`JournalError`] (including [`JournalError::Corrupt`]).
    pub fn load_snapshot(&self) -> Result<Option<Snapshot>, JournalError> {
        let mut file = match std::fs::File::open(self.snapshot_path()) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        read_snapshot(&mut file)
    }

    /// Durably commit a snapshot: write to a temp file, sync, atomically
    /// rename over the current snapshot. The journal is NOT touched —
    /// the caller resets it only after this returns `Ok`.
    ///
    /// # Errors
    ///
    /// Propagates [`JournalError`].
    pub fn commit_snapshot(&self, snap: &Snapshot) -> Result<(), JournalError> {
        let tmp = self.snapshot_tmp_path();
        {
            let mut file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            write_snapshot(&mut file, snap)?;
        }
        std::fs::rename(&tmp, self.snapshot_path())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_faults::{CrashSite, FaultFile, IoFaultPlan};
    use prvm_model::catalog;
    use std::io::Cursor;

    fn mem() -> Cursor<Vec<u8>> {
        Cursor::new(Vec::new())
    }

    fn sample_ops() -> Vec<Op> {
        let a = Assignment::new(vec![0, 1], vec![0]);
        vec![
            Op::place(0, 2, catalog::vm_m3_large(), &a),
            Op::place(
                1,
                2,
                catalog::vm_m3_medium(),
                &Assignment::new(vec![2], vec![1]),
            ),
            Op::migrate(0, 3, &a),
            Op::remove(1, 2),
        ]
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let ops = sample_ops();
        let (mut journal, replay) = Journal::open(mem()).expect("open empty");
        assert!(replay.ops.is_empty());
        for op in &ops {
            journal.append(op).expect("append");
        }
        assert_eq!(journal.records(), 4);
        let (journal2, replay2) = Journal::open(journal.into_file()).expect("reopen");
        assert_eq!(replay2.ops, ops);
        assert_eq!(replay2.truncated_bytes, 0);
        assert_eq!(journal2.records(), 4);
    }

    #[test]
    fn appends_continue_after_reopen() {
        let ops = sample_ops();
        let (mut journal, _) = Journal::open(mem()).expect("open");
        journal.append(&ops[0]).expect("append");
        let (mut journal, _) = Journal::open(journal.into_file()).expect("reopen");
        journal.append(&ops[1]).expect("append after reopen");
        let (_, replay) = Journal::open(journal.into_file()).expect("final open");
        assert_eq!(replay.ops, ops[..2].to_vec());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let ops = sample_ops();
        let (mut journal, _) = Journal::open(mem()).expect("open");
        for op in &ops {
            journal.append(op).expect("append");
        }
        let mut bytes = journal.into_file().into_inner();
        let full = bytes.len();
        bytes.extend_from_slice(&[0x13, 0x00, 0x00]); // torn header
        let (journal, replay) = Journal::open(Cursor::new(bytes)).expect("open torn");
        assert_eq!(replay.ops, ops);
        assert_eq!(replay.truncated_bytes, 3);
        assert_eq!(journal.into_file().into_inner().len(), full, "tail gone");
    }

    #[test]
    fn corrupt_record_truncates_it_and_everything_after() {
        let ops = sample_ops();
        let (mut journal, _) = Journal::open(mem()).expect("open");
        let mut offsets = vec![0u64];
        for op in &ops {
            journal.append(op).expect("append");
            offsets.push(journal.end);
        }
        let mut bytes = journal.into_file().into_inner();
        // Flip a payload bit inside record 2 (0-indexed).
        let target = offsets[2] as usize + 8;
        bytes[target] ^= 0x01;
        let (_, replay) = Journal::open(Cursor::new(bytes)).expect("open corrupt");
        assert_eq!(replay.ops, ops[..2].to_vec(), "prefix survives");
        assert!(replay.truncated_bytes > 0);
    }

    #[test]
    fn reset_empties_the_journal() {
        let (mut journal, _) = Journal::open(mem()).expect("open");
        for op in &sample_ops() {
            journal.append(op).expect("append");
        }
        journal.reset().expect("reset");
        assert_eq!(journal.records(), 0);
        let (_, replay) = Journal::open(journal.into_file()).expect("reopen");
        assert!(replay.ops.is_empty());
    }

    #[test]
    fn crash_during_append_loses_only_the_inflight_record() {
        let ops = sample_ops();
        for site in [
            CrashSite::DuringWrite,
            CrashSite::BeforeSync,
            CrashSite::AfterSync,
        ] {
            // Crash on the 3rd logical record. One append = one write +
            // one sync, so both ordinals are 3.
            let plan = IoFaultPlan::none().with_crash(site, 3).seeded(1);
            let (mut journal, _) =
                Journal::open(FaultFile::new(mem(), plan)).expect("open faulted");
            let mut acked = Vec::new();
            let mut crashed = false;
            for op in &ops {
                match journal.append(op) {
                    Ok(()) => acked.push(op.clone()),
                    Err(JournalError::Io(e)) => {
                        assert!(prvm_faults::io::is_injected_crash(&e), "{e}");
                        crashed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            assert!(crashed, "{site:?} must fire");
            assert_eq!(acked.len(), 2, "{site:?}: two records acked before death");
            // Reboot: recover from the durable bytes only.
            let disk = journal.into_file().into_inner();
            let (_, replay) = Journal::open(Cursor::new(disk.into_inner())).expect("recover");
            match site {
                // Torn or lost in-flight record: exactly the acked ops.
                CrashSite::DuringWrite | CrashSite::BeforeSync => {
                    assert_eq!(replay.ops, acked, "{site:?}");
                }
                // Durable but unacknowledged: acked + the in-flight op.
                CrashSite::AfterSync => {
                    assert_eq!(replay.ops, ops[..3].to_vec(), "{site:?}");
                }
            }
        }
    }

    #[test]
    fn enospc_append_fails_cleanly_and_journal_stays_usable() {
        let ops = sample_ops();
        // ENOSPC on exactly the second write ordinal via probability 1.0
        // would kill every append; instead alternate manually.
        let plan = IoFaultPlan::none().with_enospc(0.5).seeded(7);
        let (mut journal, _) = Journal::open(FaultFile::new(mem(), plan)).expect("open");
        let mut acked = Vec::new();
        for op in ops.iter().cycle().take(32) {
            match journal.append(op) {
                Ok(()) => acked.push(op.clone()),
                Err(JournalError::Io(e)) => {
                    assert_eq!(e.raw_os_error(), Some(28), "only ENOSPC expected: {e}");
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(!acked.is_empty(), "some appends must succeed at p=0.5");
        let disk = journal.into_file().into_inner().into_inner();
        let (_, replay) = Journal::open(Cursor::new(disk)).expect("recover");
        // Failed appends restore the tail, so exactly the acked records
        // survive — no torn middles, no lost commits.
        assert_eq!(replay.ops, acked);
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = Snapshot {
            version: 3,
            catalog_hash: 0xDEAD_BEEF,
            next_vm_id: 17,
            placements: vec![Placement {
                vm: 5,
                pm: 1,
                spec: catalog::vm_m3_large(),
                cores: vec![0, 1],
                disks: vec![0],
            }],
        };
        let mut file = mem();
        write_snapshot(&mut file, &snap).expect("write");
        let back = read_snapshot(&mut file).expect("read").expect("present");
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_file_reads_as_none() {
        assert_eq!(read_snapshot(&mut mem()).expect("read"), None);
    }

    #[test]
    fn corrupt_snapshot_is_a_loud_error() {
        let snap = Snapshot {
            version: 1,
            catalog_hash: 1,
            next_vm_id: 0,
            placements: Vec::new(),
        };
        let mut file = mem();
        write_snapshot(&mut file, &snap).expect("write");
        let mut bytes = file.into_inner();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = read_snapshot(&mut Cursor::new(bytes)).expect_err("corrupt");
        assert!(matches!(err, JournalError::Corrupt(_)), "{err}");
    }

    #[test]
    fn store_survives_a_full_cycle_on_real_files() {
        let dir =
            std::env::temp_dir().join(format!("prvm-serve-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("open store");
        assert!(store.load_snapshot().expect("no snapshot yet").is_none());

        let ops = sample_ops();
        {
            let (mut journal, replay) = store.open_journal().expect("journal");
            assert!(replay.ops.is_empty());
            for op in &ops {
                journal.append(op).expect("append");
            }
        }
        let snap = Snapshot {
            version: 1,
            catalog_hash: 42,
            next_vm_id: 2,
            placements: Vec::new(),
        };
        store.commit_snapshot(&snap).expect("commit");
        assert_eq!(store.load_snapshot().expect("load"), Some(snap));
        let (mut journal, replay) = store.open_journal().expect("reopen journal");
        assert_eq!(replay.ops, ops, "journal survived the process boundary");
        journal.reset().expect("reset after compaction");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
