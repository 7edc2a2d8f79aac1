//! Deterministic I/O fault injection: a seeded [`IoFaultPlan`] plus the
//! [`FaultFile`] wrapper that applies it to any storage backend.
//!
//! The serve-layer journal (and anything else that persists state) is
//! written against the [`StorageFile`] trait instead of `std::fs::File`
//! directly, so tests can swap in `FaultFile<Cursor<Vec<u8>>>` and drive
//! the exact failure modes a disk exhibits:
//!
//! - **short writes / short reads** — `write` and `read` legally return
//!   fewer bytes than asked; callers must loop.
//! - **ENOSPC** — a write fails with `os error 28` and nothing lands.
//! - **read bit-flips** — one bit of a read buffer is corrupted,
//!   exercising checksum verification on the replay path.
//! - **crash points** — the process "dies" at a chosen write or sync
//!   ordinal. [`FaultFile`] buffers writes until `sync` (modelling the
//!   page cache), so a crash leaves exactly the durable prefix behind:
//!   a torn record ([`CrashSite::DuringWrite`]), a lost-but-acked-nothing
//!   record ([`CrashSite::BeforeSync`]), or a durable-but-unacknowledged
//!   record ([`CrashSite::AfterSync`]). After a crash fires, every
//!   subsequent operation fails — the handle is poisoned, like a dead
//!   process's fd.
//!
//! All probabilistic choices are splitmix64 coins keyed by
//! `(seed, domain, op ordinal)`, matching the rest of this crate: the
//! same plan replays the same faults in the same order, always.

use crate::splitmix64;
use serde::{Deserialize, Serialize};
use std::io::{self, Cursor, Read, Seek, SeekFrom, Write};

/// Where, relative to one `(write, sync)` pair, an injected crash lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashSite {
    /// Mid-`write`: previously buffered bytes plus a coin-chosen strict
    /// prefix of the current buffer reach the backend (a torn record).
    DuringWrite,
    /// At the next `sync`: every byte buffered since the last sync is
    /// lost, as if the page cache never hit the platter.
    BeforeSync,
    /// At the next `sync`, after it durably completes: the bytes are on
    /// disk but the caller never observes success (unacknowledged work).
    AfterSync,
}

/// One scheduled crash: fires at the `ordinal`-th write call
/// ([`CrashSite::DuringWrite`]) or the `ordinal`-th sync call
/// (the two sync sites). Ordinals are 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoCrash {
    /// Which side of the write/sync pair dies.
    pub site: CrashSite,
    /// 1-based ordinal of the write or sync call that triggers it.
    pub ordinal: u64,
}

/// A seeded schedule of storage faults. The default plan is empty:
/// [`FaultFile`] with an empty plan is a transparent pass-through.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[must_use]
pub struct IoFaultPlan {
    /// Seed for the hash-based coins.
    pub seed: u64,
    /// Probability that a `write` accepts only a strict prefix.
    pub short_write_prob: f64,
    /// Probability that a `read` fills only a strict prefix.
    pub short_read_prob: f64,
    /// Probability that a `write` fails with ENOSPC (os error 28).
    pub enospc_prob: f64,
    /// Probability that one bit of a read buffer is flipped.
    pub read_bitflip_prob: f64,
    /// The scheduled crash, if any. At most one per plan: a process
    /// only dies once.
    pub crash: Option<IoCrash>,
}

impl IoFaultPlan {
    /// The empty plan: no faults, byte-transparent wrapping.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan can never inject anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.short_write_prob <= 0.0
            && self.short_read_prob <= 0.0
            && self.enospc_prob <= 0.0
            && self.read_bitflip_prob <= 0.0
            && self.crash.is_none()
    }

    /// Set the coin seed (builder style).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the short-write probability (builder style).
    pub fn with_short_writes(mut self, prob: f64) -> Self {
        self.short_write_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Set the short-read probability (builder style).
    pub fn with_short_reads(mut self, prob: f64) -> Self {
        self.short_read_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Set the ENOSPC probability (builder style).
    pub fn with_enospc(mut self, prob: f64) -> Self {
        self.enospc_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Set the read bit-flip probability (builder style).
    pub fn with_read_bitflips(mut self, prob: f64) -> Self {
        self.read_bitflip_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Schedule a crash at a 1-based write/sync ordinal (builder style).
    pub fn with_crash(mut self, site: CrashSite, ordinal: u64) -> Self {
        self.crash = Some(IoCrash { site, ordinal });
        self
    }

    /// Named presets the chaos matrix iterates. `None` for unknown names.
    #[must_use]
    pub fn io_preset(name: &str, seed: u64) -> Option<Self> {
        let plan = match name {
            "none" => Self::none(),
            "short-io" => Self::none().with_short_writes(0.4).with_short_reads(0.4),
            "disk-full" => Self::none().with_enospc(0.15),
            "bit-rot" => Self::none().with_read_bitflips(0.05),
            "torn-write" => Self::none().with_crash(CrashSite::DuringWrite, 3),
            "lost-sync" => Self::none().with_crash(CrashSite::BeforeSync, 3),
            "ghost-ack" => Self::none().with_crash(CrashSite::AfterSync, 3),
            _ => return None,
        };
        Some(plan.seeded(seed))
    }

    /// Names accepted by [`IoFaultPlan::io_preset`], in matrix order.
    #[must_use]
    pub fn io_preset_names() -> &'static [&'static str] {
        &[
            "none",
            "short-io",
            "disk-full",
            "bit-rot",
            "torn-write",
            "lost-sync",
            "ghost-ack",
        ]
    }
}

/// Independent coin domains per fault kind (see the crate docs).
const DOMAIN_IO_SHORT_WRITE: u64 = 0x494f_5357; // "IOSW"
const DOMAIN_IO_SHORT_READ: u64 = 0x494f_5352; // "IOSR"
const DOMAIN_IO_ENOSPC: u64 = 0x494f_4653; // "IOFS"
const DOMAIN_IO_BITFLIP: u64 = 0x494f_4246; // "IOBF"
const DOMAIN_IO_DRAW: u64 = 0x494f_4457; // "IODW"

/// The message carried by every error a poisoned (post-crash) handle
/// returns, and by the error the crash itself surfaces. Callers match on
/// this to distinguish an injected death from a real I/O failure.
pub const CRASH_MSG: &str = "injected crash: storage handle is dead";

fn crash_error() -> io::Error {
    io::Error::other(CRASH_MSG)
}

/// True when `err` is an injected crash from a [`FaultFile`].
#[must_use]
pub fn is_injected_crash(err: &io::Error) -> bool {
    err.to_string().contains(CRASH_MSG)
}

/// The storage surface the journal layer is written against: positioned
/// reads/writes plus explicit durability (`sync`) and truncation.
pub trait StorageFile: Read + Write + Seek {
    /// Force everything written so far to durable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Truncate the durable bytes to `len`.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

impl StorageFile for std::fs::File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_all()
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }
}

impl StorageFile for Cursor<Vec<u8>> {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "truncate length exceeds usize")
        })?;
        self.get_mut().truncate(len);
        if self.position() > len as u64 {
            self.set_position(len as u64);
        }
        Ok(())
    }
}

/// A fault-injecting wrapper over any [`StorageFile`].
///
/// Writes are buffered internally and only reach the inner backend on
/// `sync` — the wrapper's model of the OS page cache. This is what makes
/// the crash sites meaningful: [`FaultFile::into_inner`] after a crash
/// yields exactly the bytes a machine would find on disk after reboot.
///
/// Reads and seeks address the *durable* bytes only; the wrapper is for
/// append-oriented files (like a journal) that scan on open and append
/// afterwards, not for general read-after-unsynced-write patterns.
#[derive(Debug)]
pub struct FaultFile<T> {
    inner: T,
    plan: IoFaultPlan,
    /// Bytes written but not yet synced (the simulated page cache).
    pending: Vec<u8>,
    writes: u64,
    reads: u64,
    syncs: u64,
    crashed: bool,
}

impl<T: StorageFile> FaultFile<T> {
    /// Wrap a backend with a fault plan.
    pub fn new(inner: T, plan: IoFaultPlan) -> Self {
        Self {
            inner,
            plan,
            pending: Vec::new(),
            writes: 0,
            reads: 0,
            syncs: 0,
            crashed: true,
        }
        .revive()
    }

    fn revive(mut self) -> Self {
        self.crashed = false;
        self
    }

    /// True once an injected crash has fired; every later op fails.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Operation counts so far: `(writes, reads, syncs)`.
    #[must_use]
    pub fn ops(&self) -> (u64, u64, u64) {
        (self.writes, self.reads, self.syncs)
    }

    /// Unwrap, discarding unsynced bytes — the post-reboot view of the
    /// storage. This is the "pull the plug" primitive recovery tests use.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// A coin in `[0, 1)` keyed by `(domain, ordinal)`.
    fn unit(&self, domain: u64, ordinal: u64) -> f64 {
        let h = splitmix64(self.plan.seed ^ domain.rotate_left(32) ^ splitmix64(ordinal));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A draw in `[0, bound)` for fault parameters (tear length, flip
    /// position), independent of the fire/no-fire coins.
    fn draw(&self, ordinal: u64, salt: u64, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        let h = splitmix64(
            self.plan.seed ^ DOMAIN_IO_DRAW.rotate_left(32) ^ splitmix64(ordinal) ^ salt,
        );
        (h % bound as u64) as usize
    }

    fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.inner.seek(SeekFrom::End(0))?;
        self.inner.write_all(&self.pending)?;
        self.pending.clear();
        Ok(())
    }

    fn guard(&self) -> io::Result<()> {
        if self.crashed {
            Err(crash_error())
        } else {
            Ok(())
        }
    }
}

impl<T: StorageFile> Read for FaultFile<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.guard()?;
        self.reads += 1;
        let ord = self.reads;
        let want = buf.len();
        let limit = if want > 1 && self.unit(DOMAIN_IO_SHORT_READ, ord) < self.plan.short_read_prob
        {
            1 + self.draw(ord, 1, want - 1)
        } else {
            want
        };
        let n = self.inner.read(&mut buf[..limit])?;
        if n > 0 && self.unit(DOMAIN_IO_BITFLIP, ord) < self.plan.read_bitflip_prob {
            let pos = self.draw(ord, 2, n);
            let bit = self.draw(ord, 3, 8) as u32;
            buf[pos] ^= 1u8 << bit;
        }
        Ok(n)
    }
}

impl<T: StorageFile> Write for FaultFile<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.guard()?;
        self.writes += 1;
        let ord = self.writes;
        if let Some(IoCrash {
            site: CrashSite::DuringWrite,
            ordinal,
        }) = self.plan.crash
        {
            if ordinal == ord {
                // The kernel persisted everything buffered plus a strict
                // prefix of this write, then the machine died.
                self.flush_pending()?;
                let keep = self.draw(ord, 4, buf.len());
                self.inner.seek(SeekFrom::End(0))?;
                self.inner.write_all(&buf[..keep])?;
                self.inner.sync()?;
                self.crashed = true;
                return Err(crash_error());
            }
        }
        if self.unit(DOMAIN_IO_ENOSPC, ord) < self.plan.enospc_prob {
            return Err(io::Error::from_raw_os_error(28));
        }
        let take = if buf.len() > 1
            && self.unit(DOMAIN_IO_SHORT_WRITE, ord) < self.plan.short_write_prob
        {
            1 + self.draw(ord, 5, buf.len() - 1)
        } else {
            buf.len()
        };
        self.pending.extend_from_slice(&buf[..take]);
        Ok(take)
    }

    fn flush(&mut self) -> io::Result<()> {
        // Durability comes from `sync`; flush is a no-op like libc's.
        self.guard()
    }
}

impl<T: StorageFile> Seek for FaultFile<T> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.guard()?;
        self.inner.seek(pos)
    }
}

impl<T: StorageFile> StorageFile for FaultFile<T> {
    fn sync(&mut self) -> io::Result<()> {
        self.guard()?;
        self.syncs += 1;
        let ord = self.syncs;
        match self.plan.crash {
            Some(IoCrash {
                site: CrashSite::BeforeSync,
                ordinal,
            }) if ordinal == ord => {
                // Page cache lost wholesale: nothing since the last sync
                // survives.
                self.pending.clear();
                self.crashed = true;
                Err(crash_error())
            }
            Some(IoCrash {
                site: CrashSite::AfterSync,
                ordinal,
            }) if ordinal == ord => {
                // Durable, but the caller never hears back.
                self.flush_pending()?;
                self.inner.sync()?;
                self.crashed = true;
                Err(crash_error())
            }
            _ => {
                self.flush_pending()?;
                self.inner.sync()
            }
        }
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.guard()?;
        self.pending.clear();
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Cursor<Vec<u8>> {
        Cursor::new(Vec::new())
    }

    fn write_record(f: &mut impl StorageFile, payload: &[u8]) -> io::Result<()> {
        f.write_all(payload)?;
        f.sync()
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut f = FaultFile::new(mem(), IoFaultPlan::none());
        write_record(&mut f, b"hello ").expect("write");
        write_record(&mut f, b"world").expect("write");
        assert!(!f.crashed());
        assert_eq!(f.into_inner().into_inner(), b"hello world");
    }

    #[test]
    fn writes_are_invisible_until_sync() {
        let mut f = FaultFile::new(mem(), IoFaultPlan::none());
        f.write_all(b"buffered").expect("write");
        assert!(f.inner.get_ref().is_empty(), "unsynced bytes stay pending");
        f.sync().expect("sync");
        assert_eq!(f.into_inner().into_inner(), b"buffered");
    }

    #[test]
    fn short_writes_deliver_all_bytes_through_write_all() {
        let plan = IoFaultPlan::none().with_short_writes(0.9).seeded(7);
        let mut f = FaultFile::new(mem(), plan);
        let payload: Vec<u8> = (0u16..600).map(|i| (i % 251) as u8).collect();
        write_record(&mut f, &payload).expect("write_all loops over shorts");
        let (writes, _, _) = f.ops();
        assert!(writes > 1, "short writes must split the call");
        assert_eq!(f.into_inner().into_inner(), payload);
    }

    #[test]
    fn short_reads_deliver_all_bytes_through_read_exact() {
        let payload: Vec<u8> = (0u16..600).map(|i| (i % 253) as u8).collect();
        let plan = IoFaultPlan::none().with_short_reads(0.9).seeded(11);
        let mut f = FaultFile::new(Cursor::new(payload.clone()), plan);
        let mut back = vec![0u8; payload.len()];
        f.read_exact(&mut back).expect("read_exact loops");
        let (_, reads, _) = f.ops();
        assert!(reads > 1, "short reads must split the call");
        assert_eq!(back, payload);
    }

    #[test]
    fn enospc_is_os_error_28_and_nothing_lands() {
        let plan = IoFaultPlan::none().with_enospc(1.0).seeded(3);
        let mut f = FaultFile::new(mem(), plan);
        let err = f.write(b"doomed").expect_err("full disk");
        assert_eq!(err.raw_os_error(), Some(28));
        assert!(!f.crashed(), "ENOSPC is an error, not a death");
        f.sync().expect("sync of nothing succeeds");
        assert!(f.into_inner().into_inner().is_empty());
    }

    #[test]
    fn bitflips_corrupt_exactly_one_bit() {
        let payload = vec![0u8; 64];
        let plan = IoFaultPlan::none().with_read_bitflips(1.0).seeded(5);
        let mut f = FaultFile::new(Cursor::new(payload), plan);
        let mut back = vec![0u8; 64];
        f.read_exact(&mut back).expect("read");
        let flipped: u32 = back.iter().map(|b| b.count_ones()).sum();
        assert!(flipped >= 1, "at least one bit must flip");
    }

    #[test]
    fn crash_during_write_leaves_a_strict_prefix() {
        let plan = IoFaultPlan::none()
            .with_crash(CrashSite::DuringWrite, 2)
            .seeded(9);
        let mut f = FaultFile::new(mem(), plan);
        write_record(&mut f, b"record-one|").expect("first record lands");
        let err = f.write(b"record-two|").expect_err("dies mid-write");
        assert!(is_injected_crash(&err));
        assert!(f.crashed());
        let bytes = f.into_inner().into_inner();
        assert!(bytes.starts_with(b"record-one|"));
        let tail = &bytes[b"record-one|".len()..];
        assert!(
            tail.len() < b"record-two|".len(),
            "second record must be torn, got {} bytes",
            tail.len()
        );
        assert_eq!(tail, &b"record-two|"[..tail.len()]);
    }

    #[test]
    fn crash_before_sync_loses_the_record() {
        let plan = IoFaultPlan::none()
            .with_crash(CrashSite::BeforeSync, 2)
            .seeded(1);
        let mut f = FaultFile::new(mem(), plan);
        write_record(&mut f, b"durable|").expect("first record lands");
        f.write_all(b"lost|").expect("write buffers fine");
        let err = f.sync().expect_err("dies before the platter");
        assert!(is_injected_crash(&err));
        assert_eq!(f.into_inner().into_inner(), b"durable|");
    }

    #[test]
    fn crash_after_sync_keeps_the_record() {
        let plan = IoFaultPlan::none()
            .with_crash(CrashSite::AfterSync, 2)
            .seeded(1);
        let mut f = FaultFile::new(mem(), plan);
        write_record(&mut f, b"durable|").expect("first record lands");
        f.write_all(b"unacked|").expect("write buffers fine");
        let err = f.sync().expect_err("dies after the platter");
        assert!(is_injected_crash(&err));
        assert_eq!(f.into_inner().into_inner(), b"durable|unacked|");
    }

    #[test]
    fn poisoned_handle_fails_every_operation() {
        let plan = IoFaultPlan::none()
            .with_crash(CrashSite::BeforeSync, 1)
            .seeded(1);
        let mut f = FaultFile::new(mem(), plan);
        f.write_all(b"x").expect("buffers");
        assert!(f.sync().is_err());
        assert!(is_injected_crash(&f.write(b"y").expect_err("dead")));
        assert!(is_injected_crash(&f.read(&mut [0u8]).expect_err("dead")));
        assert!(is_injected_crash(
            &f.seek(SeekFrom::Start(0)).expect_err("dead")
        ));
        assert!(is_injected_crash(&f.sync().expect_err("dead")));
        assert!(is_injected_crash(&f.truncate(0).expect_err("dead")));
    }

    #[test]
    fn coins_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = IoFaultPlan::none()
                .with_short_writes(0.5)
                .with_enospc(0.1)
                .seeded(seed);
            let mut f = FaultFile::new(mem(), plan);
            let mut journal = Vec::new();
            for i in 0..50u8 {
                match f.write(&[i; 16]) {
                    Ok(n) => journal.push(n as i64),
                    Err(e) => journal.push(-i64::from(e.raw_os_error().unwrap_or(0))),
                }
            }
            journal
        };
        assert_eq!(run(42), run(42), "same seed, same faults");
        assert_ne!(run(42), run(43), "different seed, different faults");
    }

    #[test]
    fn cursor_truncate_clamps_position() {
        let mut c = Cursor::new(b"0123456789".to_vec());
        c.set_position(8);
        StorageFile::truncate(&mut c, 4).expect("truncate");
        assert_eq!(c.get_ref().len(), 4);
        assert!(c.position() <= 4);
    }

    #[test]
    fn io_presets_cover_the_matrix() {
        for name in IoFaultPlan::io_preset_names() {
            let plan = IoFaultPlan::io_preset(name, 42).expect("known preset");
            if *name == "none" {
                assert!(plan.is_empty());
            } else {
                assert!(!plan.is_empty(), "{name} must inject something");
            }
        }
        assert!(IoFaultPlan::io_preset("meteor", 42).is_none());
    }

    #[test]
    fn plan_roundtrips_through_serde() {
        let plan = IoFaultPlan::none()
            .with_short_writes(0.2)
            .with_crash(CrashSite::AfterSync, 7)
            .seeded(99);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: IoFaultPlan = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(plan, back);
    }
}
