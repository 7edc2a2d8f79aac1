//! The daemon's framed wire protocol.
//!
//! Every message is one frame:
//!
//! ```text
//! [magic u16 LE = 0x5056] [version u8] [kind u8] [len u32 LE] [crc32 u32 LE] [payload: len bytes]
//! ```
//!
//! The payload is the JSON encoding of the per-kind DTO struct below.
//! The kind byte — not a serde enum tag — discriminates message types,
//! so the DTOs stay plain structs (the vendored serde derive supports
//! structs and unit enums only) and a decoder can reject unknown kinds
//! before touching the payload.
//!
//! Parsing is total: any byte stream either yields valid frames or a
//! typed [`ProtocolError`]; the decoder never panics and never consumes
//! more than one frame's bytes per frame ([`FrameDecoder::next_frame`]
//! leaves everything after the frame in the buffer). Oversized length
//! prefixes are rejected from the header alone, so a hostile peer cannot
//! make the decoder buffer unbounded payloads.

use pagerankvm::cache::crc32;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Frame magic: `"PV"` little-endian.
pub const MAGIC: u16 = 0x5056;
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Upper bound on one frame's payload. Placement requests are tiny;
/// stats responses are bounded by cluster size. 1 MiB is generous.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Message kind bytes. Requests are `1..=6`, responses `65..=82`.
pub mod kind {
    /// Place a VM of a named catalog type.
    pub const PLACE: u8 = 1;
    /// Evict (remove) a resident VM.
    pub const EVICT: u8 = 2;
    /// Migrate a resident VM to a new PM chosen by the placer.
    pub const MIGRATE: u8 = 3;
    /// Read cluster + process statistics.
    pub const STATS: u8 = 4;
    /// Force a compaction (journal → snapshot).
    pub const SNAPSHOT: u8 = 5;
    /// Ask the daemon to drain and exit.
    pub const DRAIN: u8 = 6;

    /// Successful placement.
    pub const PLACED: u8 = 65;
    /// Successful eviction.
    pub const EVICTED: u8 = 66;
    /// Successful migration.
    pub const MIGRATED: u8 = 67;
    /// Statistics reply.
    pub const STATS_REPLY: u8 = 68;
    /// Compaction done.
    pub const SNAPSHOTTED: u8 = 69;
    /// Drain acknowledged; the daemon is shutting down.
    pub const DRAINING: u8 = 70;
    /// Load shed: the admission queue was full. Retryable.
    pub const SHED: u8 = 80;
    /// Deadline exceeded before the worker reached the request.
    pub const TIMEOUT: u8 = 81;
    /// Typed request failure (see [`super::ErrorCode`]).
    pub const ERROR: u8 = 82;

    /// True for kind bytes this protocol version defines.
    #[must_use]
    pub fn is_known(k: u8) -> bool {
        matches!(k, PLACE..=DRAIN | PLACED..=DRAINING | SHED..=ERROR)
    }
}

/// A typed wire-protocol failure. Every malformed input maps to exactly
/// one of these; none of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic(u16),
    /// The version byte was not [`VERSION`].
    BadVersion(u8),
    /// The kind byte names no message this version defines.
    UnknownKind(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload checksum did not match the header's.
    CrcMismatch {
        /// CRC the header claimed.
        want: u32,
        /// CRC of the received payload.
        got: u32,
    },
    /// The payload was not the JSON document the kind byte promised.
    BadPayload(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic(m) => write!(f, "bad frame magic 0x{m:04x}"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            Self::Oversized(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            Self::CrcMismatch { want, got } => {
                write!(
                    f,
                    "payload crc mismatch: header 0x{want:08x}, body 0x{got:08x}"
                )
            }
            Self::BadPayload(detail) => write!(f, "malformed payload: {detail}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// One decoded frame: a known kind byte plus its checksum-verified
/// payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind (see [`kind`]).
    pub kind: u8,
    /// Raw payload (JSON of the kind's DTO).
    pub payload: Vec<u8>,
}

/// Encode one frame.
///
/// # Errors
///
/// [`ProtocolError::Oversized`] when the payload exceeds [`MAX_PAYLOAD`],
/// [`ProtocolError::UnknownKind`] for a kind this version does not define.
pub fn encode_frame(kind_byte: u8, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    if !kind::is_known(kind_byte) {
        return Err(ProtocolError::UnknownKind(kind_byte));
    }
    let len = u32::try_from(payload.len()).map_err(|_| ProtocolError::Oversized(u32::MAX))?;
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized(len));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind_byte);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Read `N` bytes at `at` as a fixed array, if present.
fn fixed<const N: usize>(buf: &[u8], at: usize) -> Option<[u8; N]> {
    buf.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// Incremental frame decoder: feed bytes as they arrive, pull frames as
/// they complete. A returned error poisons nothing — but the server
/// closes the connection on any protocol error, because frame
/// boundaries are unrecoverable once a header is bad.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (complete frames not yet pulled plus any
    /// partial tail).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// The next complete frame, `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Any structural violation of the protocol, typed. The offending
    /// bytes stay in the buffer; callers should drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtocolError> {
        let Some(magic) = fixed::<2>(&self.buf, 0).map(u16::from_le_bytes) else {
            return Ok(None);
        };
        if magic != MAGIC {
            return Err(ProtocolError::BadMagic(magic));
        }
        let Some([version, kind_byte]) = fixed::<2>(&self.buf, 2) else {
            return Ok(None);
        };
        if version != VERSION {
            return Err(ProtocolError::BadVersion(version));
        }
        if !kind::is_known(kind_byte) {
            return Err(ProtocolError::UnknownKind(kind_byte));
        }
        let Some(len) = fixed::<4>(&self.buf, 4).map(u32::from_le_bytes) else {
            return Ok(None);
        };
        if len > MAX_PAYLOAD {
            return Err(ProtocolError::Oversized(len));
        }
        let Some(want_crc) = fixed::<4>(&self.buf, 8).map(u32::from_le_bytes) else {
            return Ok(None);
        };
        let total = HEADER_LEN + len as usize;
        let Some(payload) = self.buf.get(HEADER_LEN..total) else {
            return Ok(None);
        };
        let got_crc = crc32(payload);
        if got_crc != want_crc {
            return Err(ProtocolError::CrcMismatch {
                want: want_crc,
                got: got_crc,
            });
        }
        let payload = payload.to_vec();
        self.buf.drain(..total);
        Ok(Some(Frame {
            kind: kind_byte,
            payload,
        }))
    }
}

// ---------------------------------------------------------------------
// Request DTOs. Every request carries a client-chosen correlation `id`
// (echoed in the reply) and a `deadline_ms` budget measured from the
// moment the daemon receives the frame (0 = use the server default).
// ---------------------------------------------------------------------

/// Place one VM of the named catalog type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlaceReq {
    /// Correlation id, echoed in the reply.
    pub id: u64,
    /// Deadline budget in milliseconds (0 = server default).
    pub deadline_ms: u64,
    /// Catalog VM type name, e.g. `"m3.large"`.
    pub vm_type: String,
}

/// Evict (remove) a resident VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictReq {
    /// Correlation id.
    pub id: u64,
    /// Deadline budget in milliseconds (0 = server default).
    pub deadline_ms: u64,
    /// The VM to evict.
    pub vm: u64,
}

/// Migrate a resident VM to a placer-chosen destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrateReq {
    /// Correlation id.
    pub id: u64,
    /// Deadline budget in milliseconds (0 = server default).
    pub deadline_ms: u64,
    /// The VM to migrate.
    pub vm: u64,
}

/// Read statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsReq {
    /// Correlation id.
    pub id: u64,
    /// Deadline budget in milliseconds (0 = server default).
    pub deadline_ms: u64,
}

/// Force a compaction now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotReq {
    /// Correlation id.
    pub id: u64,
    /// Deadline budget in milliseconds (0 = server default).
    pub deadline_ms: u64,
}

/// Ask the daemon to drain and exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainReq {
    /// Correlation id.
    pub id: u64,
    /// Deadline budget in milliseconds (0 = server default).
    pub deadline_ms: u64,
}

/// A parsed request (plain enum; the wire discriminant is the kind byte).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// See [`PlaceReq`].
    Place(PlaceReq),
    /// See [`EvictReq`].
    Evict(EvictReq),
    /// See [`MigrateReq`].
    Migrate(MigrateReq),
    /// See [`StatsReq`].
    Stats(StatsReq),
    /// See [`SnapshotReq`].
    Snapshot(SnapshotReq),
    /// See [`DrainReq`].
    Drain(DrainReq),
}

fn payload<T: Serialize>(value: &T) -> Result<Vec<u8>, ProtocolError> {
    serde_json::to_vec(value).map_err(|e| ProtocolError::BadPayload(e.to_string()))
}

fn parse<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T, ProtocolError> {
    serde_json::from_slice(bytes).map_err(|e| ProtocolError::BadPayload(e.to_string()))
}

impl Request {
    /// The correlation id the reply must echo.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Self::Place(r) => r.id,
            Self::Evict(r) => r.id,
            Self::Migrate(r) => r.id,
            Self::Stats(r) => r.id,
            Self::Snapshot(r) => r.id,
            Self::Drain(r) => r.id,
        }
    }

    /// The request's deadline budget (0 = server default).
    #[must_use]
    pub fn deadline_ms(&self) -> u64 {
        match self {
            Self::Place(r) => r.deadline_ms,
            Self::Evict(r) => r.deadline_ms,
            Self::Migrate(r) => r.deadline_ms,
            Self::Stats(r) => r.deadline_ms,
            Self::Snapshot(r) => r.deadline_ms,
            Self::Drain(r) => r.deadline_ms,
        }
    }

    /// Encode to one wire frame.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolError`] from encoding (oversized payloads).
    pub fn encode(&self) -> Result<Vec<u8>, ProtocolError> {
        let (k, body) = match self {
            Self::Place(r) => (kind::PLACE, payload(r)?),
            Self::Evict(r) => (kind::EVICT, payload(r)?),
            Self::Migrate(r) => (kind::MIGRATE, payload(r)?),
            Self::Stats(r) => (kind::STATS, payload(r)?),
            Self::Snapshot(r) => (kind::SNAPSHOT, payload(r)?),
            Self::Drain(r) => (kind::DRAIN, payload(r)?),
        };
        encode_frame(k, &body)
    }

    /// Decode from one frame.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownKind`] for response kinds,
    /// [`ProtocolError::BadPayload`] for JSON that does not match the DTO.
    pub fn decode(frame: &Frame) -> Result<Self, ProtocolError> {
        match frame.kind {
            kind::PLACE => Ok(Self::Place(parse(&frame.payload)?)),
            kind::EVICT => Ok(Self::Evict(parse(&frame.payload)?)),
            kind::MIGRATE => Ok(Self::Migrate(parse(&frame.payload)?)),
            kind::STATS => Ok(Self::Stats(parse(&frame.payload)?)),
            kind::SNAPSHOT => Ok(Self::Snapshot(parse(&frame.payload)?)),
            kind::DRAIN => Ok(Self::Drain(parse(&frame.payload)?)),
            other => Err(ProtocolError::UnknownKind(other)),
        }
    }
}

// ---------------------------------------------------------------------
// Response DTOs.
// ---------------------------------------------------------------------

/// Typed failure codes carried by [`ErrorResp`]. A unit enum — the
/// vendored serde derive round-trips those — so clients match on the
/// code, not on message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// No PM can host the requested VM type right now.
    NoCapacity,
    /// The named VM id is not resident.
    UnknownVm,
    /// The named VM type is not in the daemon's catalog.
    UnknownVmType,
    /// The request was structurally valid but semantically impossible.
    InvalidRequest,
    /// The journal append failed; the operation was NOT applied.
    Journal,
    /// The daemon is draining and accepts no more mutations.
    Draining,
    /// The peer's bytes violated the wire protocol (the connection is
    /// closed after this reply; its correlation id is 0).
    Protocol,
}

/// Successful placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedResp {
    /// Echoed correlation id.
    pub id: u64,
    /// The new VM's id.
    pub vm: u64,
    /// The PM hosting it.
    pub pm: usize,
}

/// Successful eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictedResp {
    /// Echoed correlation id.
    pub id: u64,
    /// The evicted VM.
    pub vm: u64,
    /// The PM it left.
    pub pm: usize,
}

/// Successful migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigratedResp {
    /// Echoed correlation id.
    pub id: u64,
    /// The migrated VM.
    pub vm: u64,
    /// Source PM.
    pub from: usize,
    /// Destination PM.
    pub to: usize,
}

/// The recoverable (journal-backed) half of the statistics reply. After
/// a kill and restart this struct must compare equal field-for-field —
/// the CI smoke job asserts exactly that.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateStats {
    /// Resident VM count.
    pub vms: usize,
    /// PMs currently hosting at least one VM.
    pub active_pms: usize,
    /// PMs that ever hosted a VM.
    pub ever_used_pms: usize,
    /// The id the next placement will allocate.
    pub next_vm_id: u64,
    /// FNV-1a digest (hex) over the sorted placement map + allocator
    /// watermark: byte-identical state ⇔ equal digests.
    pub digest: String,
}

/// Process-local counters (reset on restart; excluded from the recovery
/// comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ProcessStats {
    /// Requests admitted to the worker.
    pub requests: u64,
    /// Successful placements this process lifetime.
    pub placed: u64,
    /// Successful evictions this process lifetime.
    pub evicted: u64,
    /// Successful migrations this process lifetime.
    pub migrated: u64,
    /// Typed error replies this process lifetime.
    pub errors: u64,
    /// Records appended to the journal this process lifetime.
    pub journal_appends: u64,
    /// Compactions performed this process lifetime.
    pub compactions: u64,
    /// Requests shed by the bounded admission queue.
    pub shed: u64,
    /// Requests that missed their deadline before the worker reached
    /// them.
    pub timeouts: u64,
    /// Snapshot version currently on disk.
    pub snapshot_version: u64,
    /// Valid records in the journal right now.
    pub journal_records: u64,
}

/// Statistics reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsResp {
    /// Echoed correlation id.
    pub id: u64,
    /// Journal-backed state (identical across kill/restart).
    pub state: StateStats,
    /// Process-lifetime counters (reset on restart).
    pub process: ProcessStats,
}

/// Compaction done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotResp {
    /// Echoed correlation id.
    pub id: u64,
    /// Snapshot version now on disk.
    pub version: u64,
}

/// Drain acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainResp {
    /// Echoed correlation id.
    pub id: u64,
}

/// Load shed: the admission queue was full when this request arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedResp {
    /// Echoed correlation id.
    pub id: u64,
    /// Queue depth observed at rejection.
    pub queue_depth: usize,
    /// Deterministic capped-doubling backoff guidance: wait at least
    /// this long before retrying.
    pub retry_after_ms: u64,
}

/// Deadline exceeded before the worker reached the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeoutResp {
    /// Echoed correlation id.
    pub id: u64,
    /// The deadline that expired, in milliseconds.
    pub deadline_ms: u64,
}

/// Typed request failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorResp {
    /// Echoed correlation id.
    pub id: u64,
    /// Machine-matchable failure code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
    /// Backoff guidance for retryable codes; 0 = do not retry.
    pub retry_after_ms: u64,
}

/// A parsed response (plain enum; the wire discriminant is the kind
/// byte).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// See [`PlacedResp`].
    Placed(PlacedResp),
    /// See [`EvictedResp`].
    Evicted(EvictedResp),
    /// See [`MigratedResp`].
    Migrated(MigratedResp),
    /// See [`StatsResp`].
    Stats(StatsResp),
    /// See [`SnapshotResp`].
    Snapshotted(SnapshotResp),
    /// See [`DrainResp`].
    Draining(DrainResp),
    /// See [`ShedResp`].
    Shed(ShedResp),
    /// See [`TimeoutResp`].
    Timeout(TimeoutResp),
    /// See [`ErrorResp`].
    Error(ErrorResp),
}

impl Response {
    /// The correlation id this reply echoes.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Self::Placed(r) => r.id,
            Self::Evicted(r) => r.id,
            Self::Migrated(r) => r.id,
            Self::Stats(r) => r.id,
            Self::Snapshotted(r) => r.id,
            Self::Draining(r) => r.id,
            Self::Shed(r) => r.id,
            Self::Timeout(r) => r.id,
            Self::Error(r) => r.id,
        }
    }

    /// Encode to one wire frame.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolError`] from encoding (oversized payloads).
    pub fn encode(&self) -> Result<Vec<u8>, ProtocolError> {
        let (k, body) = match self {
            Self::Placed(r) => (kind::PLACED, payload(r)?),
            Self::Evicted(r) => (kind::EVICTED, payload(r)?),
            Self::Migrated(r) => (kind::MIGRATED, payload(r)?),
            Self::Stats(r) => (kind::STATS_REPLY, payload(r)?),
            Self::Snapshotted(r) => (kind::SNAPSHOTTED, payload(r)?),
            Self::Draining(r) => (kind::DRAINING, payload(r)?),
            Self::Shed(r) => (kind::SHED, payload(r)?),
            Self::Timeout(r) => (kind::TIMEOUT, payload(r)?),
            Self::Error(r) => (kind::ERROR, payload(r)?),
        };
        encode_frame(k, &body)
    }

    /// Decode from one frame.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownKind`] for request kinds,
    /// [`ProtocolError::BadPayload`] for JSON that does not match the DTO.
    pub fn decode(frame: &Frame) -> Result<Self, ProtocolError> {
        match frame.kind {
            kind::PLACED => Ok(Self::Placed(parse(&frame.payload)?)),
            kind::EVICTED => Ok(Self::Evicted(parse(&frame.payload)?)),
            kind::MIGRATED => Ok(Self::Migrated(parse(&frame.payload)?)),
            kind::STATS_REPLY => Ok(Self::Stats(parse(&frame.payload)?)),
            kind::SNAPSHOTTED => Ok(Self::Snapshotted(parse(&frame.payload)?)),
            kind::DRAINING => Ok(Self::Draining(parse(&frame.payload)?)),
            kind::SHED => Ok(Self::Shed(parse(&frame.payload)?)),
            kind::TIMEOUT => Ok(Self::Timeout(parse(&frame.payload)?)),
            kind::ERROR => Ok(Self::Error(parse(&frame.payload)?)),
            other => Err(ProtocolError::UnknownKind(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn place(id: u64) -> Request {
        Request::Place(PlaceReq {
            id,
            deadline_ms: 500,
            vm_type: "m3.large".to_string(),
        })
    }

    #[test]
    fn request_roundtrips() {
        let reqs = vec![
            place(1),
            Request::Evict(EvictReq {
                id: 2,
                deadline_ms: 0,
                vm: 9,
            }),
            Request::Migrate(MigrateReq {
                id: 3,
                deadline_ms: 10,
                vm: 9,
            }),
            Request::Stats(StatsReq {
                id: 4,
                deadline_ms: 0,
            }),
            Request::Snapshot(SnapshotReq {
                id: 5,
                deadline_ms: 0,
            }),
            Request::Drain(DrainReq {
                id: 6,
                deadline_ms: 0,
            }),
        ];
        let mut decoder = FrameDecoder::new();
        for req in &reqs {
            decoder.feed(&req.encode().expect("encode"));
        }
        for req in &reqs {
            let frame = decoder.next_frame().expect("valid").expect("complete");
            let back = Request::decode(&frame).expect("decode");
            assert_eq!(&back, req);
        }
        assert!(decoder.next_frame().expect("empty is fine").is_none());
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn response_roundtrips() {
        let resps = vec![
            Response::Placed(PlacedResp {
                id: 1,
                vm: 3,
                pm: 0,
            }),
            Response::Shed(ShedResp {
                id: 2,
                queue_depth: 64,
                retry_after_ms: 100,
            }),
            Response::Timeout(TimeoutResp {
                id: 3,
                deadline_ms: 250,
            }),
            Response::Error(ErrorResp {
                id: 4,
                code: ErrorCode::NoCapacity,
                detail: "cluster full".to_string(),
                retry_after_ms: 0,
            }),
        ];
        for resp in &resps {
            let mut d = FrameDecoder::new();
            d.feed(&resp.encode().expect("encode"));
            let frame = d.next_frame().expect("valid").expect("complete");
            assert_eq!(&Response::decode(&frame).expect("decode"), resp);
        }
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let bytes = place(7).encode().expect("encode");
        let mut d = FrameDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            if i + 1 < bytes.len() {
                d.feed(&[*b]);
                assert_eq!(d.next_frame().expect("no error"), None, "byte {i}");
            }
        }
        d.feed(&bytes[bytes.len() - 1..]);
        assert!(d.next_frame().expect("valid").is_some());
    }

    #[test]
    fn decoder_consumes_exactly_one_frame() {
        let a = place(1).encode().expect("encode");
        let b = place(2).encode().expect("encode");
        let mut d = FrameDecoder::new();
        d.feed(&a);
        d.feed(&b);
        d.feed(&[0xFF, 0xFF]); // garbage tail
        let f1 = d.next_frame().expect("valid").expect("frame 1");
        assert_eq!(Request::decode(&f1).expect("decode").id(), 1);
        let f2 = d.next_frame().expect("valid").expect("frame 2");
        assert_eq!(Request::decode(&f2).expect("decode").id(), 2);
        // Only now does the garbage surface — as a typed error.
        assert_eq!(d.next_frame(), Err(ProtocolError::BadMagic(0xFFFF)));
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let good = place(1).encode().expect("encode");

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = 0x00;
        let mut d = FrameDecoder::new();
        d.feed(&bad);
        assert!(matches!(d.next_frame(), Err(ProtocolError::BadMagic(_))));

        // Bad version.
        let mut bad = good.clone();
        bad[2] = 99;
        let mut d = FrameDecoder::new();
        d.feed(&bad);
        assert_eq!(d.next_frame(), Err(ProtocolError::BadVersion(99)));

        // Unknown kind.
        let mut bad = good.clone();
        bad[3] = 200;
        let mut d = FrameDecoder::new();
        d.feed(&bad);
        assert_eq!(d.next_frame(), Err(ProtocolError::UnknownKind(200)));

        // Oversized length prefix: rejected from the header, before any
        // payload is buffered.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut d = FrameDecoder::new();
        d.feed(&bad[..HEADER_LEN]);
        assert_eq!(
            d.next_frame(),
            Err(ProtocolError::Oversized(MAX_PAYLOAD + 1))
        );

        // Flipped payload bit → CRC mismatch.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        let mut d = FrameDecoder::new();
        d.feed(&bad);
        assert!(matches!(
            d.next_frame(),
            Err(ProtocolError::CrcMismatch { .. })
        ));

        // Valid frame, wrong JSON shape → BadPayload at decode.
        let frame_bytes = encode_frame(kind::PLACE, b"{\"nope\": true}").expect("encode");
        let mut d = FrameDecoder::new();
        d.feed(&frame_bytes);
        let frame = d.next_frame().expect("structurally fine").expect("frame");
        assert!(matches!(
            Request::decode(&frame),
            Err(ProtocolError::BadPayload(_))
        ));
    }

    #[test]
    fn request_decode_rejects_response_kinds_and_vice_versa() {
        let req_frame = Frame {
            kind: kind::PLACED,
            payload: b"{}".to_vec(),
        };
        assert!(matches!(
            Request::decode(&req_frame),
            Err(ProtocolError::UnknownKind(_))
        ));
        let resp_frame = Frame {
            kind: kind::PLACE,
            payload: b"{}".to_vec(),
        };
        assert!(matches!(
            Response::decode(&resp_frame),
            Err(ProtocolError::UnknownKind(_))
        ));
    }
}
