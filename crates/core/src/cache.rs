//! The persisted score-book artifact (`PVSB`) — DESIGN.md §15.
//!
//! Building a score book means BFS-ing an ~82k-node profile graph and
//! power-iterating PageRank over 3.3M edges: seconds of work that
//! `prvm-serve` used to repeat on every cold start even though nothing
//! about the catalog had changed. `PVSB` persists the finished book —
//! graphs, PageRank trajectories, final scores — as a versioned,
//! checksummed binary artifact keyed by the catalog hash, so a restart
//! with an unchanged catalog loads scores in milliseconds and a changed
//! or corrupted artifact falls back to a full rebuild through a *typed*
//! error (never silently wrong scores).
//!
//! # Format
//!
//! All integers little-endian; floats are IEEE-754 bit patterns.
//!
//! ```text
//! header   "PVSB" | version u32 | catalog_hash u64 | payload_len u64 | crc32 u32
//! payload  quantizer (3×u64) | table_count u32 | table…
//! table    pm_spec json | space json | vm_types json      (each u32-length-prefixed)
//!          n u32 | dims u32 | profiles n×dims×u16
//!          succ u64-len + u32s | succ_off u64-len + u64s
//!          gsucc u64-len + u32s | goff u64-len + u64s
//!          util n×f64 | mode u8 (0 = reachable BFS, 1 = full space)
//!          pagerank: iterations u64 | converged u8 | residuals u64-len + f64s | scores n×f64
//!          final scores n×f64
//! ```
//!
//! The CRC-32 (IEEE polynomial, same parameters as the serve journal's)
//! covers the whole payload; the header fields are validated
//! individually so each failure mode maps to its own [`CacheError`]
//! variant. Loading re-interns the profile arena in id order and
//! revalidates structure (offset monotonicity, id ranges, profile
//! uniqueness), so a decoded book is indistinguishable from a freshly
//! built one — the golden tests pin that bit for bit.

use crate::graph::{nid, CsrParts, NodeId, ProfileGraph};
use crate::intern::ProfileInterner;
use crate::pagerank::PageRankResult;
use crate::profile::{ProfileSpace, ProfileVm};
use crate::table::{ScoreBook, ScoreTable};
use prvm_model::units::convert;
use prvm_model::{PmSpec, Quantizer};
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

/// Magic bytes opening every score-book artifact.
pub const PVSB_MAGIC: [u8; 4] = *b"PVSB";

/// Current format version; bumped on any layout change. A mismatch is
/// [`CacheError::UnsupportedVersion`], never a best-effort parse.
pub const PVSB_VERSION: u32 = 1;

/// Upper bound on the payload a loader will buffer (guards against a
/// corrupted `payload_len` asking for an absurd allocation).
const MAX_PAYLOAD: u64 = 1 << 31;

/// Why a `PVSB` artifact was rejected. Every variant is a *miss*, not a
/// fatal condition: callers fall back to a full rebuild (and typically
/// overwrite the artifact with a fresh one).
#[derive(Debug)]
pub enum CacheError {
    /// Underlying I/O failure while reading or writing.
    Io(std::io::Error),
    /// The file does not open with [`PVSB_MAGIC`] — not a score book.
    BadMagic,
    /// The artifact was written by a different format version.
    UnsupportedVersion(
        /// The version found in the header.
        u32,
    ),
    /// The artifact was built for a different catalog.
    CatalogMismatch {
        /// Hash the caller's current catalog produces.
        expected: u64,
        /// Hash recorded in the artifact header.
        found: u64,
    },
    /// The payload's CRC-32 does not match the header — bit rot or a
    /// torn write.
    ChecksumMismatch,
    /// The file ends before the header-declared payload does.
    Truncated,
    /// The payload decodes to structurally invalid data (bad offsets,
    /// out-of-range ids, duplicate profiles, …).
    Malformed(
        /// Which structural check failed.
        &'static str,
    ),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "score-book cache i/o: {e}"),
            Self::BadMagic => write!(f, "not a PVSB score-book artifact"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported PVSB version {v} (expected {PVSB_VERSION})")
            }
            Self::CatalogMismatch { expected, found } => write!(
                f,
                "score book was built for catalog {found:#018x}, expected {expected:#018x}"
            ),
            Self::ChecksumMismatch => write!(f, "PVSB payload checksum mismatch"),
            Self::Truncated => write!(f, "PVSB artifact is truncated"),
            Self::Malformed(what) => write!(f, "malformed PVSB payload: {what}"),
        }
    }
}

impl Error for CacheError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Self::Truncated
        } else {
            Self::Io(e)
        }
    }
}

/// The CRC-32 lookup table, built at compile time.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        #[expect(
            clippy::as_conversions,
            reason = "i < 256: the cast is exact; CRC32 table generation is mod-2^32 arithmetic"
        )]
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`,
/// table-driven: the checksum guarding the PVSB artifact here and every
/// wire frame and journal record of the placement daemon.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        #[expect(
            clippy::as_conversions,
            reason = "low-byte extraction is the CRC32 algorithm, not an accidental truncation"
        )]
        let idx = usize::from((crc as u8) ^ b);
        crc = (crc >> 8) ^ CRC_TABLE[idx];
    }
    !crc
}

// ---------------------------------------------------------------------
// Payload encoding helpers.

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_json<T: serde::Serialize>(buf: &mut Vec<u8>, value: &T) -> Result<(), CacheError> {
    let bytes = serde_json::to_vec(value).map_err(|_| CacheError::Malformed("unencodable spec"))?;
    let len = u32::try_from(bytes.len()).map_err(|_| CacheError::Malformed("oversized spec"))?;
    put_u32(buf, len);
    buf.extend_from_slice(&bytes);
    Ok(())
}

/// Sequential payload reader; every accessor fails typed instead of
/// panicking, so corrupted bytes can never index out of range.
struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CacheError> {
        let end = self.pos.checked_add(n).ok_or(CacheError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(CacheError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CacheError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CacheError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CacheError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CacheError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, CacheError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` length field narrowed to `usize`, bounded so a corrupt
    /// length cannot demand an absurd allocation.
    fn len(&mut self) -> Result<usize, CacheError> {
        let v = self.u64()?;
        if v > MAX_PAYLOAD {
            return Err(CacheError::Malformed("length field out of bounds"));
        }
        usize::try_from(v).map_err(|_| CacheError::Malformed("length field out of bounds"))
    }

    fn json<T: for<'de> serde::Deserialize<'de>>(&mut self) -> Result<T, CacheError> {
        let len = usize::try_from(self.u32()?)
            .map_err(|_| CacheError::Malformed("length field out of bounds"))?;
        let bytes = self.take(len)?;
        serde_json::from_slice(bytes).map_err(|_| CacheError::Malformed("undecodable spec"))
    }
}

// ---------------------------------------------------------------------
// Table encode/decode.

fn encode_table(buf: &mut Vec<u8>, pm: &PmSpec, table: &ScoreTable) -> Result<(), CacheError> {
    let graph = table.graph();
    put_json(buf, pm)?;
    put_json(buf, graph.space())?;
    put_json(buf, &graph.vm_types().to_vec())?;

    let n = graph.node_count();
    let dims = graph.space().dims();
    put_u32(
        buf,
        u32::try_from(n).map_err(|_| CacheError::Malformed("node count overflow"))?,
    );
    put_u32(
        buf,
        u32::try_from(dims).map_err(|_| CacheError::Malformed("dims overflow"))?,
    );
    for profile in graph.interner().profiles() {
        for &v in profile.values() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    let (succ, succ_off, gsucc, goff, util, full) = graph.parts();
    put_u64(buf, convert::usize_to_u64(succ.len()));
    for &s in succ {
        put_u32(buf, s);
    }
    put_u64(buf, convert::usize_to_u64(succ_off.len()));
    for &o in succ_off {
        put_u64(buf, convert::usize_to_u64(o));
    }
    put_u64(buf, convert::usize_to_u64(gsucc.len()));
    for &s in gsucc {
        put_u32(buf, s);
    }
    put_u64(buf, convert::usize_to_u64(goff.len()));
    for &o in goff {
        put_u64(buf, convert::usize_to_u64(o));
    }
    for &u in util {
        put_f64(buf, u);
    }
    buf.push(u8::from(full));

    let pr = table.pagerank();
    put_u64(buf, convert::usize_to_u64(pr.iterations));
    buf.push(u8::from(pr.converged));
    put_u64(buf, convert::usize_to_u64(pr.residuals.len()));
    for &r in &pr.residuals {
        put_f64(buf, r);
    }
    for &s in &pr.scores {
        put_f64(buf, s);
    }
    for &s in table.scores_raw() {
        put_f64(buf, s);
    }
    Ok(())
}

fn decode_offsets(
    dec: &mut Decoder<'_>,
    expected_len: usize,
    bound: usize,
) -> Result<Vec<usize>, CacheError> {
    let len = dec.len()?;
    if len != expected_len {
        return Err(CacheError::Malformed("offset table has wrong length"));
    }
    let mut out = Vec::with_capacity(len);
    let mut prev = 0usize;
    for i in 0..len {
        let o = usize::try_from(dec.u64()?)
            .map_err(|_| CacheError::Malformed("offset out of bounds"))?;
        if (i == 0 && o != 0) || o < prev || o > bound {
            return Err(CacheError::Malformed("offsets not monotone"));
        }
        prev = o;
        out.push(o);
    }
    if prev != bound {
        return Err(CacheError::Malformed("offsets do not cover the edge array"));
    }
    Ok(out)
}

fn decode_table(dec: &mut Decoder<'_>) -> Result<(PmSpec, ScoreTable), CacheError> {
    let pm: PmSpec = dec.json()?;
    let space: ProfileSpace = dec.json()?;
    let vm_types: Vec<ProfileVm> = dec.json()?;

    let n = usize::try_from(dec.u32()?)
        .map_err(|_| CacheError::Malformed("node count out of bounds"))?;
    let dims =
        usize::try_from(dec.u32()?).map_err(|_| CacheError::Malformed("dims out of bounds"))?;
    if dims != space.dims() {
        return Err(CacheError::Malformed("dims disagree with the space"));
    }
    if n == 0 {
        return Err(CacheError::Malformed("empty graph"));
    }
    let mut interner = ProfileInterner::with_capacity(n);
    let mut scratch = vec![0u16; dims];
    for i in 0..n {
        for v in &mut scratch {
            *v = dec.u16()?;
        }
        let (id, fresh) = interner.intern_values(&scratch);
        if !fresh || id.index() != i {
            return Err(CacheError::Malformed("duplicate profile in arena"));
        }
    }

    let succ_len = dec.len()?;
    let mut succ: Vec<NodeId> = Vec::with_capacity(succ_len);
    for _ in 0..succ_len {
        let s = dec.u32()?;
        if s >= nid(n) {
            return Err(CacheError::Malformed("successor id out of range"));
        }
        succ.push(s);
    }
    let succ_off = decode_offsets(dec, n + 1, succ.len())?;

    let gsucc_len = dec.len()?;
    let mut gsucc: Vec<NodeId> = Vec::with_capacity(gsucc_len);
    for _ in 0..gsucc_len {
        let s = dec.u32()?;
        if s >= nid(n) {
            return Err(CacheError::Malformed("successor id out of range"));
        }
        gsucc.push(s);
    }
    let group_count = n
        .checked_mul(vm_types.len())
        .and_then(|g| g.checked_add(1))
        .ok_or(CacheError::Malformed("group table overflow"))?;
    let goff = decode_offsets(dec, group_count, gsucc.len())?;

    let mut util = Vec::with_capacity(n);
    for _ in 0..n {
        util.push(dec.f64()?);
    }
    let full = match dec.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CacheError::Malformed("unknown graph mode")),
    };

    let iterations = usize::try_from(dec.u64()?)
        .map_err(|_| CacheError::Malformed("iteration count out of bounds"))?;
    let converged = match dec.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CacheError::Malformed("unknown convergence flag")),
    };
    let residual_len = dec.len()?;
    let mut residuals = Vec::with_capacity(residual_len);
    for _ in 0..residual_len {
        residuals.push(dec.f64()?);
    }
    let mut pr_scores = Vec::with_capacity(n);
    for _ in 0..n {
        pr_scores.push(dec.f64()?);
    }
    let mut scores = Vec::with_capacity(n);
    for _ in 0..n {
        scores.push(dec.f64()?);
    }

    let graph = ProfileGraph::from_parts(
        space,
        vm_types,
        interner,
        CsrParts {
            succ,
            succ_off,
            gsucc,
            goff,
            util,
            full,
        },
    );
    let pagerank = PageRankResult {
        scores: pr_scores,
        iterations,
        converged,
        residuals,
    };
    Ok((pm, ScoreTable::from_parts(graph, scores, pagerank)))
}

impl ScoreBook {
    /// Persist this book as a `PVSB` artifact keyed by `catalog_hash`
    /// (the caller's digest of PM types, VM types and quantizer — serve
    /// uses its `CatalogSpec` hash).
    ///
    /// ```
    /// use pagerankvm::{CacheError, GraphLimits, PageRankConfig, ScoreBook};
    /// use prvm_model::{catalog, Quantizer};
    /// use std::io::Cursor;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let book = ScoreBook::build(
    ///     Quantizer { core_slots: 2, mem_levels: 4, disk_levels: 2 },
    ///     &[catalog::pm_m3()],
    ///     &catalog::ec2_vm_types(),
    ///     &PageRankConfig::default(),
    ///     GraphLimits::default(),
    /// )?;
    ///
    /// let mut artifact = Vec::new();
    /// book.save(&mut artifact, 0xfeed_beef)?;
    /// // Same catalog: the cached book round-trips bit-identically.
    /// let cached = ScoreBook::load(&mut Cursor::new(&artifact), 0xfeed_beef)?;
    /// assert_eq!(cached.len(), book.len());
    ///
    /// // Changed catalog: a typed miss, never silently stale scores.
    /// match ScoreBook::load(&mut Cursor::new(&artifact), 0x0bad_cafe) {
    ///     Err(CacheError::CatalogMismatch { .. }) => {}
    ///     other => panic!("expected a catalog mismatch, got {other:?}"),
    /// }
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] on write failure; [`CacheError::Malformed`] if
    /// a spec cannot be encoded (not reachable for books built by this
    /// crate).
    pub fn save<W: Write>(&self, w: &mut W, catalog_hash: u64) -> Result<(), CacheError> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.quantizer().core_slots.to_le_bytes());
        payload.extend_from_slice(&self.quantizer().mem_levels.to_le_bytes());
        payload.extend_from_slice(&self.quantizer().disk_levels.to_le_bytes());
        put_u32(
            &mut payload,
            u32::try_from(self.len()).map_err(|_| CacheError::Malformed("table count overflow"))?,
        );
        for (pm, table) in self.tables() {
            encode_table(&mut payload, pm, table)?;
        }

        w.write_all(&PVSB_MAGIC).map_err(CacheError::Io)?;
        w.write_all(&PVSB_VERSION.to_le_bytes())
            .map_err(CacheError::Io)?;
        w.write_all(&catalog_hash.to_le_bytes())
            .map_err(CacheError::Io)?;
        w.write_all(&convert::usize_to_u64(payload.len()).to_le_bytes())
            .map_err(CacheError::Io)?;
        w.write_all(&crc32(&payload).to_le_bytes())
            .map_err(CacheError::Io)?;
        w.write_all(&payload).map_err(CacheError::Io)?;
        prvm_obs::event("score_book.saved")
            .field("bytes", payload.len() + 28)
            .field("tables", self.len())
            .emit();
        Ok(())
    }

    /// Load a `PVSB` artifact, validating magic, version, catalog hash,
    /// checksum and structure — see [`Self::save`] for an example. The
    /// decoded book is bit-identical to the one that was saved (golden
    /// tests pin this).
    ///
    /// # Errors
    ///
    /// Every [`CacheError`] variant is possible; all of them mean "fall
    /// back to a full rebuild", and none of them can yield wrong scores.
    pub fn load<R: Read>(r: &mut R, expected_catalog_hash: u64) -> Result<Self, CacheError> {
        let mut header = [0u8; 28];
        r.read_exact(&mut header).map_err(CacheError::from)?;
        if header[0..4] != PVSB_MAGIC {
            return Err(CacheError::BadMagic);
        }
        let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if version != PVSB_VERSION {
            return Err(CacheError::UnsupportedVersion(version));
        }
        let found = u64::from_le_bytes([
            header[8], header[9], header[10], header[11], header[12], header[13], header[14],
            header[15],
        ]);
        if found != expected_catalog_hash {
            return Err(CacheError::CatalogMismatch {
                expected: expected_catalog_hash,
                found,
            });
        }
        let payload_len = u64::from_le_bytes([
            header[16], header[17], header[18], header[19], header[20], header[21], header[22],
            header[23],
        ]);
        if payload_len > MAX_PAYLOAD {
            return Err(CacheError::Malformed("payload length out of bounds"));
        }
        let crc = u32::from_le_bytes([header[24], header[25], header[26], header[27]]);
        let mut payload = vec![
            0u8;
            usize::try_from(payload_len).map_err(|_| CacheError::Malformed(
                "payload length out of bounds"
            ))?
        ];
        r.read_exact(&mut payload).map_err(CacheError::from)?;
        if crc32(&payload) != crc {
            return Err(CacheError::ChecksumMismatch);
        }

        let mut dec = Decoder {
            buf: &payload,
            pos: 0,
        };
        let quantizer = Quantizer {
            core_slots: dec.u64()?,
            mem_levels: dec.u64()?,
            disk_levels: dec.u64()?,
        };
        let table_count = usize::try_from(dec.u32()?)
            .map_err(|_| CacheError::Malformed("table count out of bounds"))?;
        let mut tables = Vec::with_capacity(table_count.min(64));
        for _ in 0..table_count {
            let (pm, table) = decode_table(&mut dec)?;
            if tables.iter().any(|(spec, _)| spec == &pm) {
                return Err(CacheError::Malformed("duplicate PM spec"));
            }
            tables.push((pm, table));
        }
        if dec.pos != payload.len() {
            return Err(CacheError::Malformed("trailing bytes after last table"));
        }
        prvm_obs::event("score_book.loaded")
            .field("bytes", payload.len() + 28)
            .field("tables", tables.len())
            .emit();
        Ok(ScoreBook::from_parts(quantizer, tables))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphLimits;
    use crate::pagerank::PageRankConfig;
    use prvm_model::catalog;
    use std::io::Cursor;

    fn small_book() -> ScoreBook {
        ScoreBook::build(
            Quantizer {
                core_slots: 2,
                mem_levels: 2,
                disk_levels: 2,
            },
            &[catalog::pm_m3()],
            &catalog::ec2_vm_types(),
            &PageRankConfig::default(),
            GraphLimits::default(),
        )
        .unwrap()
    }

    /// `(pm name, score bits, pagerank bits, iterations, converged)`
    /// per table — everything a bit-identity comparison needs.
    type TableBits = (String, Vec<u64>, Vec<u64>, usize, bool);

    fn book_bits(book: &ScoreBook) -> Vec<TableBits> {
        book.tables()
            .map(|(pm, t)| {
                let score_bits = t
                    .graph()
                    .node_ids()
                    .map(|id| {
                        t.score(t.graph().profile(id))
                            .expect("own profile")
                            .to_bits()
                    })
                    .collect();
                let pr_bits = t.pagerank().scores.iter().map(|s| s.to_bits()).collect();
                (
                    pm.name.clone(),
                    score_bits,
                    pr_bits,
                    t.pagerank().iterations,
                    t.pagerank().converged,
                )
            })
            .collect()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let book = small_book();
        let mut buf = Vec::new();
        book.save(&mut buf, 42).unwrap();
        let loaded = ScoreBook::load(&mut Cursor::new(&buf), 42).unwrap();
        assert_eq!(book_bits(&book), book_bits(&loaded));
        assert_eq!(book.quantizer(), loaded.quantizer());
        // The decoded graph carries the expansion groups, so the loaded
        // book can alias a known footprint too.
        let (pm, t) = loaded.tables().next().unwrap();
        let (opm, ot) = book.tables().next().unwrap();
        assert_eq!(pm, opm);
        for id in t.graph().node_ids() {
            assert_eq!(t.graph().successors(id), ot.graph().successors(id));
            for v in 0..t.graph().vm_types().len() {
                assert_eq!(
                    t.graph().vm_successors(id, v),
                    ot.graph().vm_successors(id, v)
                );
            }
        }
    }

    #[test]
    fn save_load_round_trips_twice_byte_identically() {
        // Saving a loaded book reproduces the artifact byte for byte —
        // nothing is lost or re-derived differently on the way through.
        let book = small_book();
        let mut a = Vec::new();
        book.save(&mut a, 7).unwrap();
        let loaded = ScoreBook::load(&mut Cursor::new(&a), 7).unwrap();
        let mut b = Vec::new();
        loaded.save(&mut b, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let book = small_book();
        let mut buf = Vec::new();
        book.save(&mut buf, 1).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            ScoreBook::load(&mut Cursor::new(&buf), 1),
            Err(CacheError::BadMagic)
        ));
    }

    #[test]
    fn version_bump_is_rejected() {
        let book = small_book();
        let mut buf = Vec::new();
        book.save(&mut buf, 1).unwrap();
        buf[4] = buf[4].wrapping_add(1);
        assert!(matches!(
            ScoreBook::load(&mut Cursor::new(&buf), 1),
            Err(CacheError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn catalog_mismatch_is_rejected() {
        let book = small_book();
        let mut buf = Vec::new();
        book.save(&mut buf, 1).unwrap();
        assert!(matches!(
            ScoreBook::load(&mut Cursor::new(&buf), 2),
            Err(CacheError::CatalogMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn payload_bit_flip_is_detected() {
        let book = small_book();
        let mut buf = Vec::new();
        book.save(&mut buf, 1).unwrap();
        let mid = 28 + (buf.len() - 28) / 2;
        buf[mid] ^= 0x40;
        assert!(matches!(
            ScoreBook::load(&mut Cursor::new(&buf), 1),
            Err(CacheError::ChecksumMismatch)
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let book = small_book();
        let mut buf = Vec::new();
        book.save(&mut buf, 1).unwrap();
        for cut in [4, 20, 27, 28, buf.len() - 1] {
            assert!(
                matches!(
                    ScoreBook::load(&mut Cursor::new(&buf[..cut]), 1),
                    Err(CacheError::Truncated)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_single_bit_flip_changes_the_checksum() {
        let base = b"journal record payload".to_vec();
        let crc = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), crc, "flip at byte {i} bit {bit}");
            }
        }
    }
}
