//! Invariant 3 of the catalog-delta engine (DESIGN.md §15): cache
//! transparency. A PVSB round trip reproduces every score bit-for-bit
//! (the golden tests), and **no** corruption of the artifact — any
//! single bit flip, any truncation, a version bump — can ever surface
//! wrong scores: every poisoning is a typed [`CacheError`], never a
//! panic, never a silently different book (the proptests).

use pagerankvm::{CacheError, GraphLimits, PageRankConfig, ScoreBook};
use proptest::prelude::*;
use prvm_model::{catalog, Quantizer};
use std::sync::OnceLock;

/// Arbitrary but fixed catalog hash; save and load agree on it.
const CATALOG_HASH: u64 = 0xFEED_F00D;

/// Coarse resolution: corruption handling is resolution-independent and
/// the coarse EC2 book builds fast in debug mode.
fn coarse() -> Quantizer {
    Quantizer {
        core_slots: 2,
        mem_levels: 2,
        disk_levels: 2,
    }
}

fn build_book() -> ScoreBook {
    ScoreBook::build(
        coarse(),
        &catalog::ec2_pm_types(),
        &catalog::ec2_vm_types(),
        &PageRankConfig::default(),
        GraphLimits::default(),
    )
    .expect("coarse EC2 book builds")
}

/// The serialized artifact, built once and shared across proptest
/// cases (each case only flips bytes and re-parses).
fn artifact() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut buf = Vec::new();
        build_book()
            .save(&mut buf, CATALOG_HASH)
            .expect("in-memory save");
        buf
    })
}

/// Golden: a cached load reproduces every PageRank score and every
/// final placement score bit-for-bit, and re-serializes to the exact
/// bytes it was loaded from.
#[test]
fn cached_load_is_bit_identical_to_the_built_book() {
    let built = build_book();
    let loaded = ScoreBook::load(&mut artifact(), CATALOG_HASH).expect("clean load");

    assert_eq!(loaded.len(), built.len());
    for ((pm_a, table_a), (pm_b, table_b)) in built.tables().zip(loaded.tables()) {
        assert_eq!(pm_a, pm_b, "per-PM table order is part of the format");
        assert_eq!(table_a.pagerank().iterations, table_b.pagerank().iterations);
        assert_eq!(table_a.len(), table_b.len());
        for ((id_a, score_a), (id_b, score_b)) in table_a.iter().zip(table_b.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(
                score_a.to_bits(),
                score_b.to_bits(),
                "score of node {id_a} in {} changed through the cache",
                pm_a.name
            );
        }
    }

    let mut again = Vec::new();
    loaded.save(&mut again, CATALOG_HASH).expect("re-save");
    assert_eq!(again, artifact(), "save∘load is the identity on bytes");
}

/// A version bump is a typed miss — never a misparse of the payload.
#[test]
fn version_bump_is_a_typed_error() {
    let mut bumped = artifact().to_vec();
    bumped[4] = bumped[4].wrapping_add(1);
    match ScoreBook::load(&mut bumped.as_slice(), CATALOG_HASH) {
        Err(CacheError::UnsupportedVersion(v)) => assert_eq!(v, 2),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

proptest! {
    /// Flip any single bit anywhere in the artifact: the load fails
    /// with a typed error. It never panics and never hands back a book
    /// (a changed header field is caught by the field checks; a changed
    /// payload bit by the checksum).
    #[test]
    fn any_single_bit_flip_is_rejected(
        byte in 0usize..81_000,
        bit in 0u8..8,
    ) {
        let mut poisoned = artifact().to_vec();
        let byte = byte % poisoned.len();
        poisoned[byte] ^= 1 << bit;
        let result = ScoreBook::load(&mut poisoned.as_slice(), CATALOG_HASH);
        prop_assert!(
            result.is_err(),
            "bit {bit} of byte {byte} flipped yet the artifact loaded"
        );
    }

    /// Truncate the artifact at any prefix length: typed error, no
    /// panic — whether the cut lands in the header, a length field or
    /// the middle of an array.
    #[test]
    fn any_truncation_is_rejected(cut in 0usize..81_000) {
        let bytes = artifact();
        let cut = cut % bytes.len();
        let result = ScoreBook::load(&mut &bytes[..cut], CATALOG_HASH);
        prop_assert!(result.is_err(), "truncation at {cut} bytes loaded");
    }

    /// A foreign catalog hash never serves scores, whichever way the
    /// mismatch goes.
    #[test]
    fn any_other_catalog_hash_is_rejected(raw in any::<u64>()) {
        // The vendored proptest has no prop_assume; dodge the one
        // colliding value instead of discarding the case.
        let hash = if raw == CATALOG_HASH { raw ^ 1 } else { raw };
        match ScoreBook::load(&mut artifact(), hash) {
            Err(CacheError::CatalogMismatch { expected, found }) => {
                prop_assert_eq!(expected, hash);
                prop_assert_eq!(found, CATALOG_HASH);
            }
            other => return Err(TestCaseError::fail(format!(
                "expected CatalogMismatch, got {other:?}"
            ))),
        }
    }
}
