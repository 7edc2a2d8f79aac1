//! PVSB cold-start behaviour of the daemon's score-book cache
//! (DESIGN.md §15): a valid artifact skips the graph build (asserted via
//! the `serve.book_cache.*` obs counters) and recovers digest-identical
//! state; every corruption mode is a typed miss that falls back to a
//! full rebuild and re-persists a valid artifact.

use prvm_model::Quantizer;
use prvm_obs::Registry;
use prvm_serve::{CatalogSpec, ServeState, Store};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The `serve.book_cache.*` counters are process-global and the test
/// harness runs tests on parallel threads, so each test holds this lock
/// for its whole body: no other test's boots can move the counters
/// between a test's before and after reads.
static COUNTERS: Mutex<()> = Mutex::new(());

/// Take the counter lock. A test that failed while holding it poisons
/// it; the guarded data is `()`, so the poison carries no broken state.
fn serialize() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Coarse profile resolution: cache behaviour is resolution-independent
/// and the coarse score book builds fast in debug mode.
fn catalog() -> CatalogSpec {
    CatalogSpec::ec2(4).with_quantizer(Quantizer {
        core_slots: 2,
        mem_levels: 2,
        disk_levels: 2,
    })
}

fn fresh_store(test: &str) -> (PathBuf, Store) {
    let dir = std::env::temp_dir().join(format!("prvm-book-cache-test-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let store = Store::open(&dir).expect("store");
    (dir, store)
}

fn hits() -> u64 {
    Registry::global().counter("serve.book_cache.hits").get()
}

fn misses() -> u64 {
    Registry::global().counter("serve.book_cache.misses").get()
}

#[test]
fn cold_start_miss_then_cached_hit_is_digest_identical() {
    let _serial = serialize();
    let (_dir, store) = fresh_store("hit");
    let spec = catalog();

    // First boot: no artifact — a miss that builds and persists.
    let (h0, m0) = (hits(), misses());
    let first = ServeState::load_or_build_book(&spec, &store.book_path()).expect("first boot");
    assert_eq!(hits(), h0, "no hit on a cold store");
    assert_eq!(misses(), m0 + 1, "first boot is a miss");
    assert!(store.book_path().exists(), "artifact persisted");

    // Second boot: the artifact answers — no graph build. The hit
    // counter moving (and the miss counter not) IS the assertion that
    // the build was skipped: the build path cannot be reached without
    // counting a miss first.
    let second = ServeState::load_or_build_book(&spec, &store.book_path()).expect("second boot");
    assert_eq!(hits(), h0 + 1, "second boot hits the cache");
    assert_eq!(misses(), m0 + 1, "second boot does not rebuild");

    // Digest-identical state: the daemon scores placements exactly as
    // the one that died.
    let live = ServeState::recover_with_book(&spec, first, None, &[]).expect("live");
    let cached = ServeState::recover_with_book(&spec, second, None, &[]).expect("cached");
    assert_eq!(live.book_digest(), cached.book_digest(), "book bits");
    assert_eq!(live.digest(), cached.digest(), "cluster state");
}

#[test]
fn corrupt_artifact_is_a_miss_that_heals_itself() {
    let _serial = serialize();
    let (_dir, store) = fresh_store("corrupt");
    let spec = catalog();

    let fresh = ServeState::load_or_build_book(&spec, &store.book_path()).expect("seed");
    let clean = std::fs::read(store.book_path()).expect("artifact");

    // Flip one payload bit: checksum mismatch → miss → rebuild, and the
    // rebuilt artifact overwrites the poisoned one.
    let mut poisoned = clean.clone();
    let mid = 28 + (poisoned.len() - 28) / 2;
    poisoned[mid] ^= 0x01;
    std::fs::write(store.book_path(), &poisoned).expect("poison");
    let m = misses();
    let rebuilt = ServeState::load_or_build_book(&spec, &store.book_path()).expect("rebuild");
    assert_eq!(misses(), m + 1, "corruption is a miss, not a crash");
    let live = ServeState::recover_with_book(&spec, fresh, None, &[]).expect("live");
    let recovered = ServeState::recover_with_book(&spec, rebuilt, None, &[]).expect("recovered");
    assert_eq!(live.book_digest(), recovered.book_digest());
    assert_eq!(
        std::fs::read(store.book_path()).expect("healed"),
        clean,
        "the rebuilt artifact is byte-identical to the original"
    );

    // And the healed artifact serves the next boot from cache again.
    let h = hits();
    let _ = ServeState::load_or_build_book(&spec, &store.book_path()).expect("healed boot");
    assert_eq!(hits(), h + 1);
}

#[test]
fn changed_catalog_invalidates_the_artifact() {
    let _serial = serialize();
    let (_dir, store) = fresh_store("catalog");
    let spec = catalog();
    let _ = ServeState::load_or_build_book(&spec, &store.book_path()).expect("seed");

    // Same store, different quantizer → different catalog hash → miss.
    let other = catalog().with_quantizer(Quantizer {
        core_slots: 2,
        mem_levels: 4,
        disk_levels: 2,
    });
    let m = misses();
    let _ = ServeState::load_or_build_book(&other, &store.book_path()).expect("other catalog");
    assert_eq!(misses(), m + 1, "foreign artifact never serves scores");

    // The store now holds the new catalog's book; the original catalog
    // misses again rather than reading the other catalog's scores.
    let m = misses();
    let _ = ServeState::load_or_build_book(&spec, &store.book_path()).expect("original again");
    assert_eq!(misses(), m + 1);
}
