//! CI smoke check for catalog deltas (DESIGN.md §15): byte-diffs the
//! PVSB serialization of an extended score book against a from-scratch
//! seeded rebuild of the same catalog, at several worker counts.
//!
//! The determinism contract this pins down:
//!
//! 1. **Path independence** — `ScoreBook::extend` (each graph aliased
//!    or built cold over the merged catalog, then warm-started
//!    PageRank) produces bit-identical scores to
//!    `ScoreBook::build_seeded` (fresh merged graph, warm PageRank).
//! 2. **Worker-count invariance** — both paths produce the same bytes
//!    at 1, 2 and 4 workers.
//! 3. **Cache transparency** — a PVSB round trip of the extended book
//!    re-serializes to the same bytes it was loaded from.
//!
//! Exits non-zero (with a diff summary on stderr) on any mismatch, so
//! the CI `incremental-smoke` job fails loudly. Uses a coarse quantizer
//! so the check stays fast in debug builds; pass `--full` to run at the
//! default catalog resolution instead.

use pagerankvm::{GraphLimits, PageRankConfig, ScoreBook};
use prvm_model::{catalog, DiskGb, MemMib, Mhz, Quantizer, VmSpec};

/// Arbitrary but fixed: both sides of every diff use the same value, so
/// any catalog hash works for a byte comparison.
const CATALOG_HASH: u64 = 0x70_76_73_62;

fn book_bytes(book: &ScoreBook) -> Vec<u8> {
    let mut buf = Vec::new();
    book.save(&mut buf, CATALOG_HASH).expect("in-memory save");
    buf
}

fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

fn check(label: &str, expected: &[u8], got: &[u8]) -> bool {
    match first_difference(expected, got) {
        None => {
            eprintln!("[incremental-smoke] ok: {label} ({} bytes)", got.len());
            true
        }
        Some(at) => {
            eprintln!(
                "[incremental-smoke] MISMATCH: {label} differs at byte {at} \
                 (lengths {} vs {})",
                expected.len(),
                got.len()
            );
            false
        }
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let quantizer = if full {
        Quantizer::default()
    } else {
        Quantizer {
            core_slots: 2,
            mem_levels: 4,
            disk_levels: 2,
        }
    };
    let config = PageRankConfig::default();
    let limits = GraphLimits::default();
    let pm_types = catalog::ec2_pm_types();
    let all_vms = catalog::ec2_vm_types();

    // Three deltas covering both graph paths and their mix: a
    // *structural* delta (the last catalog type removed, then re-added:
    // a new footprint, so the merged catalog is built cold), a
    // *refresh* delta (a next-generation type with an identical
    // quantized footprint: aliased, no profile is new) and a *mixed*
    // delta (that refresh plus the structural type in one delta: one
    // new footprint is enough to build cold).
    let structural_base = all_vms[..all_vms.len() - 1].to_vec();
    let structural_delta = all_vms[all_vms.len() - 1..].to_vec();
    let refresh_delta = vec![VmSpec::new(
        "m3.2xlarge.g2",
        8,
        Mhz::from_ghz(0.6),
        MemMib::from_gib(30.0),
        vec![DiskGb(80), DiskGb(80)],
    )];
    let mixed_delta: Vec<VmSpec> = refresh_delta
        .iter()
        .chain(&structural_delta)
        .cloned()
        .collect();
    let scenarios: [(&str, &[VmSpec], &[VmSpec]); 3] = [
        ("structural", &structural_base, &structural_delta),
        ("refresh", &all_vms, &refresh_delta),
        ("mixed", &structural_base, &mixed_delta),
    ];

    let mut ok = true;
    for (scenario, base_vms, delta_vms) in scenarios {
        let mut reference: Option<Vec<u8>> = None;
        for threads in [1usize, 2, 4] {
            prvm_par::set_global_threads(threads);

            let base = ScoreBook::build(quantizer, &pm_types, base_vms, &config, limits)
                .expect("base catalog builds");
            let extended = base
                .extend(delta_vms, &config, limits)
                .expect("extend succeeds");
            let seeded =
                ScoreBook::build_seeded(quantizer, &pm_types, base_vms, delta_vms, &config, limits)
                    .expect("seeded rebuild succeeds");

            let extended_bytes = book_bytes(&extended);
            let seeded_bytes = book_bytes(&seeded);
            ok &= check(
                &format!("{scenario}: extend vs build_seeded at {threads} worker(s)"),
                &seeded_bytes,
                &extended_bytes,
            );

            // PVSB round trip of the extended book is bit-transparent.
            let reloaded = ScoreBook::load(&mut extended_bytes.as_slice(), CATALOG_HASH)
                .expect("own serialization loads");
            ok &= check(
                &format!("{scenario}: PVSB round trip at {threads} worker(s)"),
                &extended_bytes,
                &book_bytes(&reloaded),
            );

            // Worker-count invariance against the 1-worker reference.
            match &reference {
                None => reference = Some(extended_bytes),
                Some(r) => {
                    ok &= check(
                        &format!("{scenario}: 1 vs {threads} worker(s)"),
                        r,
                        &extended_bytes,
                    );
                }
            }
        }
    }
    prvm_par::set_global_threads(0);

    if !ok {
        eprintln!("[incremental-smoke] FAILED: extended book diverged from the seeded rebuild");
        std::process::exit(1);
    }
    eprintln!("[incremental-smoke] all byte-diffs clean");
}
