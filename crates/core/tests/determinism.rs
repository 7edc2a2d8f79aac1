//! The parallel-determinism contract (DESIGN.md §10): graph build and
//! PageRank produce **bit-for-bit identical** results at any worker
//! count. Scores are compared by `f64::to_bits`, not approximate
//! equality — scheduling must never leak into results.

use pagerankvm::{
    pagerank, pagerank_warm_with_pool, pagerank_with_pool, GraphLimits, Orientation,
    PageRankConfig, Pool, ProfileGraph, ProfileSpace, ProfileVm, ScoreBook, ScoreTable,
};
use prvm_model::{catalog, Quantizer};

fn paper_vms() -> Vec<ProfileVm> {
    vec![
        ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
        ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
    ]
}

/// A profile space big enough that every thread count actually chunks
/// the work (hundreds of nodes), yet quick to build in a test.
fn space() -> ProfileSpace {
    ProfileSpace::uniform(6, 6)
}

#[test]
fn graph_build_is_identical_at_1_2_4_threads() {
    let reference = ProfileGraph::build_with_pool(
        space(),
        paper_vms(),
        GraphLimits::default(),
        Pool::sequential(),
    )
    .expect("reference build");
    assert!(
        reference.node_count() > 100,
        "space too small to exercise chunking: {} nodes",
        reference.node_count()
    );
    for threads in [2usize, 4] {
        let got = ProfileGraph::build_with_pool(
            space(),
            paper_vms(),
            GraphLimits::default(),
            Pool::new(threads),
        )
        .expect("parallel build");
        assert_eq!(
            got.node_count(),
            reference.node_count(),
            "threads={threads}"
        );
        assert_eq!(
            got.edge_count(),
            reference.edge_count(),
            "threads={threads}"
        );
        for id in reference.node_ids() {
            assert_eq!(
                got.profile(id),
                reference.profile(id),
                "node {id} profile differs at {threads} threads"
            );
            assert_eq!(
                got.successors(id),
                reference.successors(id),
                "node {id} successors differ at {threads} threads"
            );
            assert_eq!(
                got.utilization(id).to_bits(),
                reference.utilization(id).to_bits(),
                "node {id} utilization bits differ at {threads} threads"
            );
        }
    }
}

#[test]
fn pagerank_bits_are_identical_at_1_2_4_threads_both_orientations() {
    for orientation in [Orientation::TowardEmptier, Orientation::TowardFuller] {
        let config = PageRankConfig {
            orientation,
            ..PageRankConfig::default()
        };
        let graph = ProfileGraph::build_with_pool(
            space(),
            paper_vms(),
            GraphLimits::default(),
            Pool::sequential(),
        )
        .expect("build");
        let reference = pagerank_with_pool(&graph, &config, Pool::sequential());
        assert!(reference.converged, "{orientation:?}");
        for threads in [2usize, 4] {
            let got = pagerank_with_pool(&graph, &config, Pool::new(threads));
            assert_eq!(
                got.iterations, reference.iterations,
                "{orientation:?} iteration count differs at {threads} threads"
            );
            assert_eq!(got.converged, reference.converged);
            for (i, (a, b)) in got.scores.iter().zip(reference.scores.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{orientation:?} score[{i}] differs at {threads} threads: {a:e} vs {b:e}"
                );
            }
            for (i, (a, b)) in got
                .residuals
                .iter()
                .zip(reference.residuals.iter())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{orientation:?} residual[{i}] differs at {threads} threads"
                );
            }
        }
    }
}

/// Profiling is observation-only: with the per-worker timeline
/// recorder enabled (and, in test builds, the counting allocator
/// compiled in via the `prof-alloc` dev-dependency feature), graph and
/// score bits still match the unprofiled sequential reference exactly.
#[test]
fn profiling_enabled_runs_are_bit_identical() {
    let reference = ProfileGraph::build_with_pool(
        space(),
        paper_vms(),
        GraphLimits::default(),
        Pool::sequential(),
    )
    .expect("reference build");
    let reference_pr =
        pagerank_with_pool(&reference, &PageRankConfig::default(), Pool::sequential());

    prvm_obs::timeline::enable();
    let profiled =
        ProfileGraph::build_with_pool(space(), paper_vms(), GraphLimits::default(), Pool::new(2))
            .expect("profiled build");
    let profiled_pr = pagerank_with_pool(&profiled, &PageRankConfig::default(), Pool::new(2));
    let timeline = prvm_obs::timeline::disable();

    assert!(
        timeline.worker_lanes().len() >= 2,
        "2-thread profiled run should record >= 2 worker lanes, got {:?}",
        timeline.lanes
    );
    assert_eq!(profiled.node_count(), reference.node_count());
    assert_eq!(profiled.edge_count(), reference.edge_count());
    for id in reference.node_ids() {
        assert_eq!(
            profiled.successors(id),
            reference.successors(id),
            "node {id}"
        );
        assert_eq!(
            profiled.utilization(id).to_bits(),
            reference.utilization(id).to_bits(),
            "node {id} utilization bits"
        );
    }
    assert_eq!(profiled_pr.iterations, reference_pr.iterations);
    for (i, (a, b)) in profiled_pr
        .scores
        .iter()
        .zip(reference_pr.scores.iter())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "score[{i}] differs under profiling"
        );
    }
}

/// Invariant 1 of the incremental score engine (DESIGN.md §15): graph
/// identity. `extend` over a catalog delta reproduces the from-scratch
/// build of the merged catalog bit-for-bit — at every worker count.
#[test]
fn extend_is_identical_to_fresh_merged_build_at_1_2_4_threads() {
    let vms = paper_vms();
    let base = ProfileGraph::build_with_pool(
        space(),
        vms[1..].to_vec(),
        GraphLimits::default(),
        Pool::sequential(),
    )
    .expect("base build");
    // The merged catalog in extend's VM order: base types, then delta.
    let merged = vec![vms[1].clone(), vms[0].clone()];
    let fresh =
        ProfileGraph::build_with_pool(space(), merged, GraphLimits::default(), Pool::sequential())
            .expect("fresh merged build");
    assert!(
        fresh.node_count() > base.node_count(),
        "delta must discover new nodes for this test to mean anything"
    );
    for threads in [1usize, 2, 4] {
        let got = base
            .extend_with_pool(
                vms[..1].to_vec(),
                GraphLimits::default(),
                Pool::new(threads),
            )
            .expect("extend");
        assert_eq!(got.node_count(), fresh.node_count(), "threads={threads}");
        assert_eq!(got.edge_count(), fresh.edge_count(), "threads={threads}");
        for id in fresh.node_ids() {
            assert_eq!(
                got.profile(id),
                fresh.profile(id),
                "node {id} profile differs at {threads} threads"
            );
            assert_eq!(
                got.successors(id),
                fresh.successors(id),
                "node {id} successors differ at {threads} threads"
            );
            assert_eq!(
                got.utilization(id).to_bits(),
                fresh.utilization(id).to_bits(),
                "node {id} utilization bits differ at {threads} threads"
            );
        }
    }
}

/// Invariant 2 (DESIGN.md §15): path independence of warm-started
/// PageRank. Seeding from the base graph's converged scores yields the
/// same bits whether the merged graph came from `extend` or from a
/// fresh build — and the bits are worker-count invariant.
#[test]
fn warm_pagerank_bits_are_worker_invariant_and_path_independent() {
    let vms = paper_vms();
    let config = PageRankConfig::default();
    let base = ProfileGraph::build_with_pool(
        space(),
        vms[1..].to_vec(),
        GraphLimits::default(),
        Pool::sequential(),
    )
    .expect("base build");
    let base_pr = pagerank_with_pool(&base, &config, Pool::sequential());
    assert!(base_pr.converged);

    let extended = base
        .extend_with_pool(
            vms[..1].to_vec(),
            GraphLimits::default(),
            Pool::sequential(),
        )
        .expect("extend");
    // The merged catalog in extend's VM order: base types, then delta.
    let merged = vec![vms[1].clone(), vms[0].clone()];
    let fresh =
        ProfileGraph::build_with_pool(space(), merged, GraphLimits::default(), Pool::sequential())
            .expect("fresh merged build");

    let reference = pagerank_warm_with_pool(
        &extended,
        &config,
        &base,
        &base_pr.scores,
        Pool::sequential(),
    );
    assert!(reference.converged);
    // Path independence: same warm start over the freshly built graph.
    let via_fresh =
        pagerank_warm_with_pool(&fresh, &config, &base, &base_pr.scores, Pool::sequential());
    assert_eq!(via_fresh.iterations, reference.iterations);
    for (i, (a, b)) in via_fresh
        .scores
        .iter()
        .zip(reference.scores.iter())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "score[{i}] differs across paths");
    }
    // Worker invariance of the warm path.
    for threads in [2usize, 4] {
        let got = pagerank_warm_with_pool(
            &extended,
            &config,
            &base,
            &base_pr.scores,
            Pool::new(threads),
        );
        assert_eq!(
            got.iterations, reference.iterations,
            "warm iteration count differs at {threads} threads"
        );
        for (i, (a, b)) in got.scores.iter().zip(reference.scores.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "warm score[{i}] differs at {threads} threads"
            );
        }
    }
}

/// Invariants 1+2 through the public score-table API: `extend` equals
/// `build_seeded` bit-for-bit at every global worker count (both use
/// the global pool internally).
#[test]
fn score_table_extend_matches_build_seeded_at_1_2_4_global_threads() {
    let vms = paper_vms();
    let config = PageRankConfig::default();
    let mut reference: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 4] {
        prvm_par::set_global_threads(threads);
        let base = ScoreTable::build(space(), vms[1..].to_vec(), &config, GraphLimits::default())
            .expect("base table");
        let extended = base
            .extend(vms[..1].to_vec(), &config, GraphLimits::default())
            .expect("extend");
        let seeded = ScoreTable::build_seeded(
            space(),
            vms[1..].to_vec(),
            vms[..1].to_vec(),
            &config,
            GraphLimits::default(),
        )
        .expect("seeded rebuild");
        let bits = |t: &ScoreTable| -> Vec<u64> { t.iter().map(|(_, s)| s.to_bits()).collect() };
        assert_eq!(
            bits(&extended),
            bits(&seeded),
            "extend != build_seeded at {threads} global threads"
        );
        match &reference {
            None => reference = Some(bits(&extended)),
            Some(r) => assert_eq!(
                r,
                &bits(&extended),
                "score bits differ between 1 and {threads} global threads"
            ),
        }
    }
    prvm_par::set_global_threads(0);
}

#[test]
fn full_space_graph_is_identical_at_1_2_4_threads() {
    let reference = ProfileGraph::build_full_with_pool(
        space(),
        paper_vms(),
        GraphLimits::default(),
        Pool::sequential(),
    )
    .expect("reference build_full");
    for threads in [2usize, 4] {
        let got = ProfileGraph::build_full_with_pool(
            space(),
            paper_vms(),
            GraphLimits::default(),
            Pool::new(threads),
        )
        .expect("parallel build_full");
        assert_eq!(got.node_count(), reference.node_count());
        assert_eq!(got.edge_count(), reference.edge_count());
        for id in reference.node_ids() {
            assert_eq!(got.successors(id), reference.successors(id), "node {id}");
        }
    }
}

/// FNV-1a (64-bit) over the bytes fed to it — the digest the cold-build
/// pins below are taken with.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn ids(&mut self, ids: &[u32]) {
        self.u64(ids.len() as u64);
        for &id in ids {
            self.bytes(&id.to_le_bytes());
        }
    }
}

/// Digest of a graph and its PageRank scores, in node-id order: the
/// profile, the successor row, every per-VM expansion group, the
/// utilization bits and the score bits of each node.
fn graph_digest(graph: &ProfileGraph, scores: &[f64]) -> u64 {
    assert_eq!(scores.len(), graph.node_count());
    let mut h = Fnv::new();
    h.u64(graph.node_count() as u64);
    h.u64(graph.vm_types().len() as u64);
    for id in graph.node_ids() {
        let values = graph.profile(id).values();
        h.u64(values.len() as u64);
        for &v in values {
            h.bytes(&v.to_le_bytes());
        }
        h.ids(graph.successors(id));
        for vm in 0..graph.vm_types().len() {
            h.ids(graph.vm_successors(id, vm));
        }
        h.u64(graph.utilization(id).to_bits());
        h.u64(scores[id as usize].to_bits());
    }
    h.0
}

fn cold_digest(graph: &ProfileGraph) -> u64 {
    graph_digest(graph, &pagerank(graph, &PageRankConfig::default()).scores)
}

fn table_digest(table: &ScoreTable) -> u64 {
    graph_digest(table.graph(), &table.pagerank().scores)
}

/// The daemon's `--coarse` profile resolution.
fn coarse() -> Quantizer {
    Quantizer {
        core_slots: 2,
        mem_levels: 4,
        disk_levels: 2,
    }
}

/// Cold-build outputs pinned to committed constants. The other tests in
/// this file compare construction paths with each other; these digests
/// tie each path's output to fixed bits, so a change that moved every
/// path the same way would still fail here.
#[test]
fn cold_and_extended_graph_digests_are_pinned() {
    let limits = GraphLimits::default();
    let paper = ProfileSpace::uniform(4, 4);
    let mut got: Vec<(String, u64)> = Vec::new();

    let reachable = ProfileGraph::build(paper.clone(), paper_vms(), limits).expect("build");
    got.push(("paper reachable".into(), cold_digest(&reachable)));
    let full = ProfileGraph::build_full(paper.clone(), paper_vms(), limits).expect("build_full");
    got.push(("paper full".into(), cold_digest(&full)));

    let vms = paper_vms();
    let base = ProfileGraph::build(space(), vms[1..].to_vec(), limits).expect("base");
    let extended = base.extend(vms[..1].to_vec(), limits).expect("extend");
    got.push(("6x6 reachable extend".into(), cold_digest(&extended)));
    let full_base = ProfileGraph::build_full(paper, vms[..1].to_vec(), limits).expect("base");
    let full_extended = full_base.extend(vms[1..].to_vec(), limits).expect("extend");
    got.push(("paper full extend".into(), cold_digest(&full_extended)));

    let config = PageRankConfig::default();
    let mut base_vms = catalog::ec2_vm_types();
    let delta = vec![base_vms.pop().expect("non-empty catalog")];
    let book = ScoreBook::build(
        coarse(),
        &catalog::ec2_pm_types(),
        &catalog::ec2_vm_types(),
        &config,
        limits,
    )
    .expect("coarse book");
    for (pm, table) in book.tables() {
        got.push((format!("coarse book {}", pm.name), table_digest(table)));
    }
    let base_book = ScoreBook::build(
        coarse(),
        &catalog::ec2_pm_types(),
        &base_vms,
        &config,
        limits,
    )
    .expect("coarse base book");
    let extended_book = base_book.extend(&delta, &config, limits).expect("extend");
    for (pm, table) in extended_book.tables() {
        got.push((
            format!("coarse book extend {}", pm.name),
            table_digest(table),
        ));
    }

    // Only a deliberate change to graph or score bits may update these.
    let want = [
        ("paper reachable", 0x85cbc2ea433ec358),
        ("paper full", 0x94e8c5bcd65c63b8),
        ("6x6 reachable extend", 0x9610c7a4805cfef6),
        ("paper full extend", 0x94e8c5bcd65c63b8),
        ("coarse book M3", 0x918634e0f50146fc),
        ("coarse book C3", 0xb32e445eeb89814f),
        ("coarse book extend M3", 0x385813043bc17829),
        ("coarse book extend C3", 0x22e9a9a279debcc3),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(got, want);
}
