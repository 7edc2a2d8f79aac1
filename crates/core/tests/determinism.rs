//! The parallel-determinism contract (DESIGN.md §10): graph build and
//! PageRank produce **bit-for-bit identical** results at any worker
//! count. Scores are compared by `f64::to_bits`, not approximate
//! equality — scheduling must never leak into results.

use pagerankvm::{
    pagerank, pagerank_warm, GraphLimits, Orientation, PageRankConfig, PageRankResult,
    ProfileGraph, ProfileSpace, ProfileVm, ScoreBook, ScoreTable,
};
use prvm_model::{catalog, Quantizer, VmSpec};
use std::sync::{Mutex, PoisonError};

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

/// The worker width is process-wide and the tests in this binary run
/// concurrently, so every width change happens under this lock.
static WIDTH: Mutex<()> = Mutex::new(());

/// The worker widths every case here runs at.
const WIDTHS: [usize; 3] = [1, 2, 4];

/// Run `case` once per worker width in `widths`, in order, with the
/// global width set to it; the results come back in the same order.
fn at_widths<R>(widths: &[usize], mut case: impl FnMut(usize) -> R) -> Vec<R> {
    let _width = WIDTH.lock().unwrap_or_else(PoisonError::into_inner);
    let results = widths
        .iter()
        .map(|&threads| {
            prvm_par::set_global_threads(threads);
            case(threads)
        })
        .collect();
    prvm_par::set_global_threads(0);
    results
}

/// Assert that `got` equals `want` node for node: profile, successor
/// row and utilization bits.
fn assert_same_graph(got: &ProfileGraph, want: &ProfileGraph, what: &str) {
    assert_eq!(got.node_count(), want.node_count(), "{what}");
    assert_eq!(got.edge_count(), want.edge_count(), "{what}");
    for id in want.node_ids() {
        assert_eq!(
            got.profile(id),
            want.profile(id),
            "{what}: node {id} profile"
        );
        assert_eq!(
            got.successors(id),
            want.successors(id),
            "{what}: node {id} successors"
        );
        assert_eq!(
            got.utilization(id).to_bits(),
            want.utilization(id).to_bits(),
            "{what}: node {id} utilization bits"
        );
    }
}

/// Assert that `got` equals `want` bit for bit: iterations, scores and
/// the residual trajectory.
fn assert_same_pagerank(got: &PageRankResult, want: &PageRankResult, what: &str) {
    assert_eq!(got.iterations, want.iterations, "{what}: iteration count");
    assert_eq!(got.converged, want.converged, "{what}");
    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    assert_eq!(bits(&got.scores), bits(&want.scores), "{what}: score bits");
    assert_eq!(
        bits(&got.residuals),
        bits(&want.residuals),
        "{what}: residual bits"
    );
}

#[test]
fn graph_build_is_identical_at_1_2_4_threads() {
    let graphs = at_widths(&WIDTHS, |_| {
        ProfileGraph::build(space(), paper_vms(), GraphLimits::default()).expect("build")
    });
    assert!(
        graphs[0].node_count() > 100,
        "space too small to exercise chunking: {} nodes",
        graphs[0].node_count()
    );
    for (got, threads) in graphs.iter().zip(WIDTHS).skip(1) {
        assert_same_graph(got, &graphs[0], &format!("{threads} threads"));
    }
}

#[test]
fn pagerank_bits_are_identical_at_1_2_4_threads_both_orientations() {
    let graph = ProfileGraph::build(space(), paper_vms(), GraphLimits::default()).expect("build");
    for orientation in [Orientation::TowardEmptier, Orientation::TowardFuller] {
        let config = PageRankConfig {
            orientation,
            ..PageRankConfig::default()
        };
        let runs = at_widths(&WIDTHS, |_| pagerank(&graph, &config));
        assert!(runs[0].converged, "{orientation:?}");
        for (got, threads) in runs.iter().zip(WIDTHS).skip(1) {
            assert_same_pagerank(
                got,
                &runs[0],
                &format!("{orientation:?} at {threads} threads"),
            );
        }
    }
}

/// Profiling is observation-only: with the per-worker timeline
/// recorder enabled (and, in test builds, the counting allocator
/// compiled in via the `prof-alloc` dev-dependency feature), graph and
/// score bits still match the unprofiled sequential reference exactly.
/// The 2-worker run puts chunks on at least two worker lanes under both
/// the `graph_build` and the `pagerank` span, which shows the global
/// width reaches both entry points.
#[test]
fn profiling_enabled_runs_are_bit_identical() {
    let mut runs = at_widths(&[1, 2], |threads| {
        let profiled = threads == 2;
        if profiled {
            prvm_obs::timeline::enable();
        }
        let graph =
            ProfileGraph::build(space(), paper_vms(), GraphLimits::default()).expect("build");
        let pr = pagerank(&graph, &PageRankConfig::default());
        let timeline = profiled.then(prvm_obs::timeline::disable);
        (graph, pr, timeline)
    });
    let (profiled, profiled_pr, timeline) = runs.pop().expect("2-worker run");
    let (reference, reference_pr, _) = runs.pop().expect("1-worker run");
    let timeline = timeline.expect("2-worker run is profiled");

    for span in ["graph_build/", "pagerank/"] {
        let mut lanes: Vec<u32> = timeline
            .records
            .iter()
            .filter(|r| r.lane >= 1 && r.label.starts_with(span))
            .map(|r| r.lane)
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert!(
            lanes.len() >= 2,
            "2-thread profiled run should record >= 2 worker lanes under {span}, got {lanes:?}"
        );
    }
    assert_same_graph(&profiled, &reference, "profiled");
    assert_same_pagerank(&profiled_pr, &reference_pr, "profiled");
}

/// Invariant 1 of the catalog-delta engine (DESIGN.md §15): graph
/// identity. `extend` over a catalog delta reproduces the from-scratch
/// build of the merged catalog bit-for-bit — at every worker count.
#[test]
fn extend_is_identical_to_fresh_merged_build_at_1_2_4_threads() {
    let vms = paper_vms();
    let base = ProfileGraph::build(space(), vms[1..].to_vec(), GraphLimits::default())
        .expect("base build");
    // The merged catalog in extend's VM order: base types, then delta.
    let merged = vec![vms[1].clone(), vms[0].clone()];
    let fresh =
        ProfileGraph::build(space(), merged, GraphLimits::default()).expect("fresh merged build");
    assert!(
        fresh.node_count() > base.node_count(),
        "delta must discover new nodes for this test to mean anything"
    );
    let extended = at_widths(&WIDTHS, |_| {
        base.extend(vms[..1].to_vec(), GraphLimits::default())
            .expect("extend")
    });
    for (got, threads) in extended.iter().zip(WIDTHS) {
        assert_same_graph(got, &fresh, &format!("extend at {threads} threads"));
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
    let base = ProfileGraph::build(space(), vms[1..].to_vec(), GraphLimits::default())
        .expect("base build");
    let base_pr = pagerank(&base, &config);
    assert!(base_pr.converged);

    let extended = base
        .extend(vms[..1].to_vec(), GraphLimits::default())
        .expect("extend");
    // The merged catalog in extend's VM order: base types, then delta.
    let merged = vec![vms[1].clone(), vms[0].clone()];
    let fresh =
        ProfileGraph::build(space(), merged, GraphLimits::default()).expect("fresh merged build");

    let runs = at_widths(&WIDTHS, |_| {
        (
            pagerank_warm(&extended, &config, &base, &base_pr.scores),
            pagerank_warm(&fresh, &config, &base, &base_pr.scores),
        )
    });
    let reference = &runs[0].0;
    assert!(reference.converged);
    for ((via_extend, via_fresh), threads) in runs.iter().zip(WIDTHS) {
        // Path independence: same warm start over the freshly built graph.
        assert_same_pagerank(
            via_fresh,
            reference,
            &format!("fresh path at {threads} threads"),
        );
        // Worker invariance of the warm path.
        assert_same_pagerank(via_extend, reference, &format!("warm at {threads} threads"));
    }
}

/// Invariants 1+2 through the public score-table API: `extend` equals
/// `build_seeded` bit-for-bit at every worker count.
#[test]
fn score_table_extend_matches_build_seeded_at_1_2_4_global_threads() {
    let vms = paper_vms();
    let config = PageRankConfig::default();
    let bits = |t: &ScoreTable| -> Vec<u64> { t.iter().map(|(_, s)| s.to_bits()).collect() };
    let runs = at_widths(&WIDTHS, |threads| {
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
        assert_eq!(
            bits(&extended),
            bits(&seeded),
            "extend != build_seeded at {threads} threads"
        );
        bits(&extended)
    });
    assert!(
        runs.iter().all(|r| r == &runs[0]),
        "score bits differ across 1, 2 and 4 threads"
    );
}

#[test]
fn full_space_graph_is_identical_at_1_2_4_threads() {
    let graphs = at_widths(&WIDTHS, |_| {
        ProfileGraph::build_full(space(), paper_vms(), GraphLimits::default()).expect("build_full")
    });
    for (got, threads) in graphs.iter().zip(WIDTHS).skip(1) {
        assert_same_graph(got, &graphs[0], &format!("full space at {threads} threads"));
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
/// path the same way would still fail here. Pinned at 1, 2 and 4
/// workers.
#[test]
fn cold_and_extended_graph_digests_are_pinned() {
    let limits = GraphLimits::default();
    let paper = ProfileSpace::uniform(4, 4);
    let runs = at_widths(&WIDTHS, |_| {
        let mut got: Vec<(String, u64)> = Vec::new();

        let reachable = ProfileGraph::build(paper.clone(), paper_vms(), limits).expect("build");
        got.push(("paper reachable".into(), cold_digest(&reachable)));
        let full =
            ProfileGraph::build_full(paper.clone(), paper_vms(), limits).expect("build_full");
        got.push(("paper full".into(), cold_digest(&full)));

        let vms = paper_vms();
        let base = ProfileGraph::build(space(), vms[1..].to_vec(), limits).expect("base");
        let extended = base.extend(vms[..1].to_vec(), limits).expect("extend");
        got.push(("6x6 reachable extend".into(), cold_digest(&extended)));
        let full_base =
            ProfileGraph::build_full(paper.clone(), vms[..1].to_vec(), limits).expect("base");
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
        // Full mode over a multi-kind space: every canonical profile is
        // added before the BFS, a different insert order from the
        // reachable build's.
        let (_, m3) = book.tables().next().expect("M3 table");
        let m3_full = ProfileGraph::build_full(
            m3.graph().space().clone(),
            m3.graph().vm_types().to_vec(),
            limits,
        )
        .expect("coarse M3 build_full");
        assert_eq!(
            (m3_full.node_count(), m3_full.edge_count()),
            (3_375, 24_414)
        );
        got.push(("coarse M3 full".into(), cold_digest(&m3_full)));
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
        got
    });

    // Only a deliberate change to graph or score bits may update these.
    let want = [
        ("paper reachable", 0x85cbc2ea433ec358),
        ("paper full", 0x94e8c5bcd65c63b8),
        ("6x6 reachable extend", 0x9610c7a4805cfef6),
        ("paper full extend", 0x94e8c5bcd65c63b8),
        ("coarse book M3", 0x918634e0f50146fc),
        ("coarse book C3", 0xb32e445eeb89814f),
        ("coarse M3 full", 0x5e70ccfd591bab90),
        ("coarse book extend M3", 0x385813043bc17829),
        ("coarse book extend C3", 0x22e9a9a279debcc3),
    ];
    for (got, threads) in runs.iter().zip(WIDTHS) {
        let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        assert_eq!(got, want, "{threads} threads");
    }
}

/// The default-resolution EC2 book the benchmark builds — an 82k-node
/// M3 graph — pinned the same way: the cold full-catalog book and the
/// base book (every type but `c3.xlarge`) extended by `c3.xlarge`, a
/// structural delta that mints tens of thousands of nodes. The other
/// pins run at coarse or paper resolution only.
#[test]
fn default_book_digests_are_pinned() {
    let limits = GraphLimits::default();
    let config = PageRankConfig::default();
    let pms = catalog::ec2_pm_types();
    let mut base_vms = catalog::ec2_vm_types();
    let delta = vec![base_vms.pop().expect("non-empty catalog")];
    assert_eq!(delta[0].name, "c3.xlarge");

    let mut got: Vec<(String, u64)> = Vec::new();
    let book = ScoreBook::build(
        Quantizer::default(),
        &pms,
        &catalog::ec2_vm_types(),
        &config,
        limits,
    )
    .expect("default book");
    for (pm, table) in book.tables() {
        got.push((format!("default book {}", pm.name), table_digest(table)));
    }
    let base = ScoreBook::build(Quantizer::default(), &pms, &base_vms, &config, limits)
        .expect("default base book");
    let extended = base.extend(&delta, &config, limits).expect("extend");
    for (pm, table) in extended.tables() {
        got.push((
            format!("default book extend {}", pm.name),
            table_digest(table),
        ));
    }
    // A same-footprint refresh: a renamed m3.2xlarge lands every
    // outcome on a profile the base already numbered.
    let m3 = catalog::vm_m3_2xlarge();
    let renamed = VmSpec::new(
        "m3.2xlarge.g2",
        m3.vcpus,
        m3.vcpu_mhz,
        m3.memory,
        m3.disks().to_vec(),
    );
    let refreshed = base.extend(&[renamed], &config, limits).expect("refresh");
    for (pm, table) in refreshed.tables() {
        got.push((
            format!("default book refresh {}", pm.name),
            table_digest(table),
        ));
    }

    // Only a deliberate change to graph or score bits may update these.
    let want = [
        ("default book M3", 0x152c2680ac38bb9c),
        ("default book C3", 0x69777ef2b3de7ab5),
        ("default book extend M3", 0x176b264efe944788),
        ("default book extend C3", 0xea62be54e89549c1),
        ("default book refresh M3", 0x89e07e3984440d62),
        ("default book refresh C3", 0x95d5527510b1d220),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(got, want);
}

/// The literal-pseudocode orientation ([`Orientation::TowardFuller`])
/// pinned the same way, since every other pin here runs the default
/// orientation: graph and score bits of the paper graph and of the
/// coarse EC2 book's M3 table, plus each run's sweep count. Pinned at
/// 1, 2 and 4 workers.
#[test]
fn toward_fuller_score_digests_are_pinned() {
    let limits = GraphLimits::default();
    let config = PageRankConfig {
        orientation: Orientation::TowardFuller,
        ..PageRankConfig::default()
    };
    let paper =
        ProfileGraph::build(ProfileSpace::uniform(4, 4), paper_vms(), limits).expect("paper graph");
    let book = ScoreBook::build(
        coarse(),
        &[catalog::pm_m3()],
        &catalog::ec2_vm_types(),
        &PageRankConfig::default(),
        limits,
    )
    .expect("coarse book");
    let (_, m3) = book.tables().next().expect("one table");
    let graphs = [("paper", &paper), ("coarse M3", m3.graph())];
    let runs = at_widths(&WIDTHS, |_| {
        graphs
            .iter()
            .map(|&(name, graph)| {
                let r = pagerank(graph, &config);
                (name, r.iterations, graph_digest(graph, &r.scores))
            })
            .collect::<Vec<_>>()
    });

    // Only a deliberate change to graph or score bits may update these.
    let want = [
        ("paper", 38, 0x661ba4d9259f544a),
        ("coarse M3", 24, 0x3d5f4185b2072d09),
    ];
    for (got, threads) in runs.iter().zip(WIDTHS) {
        assert_eq!(got, &want, "{threads} threads");
    }
}
