//! Goldens of every placer's decisions: the `(pm, assignment)` sequence
//! `choose` returns on the Fig. 3 workloads and under remove/place churn,
//! pinned line for line.
//!
//! - `tests/golden/placer_decisions.txt`: `PageRankVmPlacer` on the
//!   Fig. 3 workloads and under churn at 1000 used PMs.
//! - `tests/golden/baseline_decisions.txt`: FF, FFDSum, CompVM, BestFit,
//!   WorstFit and the 2-choice variant, each as `Algorithm::build` makes
//!   it, on the same Fig. 3 workloads (batch-ordered, so FFDSum sorts) and
//!   under churn at 200 used PMs.
//!
//! The placers' internals (ranked-option cache, scan shortcuts) may
//! change; their decisions may not. Regenerate the files with
//! `PRVM_BLESS=1 cargo test --test placer_golden` only for an intended
//! change of decisions.

use pagerankvm::{GraphLimits, PageRankConfig, PageRankVmPlacer, ScoreBook};
use prvm_model::{catalog, Cluster, PlacementAlgorithm, PlacementDecision, PmId, Quantizer, VmId};
use prvm_sim::{build_cluster, Algorithm, Workload, WorkloadConfig};
use prvm_traces::TraceKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/placer_decisions.txt"
);
const BASELINE_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/baseline_decisions.txt"
);

/// VMs per Fig. 3 workload.
const FIG3_VMS: usize = 400;
/// Used PMs the PageRankVM churn runs at.
const CHURN_USED_PMS: usize = 1000;
/// Used PMs the baseline churn runs at: CompVM rates every distinct
/// assignment on every used PM, too slow at 1000 in a debug build.
const BASELINE_CHURN_USED_PMS: usize = 200;
/// Churn ops recorded.
const CHURN_OPS: usize = 300;

fn book() -> Arc<ScoreBook> {
    static BOOK: OnceLock<Arc<ScoreBook>> = OnceLock::new();
    let book = BOOK.get_or_init(|| {
        Arc::new(
            ScoreBook::build(
                Quantizer {
                    core_slots: 4,
                    mem_levels: 8,
                    disk_levels: 2,
                },
                &catalog::ec2_pm_types(),
                &catalog::ec2_vm_types(),
                &PageRankConfig::default(),
                GraphLimits::default(),
            )
            .expect("catalog graph builds"),
        )
    });
    Arc::clone(book)
}

fn record(out: &mut String, tag: &str, decision: Option<&PlacementDecision>) {
    match decision {
        Some(d) => {
            let _ = writeln!(
                out,
                "{tag} pm={} cores={:?} disks={:?}",
                d.pm.0, d.assignment.cores, d.assignment.disks
            );
        }
        None => {
            let _ = writeln!(out, "{tag} none");
        }
    }
}

/// The Fig. 3 initial allocation: every VM of the workload, in the
/// placer's batch order, onto the interleaved M3/C3 pool.
fn fig3(
    placer: &mut dyn PlacementAlgorithm,
    kind: TraceKind,
    seed: u64,
    tag: &str,
    out: &mut String,
) {
    let cfg = WorkloadConfig::sized_for(FIG3_VMS, kind);
    let mut specs = Workload::generate(&cfg, 1, seed).specs;
    placer.order_batch(&mut specs);
    let mut cluster = build_cluster(&cfg);
    let tag = format!("{tag}fig3-{}-{seed}", kind.label());
    for spec in specs {
        let decision = placer.choose(&cluster, &spec, &|_| false);
        record(out, &tag, decision.as_ref());
        if let Some(d) = decision {
            cluster
                .place(d.pm, spec, d.assignment)
                .expect("valid decision");
        }
    }
}

/// Fill the interleaved M3/C3 pool with random EC2 types, each PM to
/// 80 % of CPU and memory in turn, until `used_pms` are used.
fn churn_fill(rng: &mut StdRng, used_pms: usize) -> (Cluster, Vec<VmId>) {
    let types = catalog::ec2_vm_types();
    let mut cluster = build_cluster(&WorkloadConfig {
        n_vms: 0,
        trace_kind: TraceKind::PlanetLab,
        m3_pms: used_pms,
        c3_pms: used_pms / 2,
    });
    let mut residents = Vec::new();
    let mut next = types[rng.gen_range(0..types.len())].clone();
    for pm_id in cluster.unused_pms().collect::<Vec<_>>() {
        if cluster.active_pm_count() >= used_pms {
            break;
        }
        loop {
            let pm = cluster.pm(pm_id);
            let cpu = (pm.total_cpu_used().as_f64() + next.total_cpu().as_f64())
                / pm.spec().total_cpu().as_f64();
            let mem = pm.mem_utilization() + next.memory.as_f64() / pm.spec().memory.as_f64();
            if cpu > 0.8 || mem > 0.8 {
                break;
            }
            let Some(assignment) = pm.first_feasible(&next) else {
                break;
            };
            residents.push(cluster.place(pm_id, next, assignment).expect("fits"));
            next = types[rng.gen_range(0..types.len())].clone();
        }
    }
    (cluster, residents)
}

/// Remove a random resident, place a random type, roll both back. Every
/// third op excludes a stripe of PMs, as migration does.
fn churn(
    placer: &mut dyn PlacementAlgorithm,
    used_pms: usize,
    seed: u64,
    tag: &str,
    out: &mut String,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let types = catalog::ec2_vm_types();
    let (mut cluster, residents) = churn_fill(&mut rng, used_pms);
    assert!(cluster.active_pm_count() >= used_pms);
    for op in 0..CHURN_OPS {
        let victim = residents[rng.gen_range(0..residents.len())];
        let spec = types[rng.gen_range(0..types.len())].clone();
        let (from, old_spec, old_assignment) = cluster.remove(victim).expect("resident");
        let stripe = rng.gen_range(0..7usize);
        let decision = if op % 3 == 0 {
            placer.choose(&cluster, &spec, &|pm: PmId| pm.0 % 7 == stripe)
        } else {
            placer.choose(&cluster, &spec, &|_| false)
        };
        record(out, &format!("{tag}churn-{seed}"), decision.as_ref());
        if let Some(d) = decision {
            let id = cluster
                .place(d.pm, spec, d.assignment)
                .expect("valid decision");
            cluster.remove(id).expect("just placed");
        }
        cluster
            .place_as(victim, from, old_spec, old_assignment)
            .expect("restore");
    }
}

fn decisions() -> String {
    let book = book();
    let mut out = String::new();
    for kind in [TraceKind::PlanetLab, TraceKind::GoogleCluster] {
        let mut placer = PageRankVmPlacer::new(Arc::clone(&book));
        fig3(&mut placer, kind, 42, "", &mut out);
    }
    let mut placer = PageRankVmPlacer::new(Arc::clone(&book));
    churn(&mut placer, CHURN_USED_PMS, 9, "", &mut out);
    out
}

/// Each baseline (and the 2-choice variant) on both Fig. 3 workloads and
/// the churn, a fresh placer per run; lines are tagged with its name.
fn baseline_decisions() -> String {
    let book = book();
    let mut out = String::new();
    for algo in [
        Algorithm::FirstFit,
        Algorithm::FfdSum,
        Algorithm::CompVm,
        Algorithm::BestFit,
        Algorithm::WorstFit,
        Algorithm::TwoChoice,
    ] {
        let tag = format!("{} ", algo.name());
        for kind in [TraceKind::PlanetLab, TraceKind::GoogleCluster] {
            let (mut placer, _) = algo.build(&book, 7);
            fig3(placer.as_mut(), kind, 42, &tag, &mut out);
        }
        let (mut placer, _) = algo.build(&book, 7);
        churn(placer.as_mut(), BASELINE_CHURN_USED_PMS, 9, &tag, &mut out);
    }
    out
}

/// Compare `got` with the golden at `path` line by line, or rewrite the
/// golden under `PRVM_BLESS`.
fn check_golden(path: &str, got: &str) {
    if std::env::var_os("PRVM_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().expect("dir"))
            .expect("create golden dir");
        std::fs::write(path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file present");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "decision {} differs from the golden", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "decision count differs from the golden"
    );
}

#[test]
fn placer_decisions_match_golden() {
    check_golden(GOLDEN, &decisions());
}

#[test]
fn baseline_decisions_match_golden() {
    check_golden(BASELINE_GOLDEN, &baseline_decisions());
}
