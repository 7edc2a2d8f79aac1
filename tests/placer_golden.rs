//! Golden of Algorithm 2's decisions: the `(pm, assignment)` sequence
//! `PageRankVmPlacer::choose` returns on the Fig. 3 workloads and under
//! remove/place churn at 1000 used PMs, pinned line for line in
//! `tests/golden/placer_decisions.txt`.
//!
//! The placer's internals (ranked-option cache, scan shortcuts) may
//! change; its decisions may not. Regenerate the file with
//! `PRVM_BLESS=1 cargo test --test placer_golden` only for an intended
//! change of decisions.

use pagerankvm::{GraphLimits, PageRankConfig, PageRankVmPlacer, ScoreBook};
use prvm_model::{catalog, Cluster, PlacementAlgorithm, PlacementDecision, PmId, Quantizer, VmId};
use prvm_sim::{build_cluster, Workload, WorkloadConfig};
use prvm_traces::TraceKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/placer_decisions.txt"
);

/// VMs per Fig. 3 workload.
const FIG3_VMS: usize = 400;
/// Used PMs the churn runs at.
const CHURN_USED_PMS: usize = 1000;
/// Churn ops recorded.
const CHURN_OPS: usize = 300;

fn book() -> Arc<ScoreBook> {
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

/// The Fig. 3 initial allocation: every VM of the workload in arrival
/// order onto the interleaved M3/C3 pool.
fn fig3(book: &Arc<ScoreBook>, kind: TraceKind, seed: u64, out: &mut String) {
    let cfg = WorkloadConfig::sized_for(FIG3_VMS, kind);
    let workload = Workload::generate(&cfg, 1, seed);
    let mut cluster = build_cluster(&cfg);
    let mut placer = PageRankVmPlacer::new(Arc::clone(book));
    let tag = format!("fig3-{}-{seed}", kind.label());
    for spec in workload.specs {
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
/// 80 % of CPU and memory in turn, until `CHURN_USED_PMS` are used.
fn churn_fill(rng: &mut StdRng) -> (Cluster, Vec<VmId>) {
    let types = catalog::ec2_vm_types();
    let mut cluster = build_cluster(&WorkloadConfig {
        n_vms: 0,
        trace_kind: TraceKind::PlanetLab,
        m3_pms: CHURN_USED_PMS,
        c3_pms: CHURN_USED_PMS / 2,
    });
    let mut residents = Vec::new();
    let mut next = types[rng.gen_range(0..types.len())].clone();
    for pm_id in cluster.unused_pms().collect::<Vec<_>>() {
        if cluster.active_pm_count() >= CHURN_USED_PMS {
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
fn churn(book: &Arc<ScoreBook>, seed: u64, out: &mut String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let types = catalog::ec2_vm_types();
    let (mut cluster, residents) = churn_fill(&mut rng);
    assert!(cluster.active_pm_count() >= CHURN_USED_PMS);
    let mut placer = PageRankVmPlacer::new(Arc::clone(book));
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
        record(out, &format!("churn-{seed}"), decision.as_ref());
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
        fig3(&book, kind, 42, &mut out);
    }
    churn(&book, 9, &mut out);
    out
}

#[test]
fn placer_decisions_match_golden() {
    let got = decisions();
    if std::env::var_os("PRVM_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().expect("dir"))
            .expect("create golden dir");
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "decision {} differs from the golden", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "decision count differs from the golden"
    );
}
