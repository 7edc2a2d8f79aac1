//! Integration tests for the testbed controller: zero drift with the
//! empty plan, degraded-but-complete outcomes when agents die mid-run,
//! quarantine/rejoin for transient stalls, and goldens that pin every
//! outcome field of fault-free and fault runs.

use pagerankvm::{PageRankEviction, PageRankVmPlacer, ScoreBook};
use prvm_baselines::{FirstFit, MinimumMigrationTime};
use prvm_testbed::{run_testbed, FaultPlan, TestbedConfig, TestbedOutcome};
use std::sync::Arc;

fn run_ff(cfg: &TestbedConfig, n_jobs: usize, seed: u64, plan: &FaultPlan) -> TestbedOutcome {
    run_testbed(
        cfg,
        n_jobs,
        &mut FirstFit::new(),
        &mut MinimumMigrationTime::new(),
        seed,
        plan,
    )
}

/// Golden zero-drift check: with no fault plan the controller reproduces
/// the exact pre-fault-layer outcome for this pinned seed, down to the
/// f64 bit pattern of the SLO percentage. If this fails, the paper path
/// moved.
#[test]
fn empty_plan_is_byte_identical_to_pre_fault_golden() {
    let cfg = TestbedConfig {
        duration_s: 600,
        ..TestbedConfig::default()
    };
    let plain = run_testbed(
        &cfg,
        80,
        &mut FirstFit::new(),
        &mut MinimumMigrationTime::new(),
        2024,
        &FaultPlan::none(),
    );

    // Captured from the tree immediately before the fault layer landed.
    assert_eq!(plain.pms_used_initial, 2);
    assert_eq!(plain.pms_used, 4);
    assert_eq!(plain.migrations, 302);
    assert_eq!(plain.overload_events, 35);
    assert_eq!(plain.rejected_jobs, 0);
    assert_eq!(
        plain.slo_violation_pct.to_bits(),
        0x4029_e492_4924_9249,
        "slo_violation_pct drifted: {}",
        plain.slo_violation_pct
    );

    // The fault counters are all zero on the paper path…
    assert_eq!(plain.node_failures, 0);
    assert_eq!(plain.rejoined_nodes, 0);
    assert_eq!(plain.replaced_jobs, 0);
    assert_eq!(plain.lost_jobs, 0);

    // …and a rerun with the empty plan is the same run.
    let empty = run_ff(&cfg, 80, 2024, &FaultPlan::none());
    assert_eq!(plain, empty);
}

/// The acceptance scenario: a node agent killed mid-run must yield a
/// degraded-but-complete outcome — the node quarantined, its jobs
/// re-placed, no panic — and stay deterministic.
#[test]
fn killed_agent_mid_run_degrades_without_panicking() {
    let cfg = TestbedConfig {
        duration_s: 120, // 12 ticks
        ..TestbedConfig::default()
    };
    // FirstFit packs node 0 first, so killing it strands real jobs.
    let plan = FaultPlan::none().with_agent_kill(0, 3);
    let o = run_ff(&cfg, 80, 2024, &plan);

    assert_eq!(o.node_failures, 1, "{o:?}");
    assert_eq!(o.rejoined_nodes, 0, "a dead agent never rejoins: {o:?}");
    assert!(o.replaced_jobs > 0, "node 0's jobs move elsewhere: {o:?}");
    assert_eq!(o.lost_jobs, 0, "nine idle nodes have room: {o:?}");
    assert!((0.0..=100.0).contains(&o.slo_violation_pct));
    // The re-placements spread onto nodes the initial allocation never
    // touched.
    assert!(o.pms_used > o.pms_used_initial, "{o:?}");

    assert_eq!(o, run_ff(&cfg, 80, 2024, &plan), "deterministic");
}

/// A transient stall quarantines the node and readmits it once it answers
/// a current tick again.
#[test]
fn stalled_agent_is_quarantined_then_rejoins() {
    let cfg = TestbedConfig {
        duration_s: 100, // 10 ticks
        ..TestbedConfig::default()
    };
    let plan = FaultPlan::none().with_agent_stall(0, 2, 2);
    let o = run_ff(&cfg, 80, 2024, &plan);

    assert_eq!(o.node_failures, 1, "{o:?}");
    assert_eq!(o.rejoined_nodes, 1, "answers again at tick 4: {o:?}");
    assert!(o.replaced_jobs > 0, "{o:?}");
    assert_eq!(o.lost_jobs, 0, "{o:?}");
}

/// Killing every node still terminates with a complete outcome: all jobs
/// are eventually lost, nothing hangs, nothing panics.
#[test]
fn losing_every_node_still_completes() {
    let cfg = TestbedConfig {
        nodes: 3,
        duration_s: 80, // 8 ticks
        ..TestbedConfig::default()
    };
    let mut plan = FaultPlan::none();
    for node in 0..cfg.nodes {
        plan = plan.with_agent_kill(node, 2);
    }
    let o = run_ff(&cfg, 30, 7, &plan);
    assert_eq!(o.node_failures, cfg.nodes, "{o:?}");
    assert!(o.lost_jobs > 0, "nowhere left to run: {o:?}");
    assert!((0.0..=100.0).contains(&o.slo_violation_pct));
    assert!(o.slo_violation_pct > 0.0, "lost jobs violate SLO: {o:?}");
}

/// Every field of a pinned outcome; `slo_bits` is the f64 bit pattern of
/// `slo_violation_pct`.
struct Golden {
    pms_used_initial: usize,
    pms_used: usize,
    migrations: usize,
    overload_events: usize,
    rejected_jobs: usize,
    slo_bits: u64,
    node_failures: usize,
    rejoined_nodes: usize,
    replaced_jobs: usize,
    lost_jobs: usize,
}

fn assert_golden(case: &str, o: &TestbedOutcome, g: &Golden) {
    let got = (
        o.pms_used_initial,
        o.pms_used,
        o.migrations,
        o.overload_events,
        o.rejected_jobs,
        o.slo_violation_pct.to_bits(),
        o.node_failures,
        o.rejoined_nodes,
        o.replaced_jobs,
        o.lost_jobs,
    );
    let want = (
        g.pms_used_initial,
        g.pms_used,
        g.migrations,
        g.overload_events,
        g.rejected_jobs,
        g.slo_bits,
        g.node_failures,
        g.rejoined_nodes,
        g.replaced_jobs,
        g.lost_jobs,
    );
    assert_eq!(got, want, "{case} drifted: {o:?}");
}

const fn fault_free(
    pms_used_initial: usize,
    pms_used: usize,
    migrations: usize,
    overload_events: usize,
    slo_bits: u64,
) -> Golden {
    Golden {
        pms_used_initial,
        pms_used,
        migrations,
        overload_events,
        rejected_jobs: 0,
        slo_bits,
        node_failures: 0,
        rejoined_nodes: 0,
        replaced_jobs: 0,
        lost_jobs: 0,
    }
}

fn run_pagerankvm(
    cfg: &TestbedConfig,
    book: &Arc<ScoreBook>,
    n_jobs: usize,
    seed: u64,
    plan: &FaultPlan,
) -> TestbedOutcome {
    run_testbed(
        cfg,
        n_jobs,
        &mut PageRankVmPlacer::new(book.clone()),
        &mut PageRankEviction::new(book.clone()),
        seed,
        plan,
    )
}

/// Paper-config goldens: half an hour of the default testbed, 200 jobs,
/// PageRankVM + its eviction and FF + MMT at two seeds. Every outcome
/// field is pinned, the SLO percentage by its bit pattern.
#[test]
fn fault_free_paper_config_goldens() {
    let cfg = TestbedConfig {
        duration_s: 1800,
        ..TestbedConfig::default()
    };
    let book = Arc::new(cfg.score_book().expect("testbed graph builds"));
    let none = FaultPlan::none();
    let cases = [
        (
            9,
            fault_free(5, 9, 908, 121, 0x401e_ab55_002a_9560),
            fault_free(5, 9, 2349, 154, 0x4025_aaaa_aaaa_aaab),
        ),
        (
            42,
            fault_free(5, 10, 859, 120, 0x401b_a46c_3a46_c3a4),
            fault_free(5, 9, 2286, 163, 0x402c_9249_2492_4925),
        ),
    ];
    for (seed, pr, ff) in cases {
        let o = run_pagerankvm(&cfg, &book, 200, seed, &none);
        assert_golden(&format!("PageRankVM seed {seed}"), &o, &pr);
        let o = run_ff(&cfg, 200, seed, &none);
        assert_golden(&format!("FF seed {seed}"), &o, &ff);
    }
}

/// Fault-run goldens: the kill (FF and PageRankVM), stall and
/// lose-every-node scenarios of the tests above, every field pinned.
#[test]
fn fault_run_goldens() {
    let kill_cfg = TestbedConfig {
        duration_s: 120,
        ..TestbedConfig::default()
    };
    let kill = FaultPlan::none().with_agent_kill(0, 3);
    assert_golden(
        "kill FF",
        &run_ff(&kill_cfg, 80, 2024, &kill),
        &Golden {
            node_failures: 1,
            replaced_jobs: 33,
            ..fault_free(2, 5, 100, 8, 0x402e_c4ec_4ec4_ec4f)
        },
    );
    let book = Arc::new(kill_cfg.score_book().expect("testbed graph builds"));
    assert_golden(
        "kill PageRankVM",
        &run_pagerankvm(&kill_cfg, &book, 80, 2024, &kill),
        &Golden {
            node_failures: 1,
            replaced_jobs: 32,
            ..fault_free(2, 5, 74, 9, 0x4032_eb3e_4530_6eb4)
        },
    );

    let stall_cfg = TestbedConfig {
        duration_s: 100,
        ..TestbedConfig::default()
    };
    let stall = FaultPlan::none().with_agent_stall(0, 2, 2);
    assert_golden(
        "stall FF",
        &run_ff(&stall_cfg, 80, 2024, &stall),
        &Golden {
            node_failures: 1,
            rejoined_nodes: 1,
            replaced_jobs: 43,
            ..fault_free(2, 4, 71, 7, 0x4030_aaaa_aaaa_aaab)
        },
    );

    let all_cfg = TestbedConfig {
        nodes: 3,
        duration_s: 80,
        ..TestbedConfig::default()
    };
    let mut all = FaultPlan::none();
    for node in 0..all_cfg.nodes {
        all = all.with_agent_kill(node, 2);
    }
    assert_golden(
        "lose every node",
        &run_ff(&all_cfg, 30, 7, &all),
        &Golden {
            node_failures: 3,
            lost_jobs: 30,
            ..fault_free(1, 3, 0, 0, 0x4058_b9ab_9ab9_ab9b)
        },
    );
}

/// A migration that finds no destination leaves the job on the cores it
/// never left. The hot config under PageRankVM fails such migrations;
/// restoring the job on other feasible cores instead (the earlier
/// behaviour) gave 77 migrations and 13.49 % SLO. Either restore leaves a
/// valid cluster, so only the outcome tells them apart: it is pinned here.
#[test]
fn failed_migration_restores_original_cores() {
    let cfg = TestbedConfig {
        duration_s: 600,
        utilization_scale: 1.0,
        overload_threshold: 0.25,
        ..TestbedConfig::default()
    };
    let book = Arc::new(cfg.score_book().expect("testbed graph builds"));
    assert_golden(
        "hot PageRankVM",
        &run_pagerankvm(&cfg, &book, 120, 11, &FaultPlan::none()),
        &fault_free(3, 10, 75, 60, 0x402e_0451_2903_059d),
    );
}

/// A stall and three kills at the same tick, one run each under FF + MMT
/// and PageRankVM. At scan 3 node 0 goes silent while nodes 1, 2 and 5
/// die silently. The straggler sweep quarantines node 0 first and hands
/// its jobs to nodes 2 and 5, which died that tick: their refusals
/// cascade into `dead` quarantines before the sweep reaches them. Node 0
/// rejoins once its stall ends. No other golden mixes a cascade with a
/// rejoin.
#[test]
fn stall_with_same_tick_kills_cascade_goldens() {
    let cfg = TestbedConfig {
        duration_s: 300,
        ..TestbedConfig::default()
    };
    let plan = FaultPlan::none()
        .with_agent_stall(0, 3, 2)
        .with_agent_kill(1, 3)
        .with_agent_kill(2, 3)
        .with_agent_kill(5, 3);
    assert_golden(
        "stall + kills FF",
        &run_ff(&cfg, 150, 9, &plan),
        &Golden {
            node_failures: 4,
            rejoined_nodes: 1,
            replaced_jobs: 117,
            ..fault_free(4, 10, 397, 27, 0x4030_66f1_19bc_466f)
        },
    );
    let book = Arc::new(cfg.score_book().expect("testbed graph builds"));
    assert_golden(
        "stall + kills PageRankVM",
        &run_pagerankvm(&cfg, &book, 150, 9, &plan),
        &Golden {
            node_failures: 4,
            rejoined_nodes: 1,
            replaced_jobs: 116,
            ..fault_free(4, 10, 200, 25, 0x402b_5289_17c8_0b31)
        },
    );
}
