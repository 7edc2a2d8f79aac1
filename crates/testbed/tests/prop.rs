//! Property tests for the testbed controller over random agent fault
//! plans: runs are reproducible, the fault counters stay consistent, and
//! the empty plan reports no faults. In debug builds `run_testbed` also
//! runs the cluster audit (`pagerankvm::audit::debug_check_cluster`) on its
//! mirror after every scan, so every case here checks that too.

use pagerankvm::{PageRankEviction, PageRankVmPlacer, ScoreBook};
use proptest::prelude::*;
use prvm_baselines::{FirstFit, MinimumMigrationTime};
use prvm_testbed::{run_testbed, FaultPlan, TestbedConfig, TestbedOutcome};
use std::sync::{Arc, OnceLock};

/// The score book of the default node shape; node count and duration do
/// not change it, so every case shares one build.
fn book() -> Arc<ScoreBook> {
    static BOOK: OnceLock<Arc<ScoreBook>> = OnceLock::new();
    BOOK.get_or_init(|| {
        Arc::new(
            TestbedConfig::default()
                .score_book()
                .expect("testbed graph builds"),
        )
    })
    .clone()
}

fn run(
    cfg: &TestbedConfig,
    n_jobs: usize,
    pagerankvm: bool,
    seed: u64,
    plan: &FaultPlan,
) -> TestbedOutcome {
    if pagerankvm {
        let book = book();
        run_testbed(
            cfg,
            n_jobs,
            &mut PageRankVmPlacer::new(book.clone()),
            &mut PageRankEviction::new(book),
            seed,
            plan,
        )
    } else {
        run_testbed(
            cfg,
            n_jobs,
            &mut FirstFit::new(),
            &mut MinimumMigrationTime::new(),
            seed,
            plan,
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random plans of up to three kills or stalls on 3–5 nodes over at
    /// most 12 ticks, under FF and PageRankVM, on the default and on a
    /// hot (migration-heavy) workload.
    #[test]
    fn random_agent_faults_keep_outcomes_consistent(
        nodes in 3usize..=5,
        ticks in 1u64..=12,
        n_jobs in 10usize..=80,
        seed in 0u64..1000,
        pagerankvm in any::<bool>(),
        hot in any::<bool>(),
        // (kill?, node, tick, stall length); nodes wrap modulo `nodes`.
        faults in prop::collection::vec(
            (any::<bool>(), 0usize..5, 0usize..12, 1usize..=4),
            0..=3,
        ),
    ) {
        let cfg = TestbedConfig {
            nodes,
            duration_s: ticks * 10,
            utilization_scale: if hot { 1.0 } else { 0.5 },
            overload_threshold: if hot { 0.25 } else { prvm_model::OVERLOAD_THRESHOLD },
            ..TestbedConfig::default()
        };
        let mut plan = FaultPlan::none();
        for &(kill, node, at, len) in &faults {
            plan = if kill {
                plan.with_agent_kill(node % nodes, at)
            } else {
                plan.with_agent_stall(node % nodes, at, len)
            };
        }

        let o = run(&cfg, n_jobs, pagerankvm, seed, &plan);
        prop_assert_eq!(&o, &run(&cfg, n_jobs, pagerankvm, seed, &plan));
        prop_assert!(o.rejoined_nodes <= o.node_failures, "{o:?}");
        prop_assert!(o.node_failures <= nodes, "{o:?}");
        // A kill or a stall window quarantines its node at most once.
        prop_assert!(o.node_failures <= faults.len(), "{o:?}");
        prop_assert!(o.lost_jobs + o.rejected_jobs <= n_jobs, "{o:?}");
        prop_assert!((0.0..=100.0).contains(&o.slo_violation_pct), "{o:?}");

        let clean = run(&cfg, n_jobs, pagerankvm, seed, &FaultPlan::none());
        prop_assert_eq!(
            (clean.node_failures, clean.rejoined_nodes, clean.replaced_jobs, clean.lost_jobs),
            (0, 0, 0, 0)
        );
    }
}
