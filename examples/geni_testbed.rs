//! The GENI testbed emulation: a centralized controller calling ten
//! in-process node agents, comparing PageRankVM with first fit on the
//! paper's job shapes.
//!
//! ```sh
//! cargo run --release --example geni_testbed
//! ```

use pagerankvm::{PageRankEviction, PageRankVmPlacer};
use prvm_baselines::{FirstFit, MinimumMigrationTime};
use prvm_testbed::{run_testbed, FaultPlan, TestbedConfig};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let cfg = TestbedConfig {
        duration_s: 1800, // half an hour of virtual time for the demo
        ..TestbedConfig::default()
    };
    println!(
        "emulated GENI testbed: {} nodes x {} cores, {} s scans, {} scans total",
        cfg.nodes,
        cfg.cores_per_node,
        cfg.scan_interval_s,
        cfg.scans()
    );

    let book = Arc::new(cfg.score_book()?);
    println!(
        "score table: {} profiles for the node type\n",
        book.table(&cfg.pm_spec()).expect("built").len()
    );

    println!(
        "{:<12} {:>6} {:>11} {:>11} {:>12} {:>8}",
        "algorithm", "jobs", "nodes used", "ever used", "migrations", "SLO %"
    );
    for jobs in [100usize, 200, 300] {
        // PageRankVM with its own eviction rule.
        let mut placer = PageRankVmPlacer::new(book.clone());
        let mut evictor = PageRankEviction::new(book.clone());
        let o = run_testbed(
            &cfg,
            jobs,
            &mut placer,
            &mut evictor,
            42,
            &FaultPlan::none(),
        );
        println!(
            "{:<12} {:>6} {:>11} {:>11} {:>12} {:>8.2}",
            "PageRankVM", jobs, o.pms_used_initial, o.pms_used, o.migrations, o.slo_violation_pct
        );

        // First fit with CloudSim's MMT eviction.
        let mut ff = FirstFit::new();
        let mut mmt = MinimumMigrationTime::new();
        let o = run_testbed(&cfg, jobs, &mut ff, &mut mmt, 42, &FaultPlan::none());
        println!(
            "{:<12} {:>6} {:>11} {:>11} {:>12} {:>8.2}",
            "FF", jobs, o.pms_used_initial, o.pms_used, o.migrations, o.slo_violation_pct
        );
    }
    Ok(())
}
