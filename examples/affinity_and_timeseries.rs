//! Machine-level collocation/anti-collocation rules plus the per-scan
//! time series recorder — the library features beyond the paper's core
//! algorithm.
//!
//! ```sh
//! cargo run --release --example affinity_and_timeseries
//! ```

use pagerankvm::{GraphLimits, PageRankConfig, PageRankVmPlacer, ScoreBook};
use prvm_model::{catalog, place_batch_with_rules, AffinityRules, Cluster, Quantizer};
use prvm_sim::{build_cluster, Algorithm, Scenario, SimConfig, Workload, WorkloadConfig};
use prvm_traces::TraceKind;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // --- 1. A three-tier deployment with affinity rules --------------------
    // web x2 (replicas, must NOT share a PM), app + cache (must share a PM
    // for latency), db (no rule).
    let vms = vec![
        catalog::vm_c3_large(),  // 0: web-a
        catalog::vm_c3_large(),  // 1: web-b
        catalog::vm_m3_large(),  // 2: app
        catalog::vm_m3_medium(), // 3: cache
        catalog::vm_m3_xlarge(), // 4: db
    ];
    let rules = AffinityRules::new()
        .separate(vec![0, 1])
        .collocate(vec![2, 3]);

    let book = Arc::new(ScoreBook::build(
        Quantizer::default(),
        &catalog::ec2_pm_types(),
        &catalog::ec2_vm_types(),
        &PageRankConfig::default(),
        GraphLimits::default(),
    )?);
    let mut placer = PageRankVmPlacer::new(book);
    let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 6);
    let ids = place_batch_with_rules(&mut placer, &mut cluster, &vms, &rules)?;

    println!("three-tier deployment placed under affinity rules:");
    for (i, (id, vm)) in ids.iter().zip(&vms).enumerate() {
        let pm = cluster.locate(*id).expect("placed");
        println!("  request {i} ({:<10}) -> PM {}", vm.name, pm.0);
    }
    assert_ne!(cluster.locate(ids[0]), cluster.locate(ids[1]), "web split");
    assert_eq!(cluster.locate(ids[2]), cluster.locate(ids[3]), "app+cache");

    // --- 2. Time series of a simulated day ---------------------------------
    let sim = SimConfig {
        horizon_s: 6 * 3600,
        ..SimConfig::default()
    };
    let wl = WorkloadConfig::sized_for(150, TraceKind::GoogleCluster);
    let workload = Workload::generate(&wl, sim.scans(), 3);
    let sim_book = prvm_sim::ec2_score_book()?;
    let (mut p, mut e) = Algorithm::PageRankVm.build(&sim_book, 3);
    let run =
        Scenario::default().run(&sim, build_cluster(&wl), &workload, p.as_mut(), e.as_mut())?;
    let (outcome, ts) = (run.outcome, run.series);

    println!(
        "\n6 h simulation: {} scans recorded, {} migrations, peak mean utilization at scan {:?}",
        ts.len(),
        outcome.migrations,
        ts.peak_scan()
    );
    // A terminal sparkline of mean utilization.
    let glyphs = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let line: String = ts
        .samples()
        .iter()
        .map(|s| glyphs[((s.mean_utilization * 8.0).round() as usize).min(8)])
        .collect();
    println!("mean active-PM utilization: |{line}|");

    let csv = std::env::temp_dir().join("pagerankvm_timeseries.csv");
    ts.write_csv(&mut std::fs::File::create(&csv)?)?;
    println!("full per-scan series written to {}", csv.display());
    Ok(())
}
