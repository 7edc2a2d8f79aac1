//! End-to-end benchmarks: one simulated hour of datacenter time, and one
//! emulated testbed run — the cost of regenerating a single figure point.

use criterion::{criterion_group, criterion_main, Criterion};
use prvm_sim::{
    build_cluster, ec2_score_book, simulate, Algorithm, SimConfig, Workload, WorkloadConfig,
};
use prvm_testbed::{run_testbed, FaultPlan, TestbedConfig};
use prvm_traces::TraceKind;
use std::sync::Arc;

fn bench_simulation(c: &mut Criterion) {
    let book = ec2_score_book().expect("EC2 catalog graph builds");
    let sim = SimConfig {
        horizon_s: 3600,
        ..SimConfig::default()
    };
    let wl = WorkloadConfig::sized_for(200, TraceKind::PlanetLab);
    let workload = Workload::generate(&wl, sim.scans(), 3);

    let mut g = c.benchmark_group("simulate_1h_200vms");
    g.sample_size(10);
    for algo in Algorithm::PAPER_SET {
        g.bench_function(algo.name(), |b| {
            b.iter(|| {
                let (mut placer, mut evictor) = algo.build(&book, 3);
                simulate(
                    &sim,
                    build_cluster(&wl),
                    &workload,
                    placer.as_mut(),
                    evictor.as_mut(),
                )
            });
        });
    }
    g.finish();
}

fn bench_testbed(c: &mut Criterion) {
    let cfg = TestbedConfig {
        duration_s: 600,
        ..TestbedConfig::default()
    };
    let book = Arc::new(cfg.score_book().expect("testbed graph builds"));

    let mut g = c.benchmark_group("testbed_10min_100jobs");
    g.sample_size(10);
    for algo in [Algorithm::PageRankVm, Algorithm::FirstFit] {
        g.bench_function(algo.name(), |b| {
            b.iter(|| {
                let (mut placer, mut evictor) = algo.build(&book, 5);
                run_testbed(
                    &cfg,
                    100,
                    placer.as_mut(),
                    evictor.as_mut(),
                    5,
                    &FaultPlan::none(),
                )
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simulation, bench_testbed);
criterion_main!(benches);
