//! Cross-crate integration tests: the full pipeline from score-table
//! construction through placement, simulation, testbed emulation and the
//! exact solver.

use pagerankvm::{GraphLimits, PageRankConfig, PageRankEviction, PageRankVmPlacer, ScoreBook};
use prvm_baselines::{CompVm, FfdSum, FirstFit, MinimumMigrationTime};
use prvm_model::{catalog, place_batch, Cluster, PlacementAlgorithm, Quantizer};
use prvm_sim::{build_cluster, simulate, Algorithm, SimConfig, Workload, WorkloadConfig};
use prvm_solver::{solve_min_pms, SolverConfig};
use prvm_testbed::{run_testbed, FaultPlan, TestbedConfig};
use prvm_traces::TraceKind;
use std::sync::Arc;

fn coarse_book() -> Arc<ScoreBook> {
    Arc::new(
        ScoreBook::build(
            Quantizer {
                core_slots: 2,
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

#[test]
fn full_pipeline_places_simulates_and_reports() {
    let book = coarse_book();
    let sim = SimConfig {
        horizon_s: 2 * 3600,
        ..SimConfig::default()
    };
    let wl = WorkloadConfig {
        n_vms: 80,
        trace_kind: TraceKind::PlanetLab,
        m3_pms: 80,
        c3_pms: 40,
    };
    let workload = Workload::generate(&wl, sim.scans(), 1);
    let mut placer = PageRankVmPlacer::new(book.clone());
    let mut evictor = PageRankEviction::new(book);
    let o = simulate(
        &sim,
        build_cluster(&wl),
        &workload,
        &mut placer,
        &mut evictor,
    );
    assert_eq!(o.rejected_vms, 0);
    assert!(o.pms_used_initial > 0);
    assert!(o.pms_used >= o.pms_used_initial);
    assert!(o.pms_used_max_active >= o.pms_used_initial);
    assert!(o.energy_kwh > 0.0);
    assert!((0.0..=100.0).contains(&o.slo_violation_pct));
}

#[test]
fn all_algorithms_place_the_same_workload_without_rejection() {
    let book = coarse_book();
    let types = catalog::ec2_vm_types();
    let vms: Vec<_> = (0..48).map(|i| types[i % types.len()].clone()).collect();
    for algo in [
        Algorithm::PageRankVm,
        Algorithm::TwoChoice,
        Algorithm::FirstFit,
        Algorithm::FfdSum,
        Algorithm::CompVm,
        Algorithm::BestFit,
        Algorithm::WorstFit,
    ] {
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 48);
        let (mut placer, _) = algo.build(&book, 3);
        let ids = place_batch(placer.as_mut(), &mut cluster, vms.clone())
            .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()));
        assert_eq!(ids.len(), 48, "{}", algo.name());
        // Every placement satisfies anti-collocation by construction;
        // verify via the model's own validator on a replay.
        for id in ids {
            let pm = cluster.locate(id).expect("placed");
            let (_spec, assignment) = cluster.pm(pm).vm(id).expect("resident");
            assert!(assignment.is_anti_collocated());
        }
    }
}

#[test]
fn pagerankvm_initial_allocation_is_competitive() {
    // The paper's headline, at test scale: PageRankVM should use no more
    // PMs than FF/FFDSum for a mixed workload.
    let book = coarse_book();
    let types = catalog::ec2_vm_types();
    let vms: Vec<_> = (0..90)
        .map(|i| types[(i * 7) % types.len()].clone())
        .collect();

    let count = |mut algo: Box<dyn PlacementAlgorithm>| -> usize {
        let mut cluster = Cluster::from_specs((0..90).map(|i| {
            if i % 3 == 2 {
                catalog::pm_c3()
            } else {
                catalog::pm_m3()
            }
        }));
        place_batch(algo.as_mut(), &mut cluster, vms.clone()).expect("pool big enough");
        cluster.active_pm_count()
    };

    let pr = count(Box::new(PageRankVmPlacer::new(book)));
    let ff = count(Box::new(FirstFit::new()));
    let ffd = count(Box::new(FfdSum::new(catalog::pm_m3())));
    let comp = count(Box::new(CompVm::new()));
    assert!(
        pr <= ff && pr <= ffd,
        "PageRankVM {pr} vs FF {ff}, FFDSum {ffd}, CompVM {comp}"
    );
}

#[test]
fn heuristics_never_beat_the_exact_optimum() {
    let pms = vec![catalog::pm_m3(); 5];
    let vm_sets: Vec<Vec<prvm_model::VmSpec>> = vec![
        vec![catalog::vm_m3_large(); 5],
        vec![
            catalog::vm_m3_2xlarge(),
            catalog::vm_m3_xlarge(),
            catalog::vm_c3_large(),
            catalog::vm_m3_medium(),
        ],
        vec![catalog::vm_c3_xlarge(); 4],
    ];
    let book = coarse_book();
    for vms in vm_sets {
        let exact = solve_min_pms(&pms, &vms, &SolverConfig::default()).expect("feasible instance");
        assert!(exact.optimal, "solver budget should suffice at this size");

        for algo in [
            Algorithm::PageRankVm,
            Algorithm::FirstFit,
            Algorithm::CompVm,
        ] {
            let mut cluster = Cluster::from_specs(pms.clone());
            let (mut placer, _) = algo.build(&book, 1);
            place_batch(placer.as_mut(), &mut cluster, vms.clone()).expect("fits");
            assert!(
                cluster.active_pm_count() >= exact.pm_count,
                "{} used fewer PMs than the proven optimum",
                algo.name()
            );
        }
    }
}

#[test]
fn testbed_and_placer_agree_on_anti_collocation_shapes() {
    let cfg = TestbedConfig {
        duration_s: 300,
        ..TestbedConfig::default()
    };
    let book = Arc::new(cfg.score_book().expect("testbed graph builds"));
    let mut placer = PageRankVmPlacer::new(book.clone());
    let mut evictor = PageRankEviction::new(book);
    let pr = run_testbed(&cfg, 120, &mut placer, &mut evictor, 9, &FaultPlan::none());

    let mut ff = FirstFit::new();
    let mut mmt = MinimumMigrationTime::new();
    let ffo = run_testbed(&cfg, 120, &mut ff, &mut mmt, 9, &FaultPlan::none());

    assert_eq!(pr.rejected_jobs, 0);
    assert_eq!(ffo.rejected_jobs, 0);
    assert!(pr.pms_used_initial <= ffo.pms_used_initial + 2);
}

#[test]
fn deterministic_experiments_reproduce_bit_for_bit() {
    let book = coarse_book();
    let sim = SimConfig {
        horizon_s: 1800,
        ..SimConfig::default()
    };
    let wl = WorkloadConfig {
        n_vms: 40,
        trace_kind: TraceKind::GoogleCluster,
        m3_pms: 40,
        c3_pms: 20,
    };
    let run = || {
        let workload = Workload::generate(&wl, sim.scans(), 5);
        let (mut placer, mut evictor) = Algorithm::PageRankVm.build(&book, 5);
        simulate(
            &sim,
            build_cluster(&wl),
            &workload,
            placer.as_mut(),
            evictor.as_mut(),
        )
    };
    assert_eq!(run(), run());
}
