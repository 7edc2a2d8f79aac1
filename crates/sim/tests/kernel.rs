//! Kernel equivalence and determinism proofs.
//!
//! The goldens below were captured from the pre-kernel scan-loop engine
//! (commit `5d8a763`, same reference setup). The event-kernel
//! compatibility scenario must reproduce every field **bit-for-bit**
//! (f64s compared by bit pattern, not tolerance) across all fault
//! presets — the refactor's central contract. Two more goldens pin the
//! paths that FirstFit + MMT on the paper path leave out: PageRankVM
//! placement and eviction over many migrations, and churn departures
//! racing crash evacuations. The proptests then pin the kernel's
//! ordering and trace determinism.

use pagerankvm::{GraphLimits, PageRankConfig, PageRankEviction, PageRankVmPlacer, ScoreBook};
use proptest::prelude::*;
use prvm_baselines::{FirstFit, MinimumMigrationTime};
use prvm_model::{catalog, EvictionPolicy, PlacementAlgorithm, Quantizer};
use prvm_sim::{
    build_cluster, simulate_multi, DepartureModel, FaultPlan, MultiConfig, Scenario, SimConfig,
    SimOutcome, SimRun, Workload, WorkloadConfig,
};
use prvm_traces::TraceKind;
use std::sync::Arc;

/// One pre-kernel outcome, f64 fields as raw bits.
struct Golden {
    pms_used: usize,
    pms_used_initial: usize,
    pms_used_max_active: usize,
    energy_bits: u64,
    migrations: usize,
    slo_bits: u64,
    overload_events: usize,
    rejected_vms: usize,
    pm_failures: usize,
    evacuations: usize,
    evacuations_abandoned: usize,
    failed_migrations: usize,
    migration_attempts: usize,
    recovery_time_s: u64,
}

/// The reference setup the goldens were captured under.
fn reference_setup() -> (SimConfig, WorkloadConfig) {
    (
        SimConfig {
            horizon_s: 4 * 3600,
            ..SimConfig::default()
        },
        WorkloadConfig {
            n_vms: 60,
            trace_kind: TraceKind::PlanetLab,
            m3_pms: 60,
            c3_pms: 30,
        },
    )
}

const GOLDENS: &[(&str, Golden)] = &[
    (
        "none",
        Golden {
            pms_used: 16,
            pms_used_initial: 16,
            pms_used_max_active: 16,
            energy_bits: 0x40374f59bff756b3,
            migrations: 2,
            slo_bits: 0x0,
            overload_events: 2,
            rejected_vms: 0,
            pm_failures: 0,
            evacuations: 0,
            evacuations_abandoned: 0,
            failed_migrations: 0,
            migration_attempts: 2,
            recovery_time_s: 0,
        },
    ),
    (
        "pm-crash",
        Golden {
            pms_used: 18,
            pms_used_initial: 16,
            pms_used_max_active: 16,
            energy_bits: 0x40374ffeebf61ed3,
            migrations: 2,
            slo_bits: 0x0,
            overload_events: 2,
            rejected_vms: 0,
            pm_failures: 2,
            evacuations: 11,
            evacuations_abandoned: 0,
            failed_migrations: 0,
            migration_attempts: 13,
            recovery_time_s: 0,
        },
    ),
    (
        "flaky-migrations",
        Golden {
            pms_used: 16,
            pms_used_initial: 16,
            pms_used_max_active: 16,
            energy_bits: 0x40374f59bff756b3,
            migrations: 2,
            slo_bits: 0x0,
            overload_events: 2,
            rejected_vms: 0,
            pm_failures: 0,
            evacuations: 0,
            evacuations_abandoned: 0,
            failed_migrations: 0,
            migration_attempts: 2,
            recovery_time_s: 0,
        },
    ),
    (
        "trace-noise",
        Golden {
            pms_used: 17,
            pms_used_initial: 16,
            pms_used_max_active: 17,
            energy_bits: 0x4038af66725fc68d,
            migrations: 12,
            slo_bits: 0x3fdf90e346646139,
            overload_events: 7,
            rejected_vms: 0,
            pm_failures: 0,
            evacuations: 0,
            evacuations_abandoned: 0,
            failed_migrations: 0,
            migration_attempts: 12,
            recovery_time_s: 0,
        },
    ),
    (
        "all",
        Golden {
            pms_used: 17,
            pms_used_initial: 16,
            pms_used_max_active: 16,
            energy_bits: 0x40375fc1f30946b0,
            migrations: 3,
            slo_bits: 0x3fd8ef606a63bd82,
            overload_events: 3,
            rejected_vms: 0,
            pm_failures: 1,
            evacuations: 5,
            evacuations_abandoned: 0,
            failed_migrations: 1,
            migration_attempts: 9,
            recovery_time_s: 600,
        },
    ),
];

/// The kernel compatibility scenario reproduces the pre-kernel scan
/// loop bit-for-bit, for every fault preset.
#[test]
fn kernel_reproduces_scan_loop_goldens_bit_identically() {
    let (sim, wl) = reference_setup();
    for (name, golden) in GOLDENS {
        let plan = FaultPlan::preset(name, sim.scans(), 77).expect("known preset");
        let workload = Workload::generate(&wl, sim.scans(), 2024);
        let o = Scenario {
            faults: plan,
            ..Scenario::default()
        }
        .run(
            &sim,
            build_cluster(&wl),
            &workload,
            &mut FirstFit::new(),
            &mut MinimumMigrationTime::new(),
        )
        .expect("valid config")
        .outcome;
        assert_matches_golden(name, &o, golden);
        assert_eq!(o.departures, 0, "{name}: the paper path never departs");
    }
}

/// Compare every [`SimOutcome`] field but `departures` against `golden`,
/// f64s by bit pattern.
fn assert_matches_golden(name: &str, o: &SimOutcome, golden: &Golden) {
    assert_eq!(o.pms_used, golden.pms_used, "{name}: pms_used");
    assert_eq!(
        o.pms_used_initial, golden.pms_used_initial,
        "{name}: pms_used_initial"
    );
    assert_eq!(
        o.pms_used_max_active, golden.pms_used_max_active,
        "{name}: pms_used_max_active"
    );
    assert_eq!(
        o.energy_kwh.to_bits(),
        golden.energy_bits,
        "{name}: energy_kwh bits ({} vs {})",
        o.energy_kwh,
        f64::from_bits(golden.energy_bits)
    );
    assert_eq!(o.migrations, golden.migrations, "{name}: migrations");
    assert_eq!(
        o.slo_violation_pct.to_bits(),
        golden.slo_bits,
        "{name}: slo_violation_pct bits ({} vs {})",
        o.slo_violation_pct,
        f64::from_bits(golden.slo_bits)
    );
    assert_eq!(
        o.overload_events, golden.overload_events,
        "{name}: overload_events"
    );
    assert_eq!(o.rejected_vms, golden.rejected_vms, "{name}: rejected_vms");
    assert_eq!(o.pm_failures, golden.pm_failures, "{name}: pm_failures");
    assert_eq!(o.evacuations, golden.evacuations, "{name}: evacuations");
    assert_eq!(
        o.evacuations_abandoned, golden.evacuations_abandoned,
        "{name}: evacuations_abandoned"
    );
    assert_eq!(
        o.failed_migrations, golden.failed_migrations,
        "{name}: failed_migrations"
    );
    assert_eq!(
        o.migration_attempts, golden.migration_attempts,
        "{name}: migration_attempts"
    );
    assert_eq!(
        o.recovery_time_s, golden.recovery_time_s,
        "{name}: recovery_time_s"
    );
}

/// The coarse score book `tests/integration.rs` builds: small enough
/// for a debug-build test, and the same PageRankVM code path as the
/// full book.
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

/// PageRankVM placement and eviction under `trace-noise`, on the
/// reference setup, by workload seed. The scan path hands the evictor
/// a per-VM demand closure and the placer a destination filter on every
/// migration. Seed 4 migrates 11 VMs (the reference seed migrates 3).
/// Seed 35 is one where the filter's two scan-state rules decide a
/// destination: a PM overloaded at the start of the scan stays
/// excluded after migrations relieve it, and a destination's demand
/// includes the VMs already moved onto it this scan.
const PAGERANK_TRACE_NOISE: &[(u64, Golden)] = &[
    (
        4,
        Golden {
            pms_used: 17,
            pms_used_initial: 14,
            pms_used_max_active: 17,
            energy_bits: 0x40373f44bc5e347a,
            migrations: 11,
            slo_bits: 0x3ff0dd427200acb1,
            overload_events: 12,
            rejected_vms: 0,
            pm_failures: 0,
            evacuations: 0,
            evacuations_abandoned: 0,
            failed_migrations: 0,
            migration_attempts: 11,
            recovery_time_s: 0,
        },
    ),
    (
        35,
        Golden {
            pms_used: 16,
            pms_used_initial: 14,
            pms_used_max_active: 16,
            energy_bits: 0x403674a92a9d1bb2,
            migrations: 6,
            slo_bits: 0x3fc17c80b30f6353,
            overload_events: 5,
            rejected_vms: 0,
            pm_failures: 0,
            evacuations: 0,
            evacuations_abandoned: 0,
            failed_migrations: 0,
            migration_attempts: 6,
            recovery_time_s: 0,
        },
    ),
];

/// FirstFit + MMT with the default churn model under `all`, on the
/// reference setup with workload seed 2084. VMs depart from PMs, a
/// crashed PM's evacuees are re-placed under their old ids and later
/// depart, and one VM departs while still in the evacuation queue (the
/// reference seed never hits that last path).
const CHURN_ALL: Golden = Golden {
    pms_used: 14,
    pms_used_initial: 14,
    pms_used_max_active: 14,
    energy_bits: 0x4031406467ad7e88,
    migrations: 5,
    slo_bits: 0x3ff09be7327dc914,
    overload_events: 2,
    rejected_vms: 0,
    pm_failures: 1,
    evacuations: 4,
    evacuations_abandoned: 0,
    failed_migrations: 3,
    migration_attempts: 12,
    recovery_time_s: 600,
};
const CHURN_ALL_DEPARTURES: usize = 40;

/// Run `scenario` on the reference setup with workload `seed`.
fn reference_outcome(
    scenario: &Scenario,
    seed: u64,
    placer: &mut dyn PlacementAlgorithm,
    evictor: &mut dyn EvictionPolicy,
) -> SimOutcome {
    let (sim, wl) = reference_setup();
    let workload = Workload::generate(&wl, sim.scans(), seed);
    scenario
        .run(&sim, build_cluster(&wl), &workload, placer, evictor)
        .expect("valid config")
        .outcome
}

/// The PageRankVM placer and evictor drive the migration sweep
/// bit-identically to the pinned run.
#[test]
fn pagerank_migrations_under_trace_noise_match_golden() {
    let (sim, _) = reference_setup();
    let book = coarse_book();
    let scenario = Scenario {
        faults: FaultPlan::preset("trace-noise", sim.scans(), 77).expect("known preset"),
        ..Scenario::default()
    };
    for (seed, golden) in PAGERANK_TRACE_NOISE {
        let o = reference_outcome(
            &scenario,
            *seed,
            &mut PageRankVmPlacer::new(book.clone()),
            &mut PageRankEviction::new(book.clone()),
        );
        let name = format!("pagerank/trace-noise seed {seed}");
        assert_matches_golden(&name, &o, golden);
        assert_eq!(o.departures, 0, "{name}: no churn model, no departures");
    }
}

/// Churn under every fault: departures, evacuations and departures out
/// of the evacuation queue reproduce the pinned run bit-identically.
#[test]
fn churn_under_all_faults_matches_golden() {
    let (sim, _) = reference_setup();
    let scenario = Scenario {
        faults: FaultPlan::preset("all", sim.scans(), 77).expect("known preset"),
        departures: Some(DepartureModel::default()),
        audit: false,
    };
    let o = reference_outcome(
        &scenario,
        2084,
        &mut FirstFit::new(),
        &mut MinimumMigrationTime::new(),
    );
    assert_matches_golden("churn/all", &o, &CHURN_ALL);
    assert_eq!(o.departures, CHURN_ALL_DEPARTURES, "churn/all: departures");
}

/// One run per preset, audited and not. The audit changes nothing and
/// finds nothing; the always-recorded series reconciles with the
/// outcome; the event trace is totally ordered and reconciles with the
/// kernel stats.
/// `all` exercises every event class and takes VMs offline. `none` (the
/// paper path) and `trace-noise` (non-zero SLO) crash no PM, so no VM is
/// ever offline.
#[test]
fn run_records_consistently_and_audit_changes_nothing() {
    let (sim, wl) = reference_setup();
    let workload = Workload::generate(&wl, sim.scans(), 2024);
    for name in ["all", "none", "trace-noise"] {
        let plan = FaultPlan::preset(name, sim.scans(), 77).expect("known preset");
        let run = |audit: bool| -> SimRun {
            Scenario {
                faults: plan.clone(),
                departures: None,
                audit,
            }
            .run(
                &sim,
                build_cluster(&wl),
                &workload,
                &mut FirstFit::new(),
                &mut MinimumMigrationTime::new(),
            )
            .expect("valid config")
        };
        let plain = run(false);
        let audited = run(true);
        assert_eq!(
            plain.outcome, audited.outcome,
            "{name}: auditing must not change the run"
        );
        assert!(plain.audit.is_none(), "{name}: no audit unless requested");
        let report = audited.audit.expect("audit requested");
        assert!(report.is_clean(), "{name}: {report}");
        assert!(
            report.capacity_checks > 0,
            "{name}: capacity family exercised"
        );

        // The series: one row per scan, totals reconcile with the outcome.
        let (o, ts) = (&plain.outcome, &plain.series);
        assert_eq!(ts.len(), sim.scans(), "{name}");
        assert_eq!(ts.total_migrations(), o.migrations, "{name}");
        let energy: f64 = ts.samples().iter().map(|s| s.energy_wh).sum();
        assert!((energy / 1000.0 - o.energy_kwh).abs() < 1e-9, "{name}");
        let failures: usize = ts.samples().iter().map(|s| s.pm_failures).sum();
        assert_eq!(failures, o.pm_failures, "{name}");
        let evacuations: usize = ts.samples().iter().map(|s| s.evacuations).sum();
        assert_eq!(evacuations, o.evacuations, "{name}");
        // Each offline VM (awaiting evacuation) is one violating sample
        // in the outcome; with the series' `offline_vms` column the SLO
        // ratio reconciles exactly on every preset.
        let slo: usize = ts.samples().iter().map(|s| s.slo_violations).sum();
        let active: usize = ts.samples().iter().map(|s| s.active_pms).sum();
        let offline: usize = ts.samples().iter().map(|s| s.offline_vms).sum();
        assert_eq!(offline > 0, o.pm_failures > 0, "{name}: offline VMs");
        let pct = 100.0 * (slo + offline) as f64 / (active + offline) as f64;
        assert_eq!(
            pct.to_bits(),
            o.slo_violation_pct.to_bits(),
            "{name}: {pct} vs {o:?}"
        );

        // The event trace and the kernel stats.
        let (trace, stats) = (&plain.events, plain.stats);
        assert!(!trace.is_empty(), "{name}");
        assert_eq!(trace.len() as u64, stats.dispatched, "{name}");
        assert_eq!(
            stats.scheduled, stats.dispatched,
            "{name}: compat scenario schedules upfront"
        );
        assert!(stats.end_time_s < sim.horizon_s, "{name}");
        // Total order: (time, class, seq) strictly increases record to record.
        for pair in trace.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                (a.time_s, a.class, a.seq) < (b.time_s, b.class, b.seq),
                "{name}: dispatch order violated: {a:?} then {b:?}"
            );
        }
        // Scans and samples both fire exactly once per interval.
        let scans = trace.iter().filter(|r| r.label == "scan").count();
        let samples = trace.iter().filter(|r| r.label == "sample").count();
        assert_eq!(scans, sim.scans(), "{name}");
        assert_eq!(samples, sim.scans(), "{name}");
        assert_eq!(audited.events, plain.events, "{name}");
        assert_eq!(audited.stats, plain.stats, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed ⇒ same event trace, whatever the preset; a different
    /// workload seed diverges (the trace is seed-determined, not
    /// constant).
    #[test]
    fn same_seed_same_event_trace(seed in 0u64..1000, preset_idx in 0usize..5) {
        let (sim, wl) = reference_setup();
        let name = FaultPlan::preset_names()[preset_idx];
        let plan = FaultPlan::preset(name, sim.scans(), 77).expect("known preset");
        let run = |s: u64| {
            let workload = Workload::generate(&wl, sim.scans(), s);
            Scenario {
                faults: plan.clone(),
                ..Scenario::default()
            }
            .run(
                &sim,
                build_cluster(&wl),
                &workload,
                &mut FirstFit::new(),
                &mut MinimumMigrationTime::new(),
            )
            .expect("valid config")
        };
        let (r1, r2) = (run(seed), run(seed));
        prop_assert_eq!(r1.outcome, r2.outcome);
        prop_assert_eq!(r1.events, r2.events);
        prop_assert_eq!(r1.stats, r2.stats);
    }

    /// Multi-scheduler runs are deterministic at any scheduler count,
    /// and the store stays invariant-clean.
    #[test]
    fn multi_is_deterministic_at_any_scheduler_count(
        schedulers in 1usize..6,
        commit_delay_s in 0u64..10,
        seed in 0u64..1000,
    ) {
        let wl = WorkloadConfig {
            n_vms: 30,
            trace_kind: TraceKind::PlanetLab,
            m3_pms: 30,
            c3_pms: 15,
        };
        let multi = MultiConfig {
            schedulers,
            commit_delay_s,
            ack_delay_s: commit_delay_s,
            inter_arrival_s: 1,
            max_retries: 8,
        };
        let workload = Workload::generate(&wl, 12, seed);
        let run = || {
            let placers = (0..schedulers)
                .map(|_| Box::new(FirstFit::new()) as Box<dyn prvm_model::PlacementAlgorithm>)
                .collect();
            simulate_multi(&multi, build_cluster(&wl), &workload, placers)
                .expect("valid config")
        };
        let (o1, r1) = run();
        let (o2, r2) = run();
        prop_assert!(r1.is_clean(), "audit: {:?}", r1);
        prop_assert!(r2.is_clean());
        prop_assert_eq!(o1, o2);
    }
}
