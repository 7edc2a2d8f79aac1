//! Fault-injection integration tests: zero drift with the empty plan,
//! crash/evacuation behavior, and the accounting + audit invariants
//! under random fault plans.

use proptest::prelude::*;
use prvm_baselines::{FirstFit, MinimumMigrationTime};
use prvm_sim::{
    build_cluster, simulate, FaultPlan, Scenario, SimConfig, SimOutcome, SimRun, Workload,
    WorkloadConfig,
};
use prvm_traces::TraceKind;

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

fn run_scenario(sim: &SimConfig, wl: &WorkloadConfig, seed: u64, scenario: &Scenario) -> SimRun {
    let workload = Workload::generate(wl, sim.scans(), seed);
    scenario
        .run(
            sim,
            build_cluster(wl),
            &workload,
            &mut FirstFit::new(),
            &mut MinimumMigrationTime::new(),
        )
        .expect("valid config")
}

fn run_with_plan(sim: &SimConfig, wl: &WorkloadConfig, seed: u64, plan: &FaultPlan) -> SimOutcome {
    let scenario = Scenario {
        faults: plan.clone(),
        ..Scenario::default()
    };
    run_scenario(sim, wl, seed, &scenario).outcome
}

/// Golden zero-drift check: with no fault plan, the engine reproduces the
/// exact pre-fault-layer outcome for this pinned seed — down to the f64
/// bit patterns. If this test fails, the paper-reproduction path moved.
#[test]
fn empty_plan_is_byte_identical_to_pre_fault_golden() {
    let (sim, wl) = reference_setup();
    let workload = Workload::generate(&wl, sim.scans(), 2024);
    let plain = simulate(
        &sim,
        build_cluster(&wl),
        &workload,
        &mut FirstFit::new(),
        &mut MinimumMigrationTime::new(),
    );

    // Captured from the tree immediately before the fault layer landed.
    assert_eq!(plain.pms_used, 16);
    assert_eq!(plain.pms_used_initial, 16);
    assert_eq!(plain.pms_used_max_active, 16);
    assert_eq!(plain.migrations, 2);
    assert_eq!(plain.overload_events, 2);
    assert_eq!(plain.rejected_vms, 0);
    assert_eq!(
        plain.energy_kwh.to_bits(),
        0x40374f59bff756b3,
        "energy_kwh drifted: {}",
        plain.energy_kwh
    );
    assert_eq!(
        plain.slo_violation_pct.to_bits(),
        0x0,
        "slo_violation_pct drifted: {}",
        plain.slo_violation_pct
    );

    // The fault-specific counters are all zero on the paper path.
    assert_eq!(plain.pm_failures, 0);
    assert_eq!(plain.evacuations, 0);
    assert_eq!(plain.evacuations_abandoned, 0);
    assert_eq!(plain.failed_migrations, 0);
    assert_eq!(plain.recovery_time_s, 0);

    // And simulate with an explicit empty plan is the same run.
    let empty = run_with_plan(&sim, &wl, 2024, &FaultPlan::none());
    assert_eq!(plain, empty);
}

#[test]
fn pm_crash_evacuates_residents_and_accounts_recovery() {
    let (sim, wl) = reference_setup();
    let plan = FaultPlan::none().with_pm_crash(0, 2, Some(10)).seeded(7);
    let faulty = run_with_plan(&sim, &wl, 2024, &plan);

    assert_eq!(faulty.pm_failures, 1);
    assert!(
        faulty.evacuations > 0,
        "PM 0 hosts VMs under FirstFit at seed 2024: {faulty:?}"
    );
    // The generous pool re-places every evacuee immediately.
    assert_eq!(faulty.evacuations_abandoned, 0);
    assert_eq!(
        faulty.migration_attempts,
        faulty.migrations + faulty.evacuations + faulty.failed_migrations
    );
    // Re-placed the same scan the PM crashed: zero downtime repaired.
    assert_eq!(faulty.recovery_time_s, 0);

    // Determinism: the same plan and seed reproduce the outcome exactly.
    assert_eq!(faulty, run_with_plan(&sim, &wl, 2024, &plan));
}

#[test]
fn crash_without_capacity_abandons_after_bounded_retries() {
    // One PM, a workload that fills it, no spare capacity: every
    // evacuation attempt must fail and give up after evac_max_attempts —
    // without panicking — and the lost VMs surface as SLO casualties.
    let sim = SimConfig {
        horizon_s: 40 * 300,
        evac_max_attempts: 3,
        ..SimConfig::default()
    };
    let wl = WorkloadConfig {
        n_vms: 4,
        trace_kind: TraceKind::PlanetLab,
        m3_pms: 1,
        c3_pms: 0,
    };
    let plan = FaultPlan::none().with_pm_crash(0, 5, None);
    let o = run_with_plan(&sim, &wl, 11, &plan);
    assert_eq!(o.pm_failures, 1);
    assert_eq!(o.evacuations, 0, "nowhere to evacuate to: {o:?}");
    assert!(o.evacuations_abandoned > 0, "{o:?}");
    assert!(o.slo_violation_pct > 0.0, "offline VMs violate SLO: {o:?}");
    assert_eq!(o.recovery_time_s, 0);
}

#[test]
fn flaky_migrations_are_counted_and_retried() {
    let (sim, wl) = reference_setup();
    let plan = FaultPlan::none()
        .with_pm_crash(0, 2, None)
        .with_pm_crash(3, 4, None)
        .with_migration_failures(0.5)
        .seeded(5);
    let o = run_with_plan(&sim, &wl, 2024, &plan);
    assert_eq!(o.pm_failures, 2);
    assert_eq!(
        o.migration_attempts,
        o.migrations + o.evacuations + o.failed_migrations
    );
    // With p = 0.5 over dozens of attempts, both outcomes appear.
    assert!(o.failed_migrations > 0, "{o:?}");
    assert!(o.evacuations > 0, "{o:?}");
    // Retried evacuations land later than the crash scan: repaired
    // downtime is visible.
    assert!(o.recovery_time_s > 0, "{o:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random fault plans and seeds: runs are deterministic, the
    /// per-attempt migration accounting always reconciles, and the full
    /// cluster audit (capacity + anti-collocation + the down-PM rule)
    /// stays clean after every evacuation.
    #[test]
    fn fault_accounting_reconciles_and_audits_clean(
        seed in 0u64..400,
        fault_seed in 0u64..400,
        crash_pm in 0usize..40,
        crash_at in 0usize..10,
        // 0 encodes "never recovers" (the vendored proptest has no
        // prop::option strategy).
        recover_after in 0usize..12,
        second_pm in 0usize..40,
        // 10 encodes "no second crash".
        second_at in 0usize..11,
        migration_p in 0.0f64..0.6,
        corruption_p in 0.0f64..0.2,
    ) {
        let sim = SimConfig {
            horizon_s: 12 * 300,
            ..SimConfig::default()
        };
        let wl = WorkloadConfig {
            n_vms: 24,
            trace_kind: TraceKind::PlanetLab,
            m3_pms: 24,
            c3_pms: 12,
        };
        let recover_at = (recover_after > 0).then(|| crash_at + recover_after);
        let mut plan = FaultPlan::none()
            .seeded(fault_seed)
            .with_pm_crash(crash_pm, crash_at, recover_at)
            .with_migration_failures(migration_p)
            .with_trace_corruption(corruption_p);
        if second_at < 10 {
            plan = plan.with_pm_crash(second_pm, second_at, None);
        }

        let audited = Scenario {
            faults: plan.clone(),
            departures: None,
            audit: true,
        };
        let SimRun { outcome: a, audit, .. } = run_scenario(&sim, &wl, seed, &audited);
        let report = audit.expect("audit requested");
        prop_assert!(report.is_clean(), "{report}");
        prop_assert_eq!(
            a.migration_attempts,
            a.migrations + a.evacuations + a.failed_migrations,
            "attempt accounting must reconcile: {:?}", a
        );
        prop_assert!((0.0..=100.0).contains(&a.slo_violation_pct));
        prop_assert!(a.pm_failures <= 2);

        let b = run_with_plan(&sim, &wl, seed, &plan);
        prop_assert_eq!(a, b, "fault runs must be deterministic");
    }
}
