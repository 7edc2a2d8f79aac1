//! Property-based tests over the simulation engine's accounting
//! invariants and the runtime audit layer.

use pagerankvm::{audit, AuditReport};
use proptest::prelude::*;
use prvm_baselines::{FirstFit, MinimumMigrationTime};
use prvm_model::{catalog, Assignment, Cluster, PlacementAlgorithm, VmId};
use prvm_sim::{
    build_cluster, simulate, ScanSample, Scenario, SimConfig, TimeSeries, Workload, WorkloadConfig,
};
use prvm_traces::TraceKind;

fn arb_sample() -> impl Strategy<Value = ScanSample> {
    (
        (0usize..5000, 0usize..200, 0.0f64..1.0, 0usize..60),
        (0usize..40, 0usize..60, 0.0f64..5000.0, 0usize..20),
    )
        .prop_map(
            |((scan, active_pms, mean_utilization, overloaded_pms), rest)| {
                let (migrations, slo_violations, energy_wh, offline_vms) = rest;
                ScanSample {
                    scan,
                    active_pms,
                    mean_utilization,
                    overloaded_pms,
                    migrations,
                    slo_violations,
                    energy_wh,
                    pm_failures: 0,
                    evacuations: 0,
                    failed_migrations: 0,
                    offline_vms,
                }
            },
        )
}

fn outcome_for(n_vms: usize, seed: u64, hours: u64, burst: f64) -> prvm_sim::SimOutcome {
    let sim = SimConfig {
        horizon_s: hours * 3600,
        burst_factor: burst,
        ..SimConfig::default()
    };
    let wl = WorkloadConfig {
        n_vms,
        trace_kind: TraceKind::PlanetLab,
        m3_pms: n_vms.max(4),
        c3_pms: (n_vms / 2).max(2),
    };
    let workload = Workload::generate(&wl, sim.scans().max(1), seed);
    simulate(
        &sim,
        build_cluster(&wl),
        &workload,
        &mut FirstFit::new(),
        &mut MinimumMigrationTime::new(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Core accounting invariants hold for any small workload.
    #[test]
    fn outcome_invariants(
        n_vms in 1usize..40,
        seed in 0u64..1000,
        hours in 1u64..4,
        burst in 1.0f64..8.0,
    ) {
        let o = outcome_for(n_vms, seed, hours, burst);
        prop_assert_eq!(o.rejected_vms, 0, "pool is sized generously");
        prop_assert!(o.pms_used_initial >= 1);
        prop_assert!(o.pms_used >= o.pms_used_initial);
        prop_assert!(o.pms_used_max_active >= o.pms_used_initial);
        prop_assert!(o.pms_used_max_active <= o.pms_used);
        prop_assert!(o.energy_kwh > 0.0);
        prop_assert!((0.0..=100.0).contains(&o.slo_violation_pct));
        prop_assert!(o.overload_events <= (hours * 12) as usize);
    }

    /// Runs are reproducible, the paper-path shorthand is the default
    /// scenario's outcome, and the recorded series matches it.
    #[test]
    fn traced_equals_untraced(n_vms in 1usize..30, seed in 0u64..500) {
        let sim = SimConfig {
            horizon_s: 3600,
            ..SimConfig::default()
        };
        let wl = WorkloadConfig {
            n_vms,
            trace_kind: TraceKind::GoogleCluster,
            m3_pms: n_vms.max(4),
            c3_pms: 2,
        };
        let workload = Workload::generate(&wl, sim.scans(), seed);
        let a = simulate(
            &sim,
            build_cluster(&wl),
            &workload,
            &mut FirstFit::new(),
            &mut MinimumMigrationTime::new(),
        );
        let run = Scenario::default()
            .run(
                &sim,
                build_cluster(&wl),
                &workload,
                &mut FirstFit::new(),
                &mut MinimumMigrationTime::new(),
            )
            .expect("valid config");
        let (b, ts) = (run.outcome, run.series);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(ts.len(), sim.scans());
        prop_assert_eq!(ts.total_migrations(), b.migrations);
    }

    /// Zero burst means zero demand: no overloads, no SLO violations, and
    /// idle-power-only energy.
    #[test]
    fn zero_demand_is_calm(n_vms in 1usize..25, seed in 0u64..200) {
        let o = outcome_for(n_vms, seed, 1, 0.0);
        prop_assert_eq!(o.migrations, 0);
        prop_assert_eq!(o.overload_events, 0);
        prop_assert_eq!(o.slo_violation_pct, 0.0);
        prop_assert_eq!(o.pms_used, o.pms_used_initial);
    }

    /// Every cluster state reachable by a random place/evict sequence
    /// passes the full invariant audit.
    #[test]
    fn random_place_evict_states_audit_clean(
        ops in prop::collection::vec((any::<bool>(), 0usize..64), 1..50),
    ) {
        let types = catalog::ec2_vm_types();
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 12);
        let mut ff = FirstFit::new();
        let mut resident: Vec<VmId> = Vec::new();
        for (place_op, k) in ops {
            if place_op || resident.is_empty() {
                let spec = types[k % types.len()].clone();
                if let Some(d) = ff.choose(&cluster, &spec, &|_| false) {
                    let id = cluster.place(d.pm, spec, d.assignment).expect("chosen fits");
                    resident.push(id);
                }
            } else {
                let id = resident.swap_remove(k % resident.len());
                cluster.remove(id).expect("still resident");
            }
            let report = audit::check_cluster(&cluster);
            prop_assert!(report.is_clean(), "{report}");
        }
    }

    /// A full simulation run — placements, evictions and migrations —
    /// keeps the cluster audit-clean after every step.
    #[test]
    fn simulated_states_audit_clean(n_vms in 1usize..25, seed in 0u64..300) {
        let sim = SimConfig {
            horizon_s: 3600,
            ..SimConfig::default()
        };
        let wl = WorkloadConfig {
            n_vms,
            trace_kind: TraceKind::PlanetLab,
            m3_pms: n_vms.max(4),
            c3_pms: 2,
        };
        let workload = Workload::generate(&wl, sim.scans(), seed);
        let audited = Scenario {
            audit: true,
            ..Scenario::default()
        };
        let report = audited
            .run(
                &sim,
                build_cluster(&wl),
                &workload,
                &mut FirstFit::new(),
                &mut MinimumMigrationTime::new(),
            )
            .expect("valid config")
            .audit
            .expect("audit requested");
        prop_assert!(report.is_clean(), "{report}");
        prop_assert!(report.capacity_checks > 0, "capacity family exercised");
        prop_assert!(report.anti_collocation_checks > 0, "anti-collocation family exercised");
    }

    /// Any time series survives a JSON round trip unchanged (the `--csv`
    /// companion format used for machine-readable dumps).
    #[test]
    fn timeseries_round_trips_through_json(
        samples in prop::collection::vec(arb_sample(), 0..20),
    ) {
        let mut ts = TimeSeries::new();
        for s in &samples {
            ts.push(*s);
        }
        let json = serde_json::to_string(&ts).expect("serializes");
        let back: TimeSeries = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(&back, &ts);

        // A lone sample round-trips too (field-level check).
        if let Some(first) = samples.first() {
            let json = serde_json::to_string(first).expect("serializes");
            let back: ScanSample = serde_json::from_str(&json).expect("parses");
            prop_assert_eq!(&back, first);
        }
    }
}

/// The checker is not vacuous: states the safe `Cluster` API refuses to
/// construct — fed in through the raw-parts checkers — are flagged.
#[test]
fn deliberate_violations_fire() {
    let mut report = AuditReport::default();
    // Both vCPUs of an m3.large pinned to core 0 breaks anti-collocation.
    audit::check_assignment_shape(
        &catalog::vm_m3_large(),
        &Assignment::new(vec![0, 0], vec![0]),
        16,
        4,
        "collocated vm",
        &mut report,
    );
    // A score vector with a NaN that also fails to sum to one.
    audit::check_score_vector(&[f64::NAN, 0.5], "bad scores", &mut report);
    assert!(!report.is_clean());
    assert!(report.violations.len() >= 2, "{report}");
}
