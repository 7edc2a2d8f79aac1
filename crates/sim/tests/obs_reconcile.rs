//! The fault/recovery counters in [`prvm_sim::SimOutcome`] must reconcile
//! with the obs event stream: every `pm_failures` increment has a
//! `sim.pm_crash` event, every successful evacuation a `sim.evacuation`,
//! and so on.
//!
//! Lives in its own integration-test binary because it installs the
//! process-global JSONL sink; sharing a process with other event-emitting
//! tests would interleave their events into the log.

use prvm_baselines::{FirstFit, MinimumMigrationTime};
use prvm_sim::{build_cluster, FaultPlan, Scenario, SimConfig, Workload, WorkloadConfig};
use prvm_traces::TraceKind;

#[test]
fn fault_counters_reconcile_with_event_stream() {
    let dir = std::env::temp_dir().join("prvm-obs-reconcile-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let events_path = dir.join("events.jsonl");
    prvm_obs::init(prvm_obs::ObsConfig {
        log: prvm_obs::LogMode::Off,
        events_path: Some(events_path.clone()),
    })
    .expect("install sink");

    let sim = SimConfig {
        horizon_s: 8 * 300,
        ..SimConfig::default()
    };
    let wl = WorkloadConfig {
        n_vms: 24,
        trace_kind: TraceKind::PlanetLab,
        m3_pms: 24,
        c3_pms: 12,
    };
    let plan = FaultPlan::none()
        .with_pm_crash(0, 1, Some(4))
        .with_pm_crash(2, 3, None)
        .with_migration_failures(0.4)
        .seeded(42);
    let workload = Workload::generate(&wl, sim.scans(), 42);
    let outcome = Scenario {
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
    prvm_obs::flush().expect("flush sink");
    // Disable the sink before reading so nothing else writes.
    prvm_obs::init(prvm_obs::ObsConfig::default()).expect("reset sink");

    let log = std::fs::File::open(&events_path).expect("events file");
    let summary =
        prvm_obs::summarize_events(std::io::BufReader::new(log)).expect("valid event log");
    let count = |name: &str| -> usize {
        summary
            .event_counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, c)| usize::try_from(*c).unwrap_or(usize::MAX))
    };

    assert!(outcome.pm_failures > 0, "{outcome:?}");
    assert_eq!(count("sim.pm_crash"), outcome.pm_failures);
    assert_eq!(count("sim.evacuation"), outcome.evacuations);
    assert_eq!(
        count("sim.evacuation_abandoned"),
        outcome.evacuations_abandoned
    );
    assert_eq!(count("sim.migration_failed"), outcome.failed_migrations);
    assert_eq!(count("sim.pm_recover"), 1, "PM 0 recovers at scan 4");

    let _ = std::fs::remove_file(&events_path);
}
