//! The simulation engine: initial placement, periodic scans, overload
//! detection, migration and the four metrics of §VI — re-layered onto
//! the deterministic discrete-event kernel ([`crate::kernel`]).
//!
//! The *compatibility scenario* (`schedule_compat`) expresses the
//! original fixed-step scan loop as events: one `Arrivals` batch at
//! t = 0, fault-plan crash/recover timers, an evacuation sweep, a
//! `Scan` and a `Sample` every [`SimConfig::scan_interval_s`] seconds.
//! Event classes order same-instant work exactly like the old loop body
//! did (recoveries → crashes → evacuations → departures → scan →
//! sample), so [`SimOutcome`] stays bit-identical to the pre-kernel
//! engine — the golden equivalence tests in `tests/kernel.rs` pin this
//! across every fault preset. [`Scenario::run`] is the one entry point:
//! its [`Scenario::departures`] add mid-horizon VM departures the old
//! loop could not express.

use crate::config::{SimConfig, SimConfigError, EVAC_BACKOFF_CAP_SCANS};
use crate::energy::PowerCurve;
use crate::kernel::{Event, EventHandler, EventRecord, Kernel, KernelStats};
use crate::timeseries::{ScanSample, TimeSeries};
use crate::workload::{DepartureModel, Workload};
use pagerankvm::audit::{self, AuditReport};
use prvm_faults::{FaultClock, FaultPlan};
use prvm_model::units::convert;
use prvm_model::{
    next_migration, Cluster, EvictionPolicy, Mhz, PlacementAlgorithm, PmId, ScanDemand, VmId,
    VmSpec, OVERLOAD_THRESHOLD, SLO_THRESHOLD,
};
use prvm_obs::{event, Span};
use prvm_traces::Trace;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Everything one simulated run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Distinct PMs that hosted at least one VM at any time.
    pub pms_used: usize,
    /// PMs active immediately after the initial allocation.
    pub pms_used_initial: usize,
    /// Maximum number of *simultaneously* active PMs over the run — the
    /// PMs the datacenter actually needs to provide the service (the
    /// paper's Fig. 3 metric; EXPERIMENTS.md reports all three variants).
    pub pms_used_max_active: usize,
    /// Cumulative datacenter energy over the horizon, in kWh (Fig. 5).
    pub energy_kwh: f64,
    /// Number of VM migrations triggered by overload (Fig. 6).
    pub migrations: usize,
    /// Percentage of (active PM, scan) samples at or beyond the SLO
    /// threshold (Fig. 7): the SLATAH-style metric of \[11\].
    pub slo_violation_pct: f64,
    /// Scans in which at least one PM was overloaded.
    pub overload_events: usize,
    /// Requests no PM could host at initial placement (0 when the pool is
    /// sized correctly).
    pub rejected_vms: usize,
    /// PM crashes injected by the fault plan (0 without one).
    pub pm_failures: usize,
    /// VMs successfully re-placed after their PM crashed.
    pub evacuations: usize,
    /// Evacuations given up after [`SimConfig::evac_max_attempts`]
    /// placement attempts; each is an SLO casualty, never a panic.
    pub evacuations_abandoned: usize,
    /// Migration/evacuation attempts that failed in flight (the fault
    /// plan's transient migration failures).
    pub failed_migrations: usize,
    /// Every migration or evacuation attempt for which a destination was
    /// chosen; always `migrations + evacuations + failed_migrations`.
    pub migration_attempts: usize,
    /// Total VM downtime repaired by evacuations: Σ over evacuated VMs of
    /// (re-place scan − crash scan) × scan interval, in seconds.
    pub recovery_time_s: u64,
    /// VMs that left mid-horizon under the churn model
    /// ([`Scenario::departures`]); always 0 on the paper path.
    pub departures: usize,
}

/// Live CPU demand of one VM at utilization `util`: the utilization times
/// its burstable capacity — `burst_factor ×` the per-vCPU reservation, but
/// a vCPU can never consume more than one physical core of its host
/// (`host_core_mhz`).
fn live_demand(vcpus: u64, vcpu_mhz: Mhz, host_core_mhz: Mhz, util: f64, burst: f64) -> Mhz {
    let per_vcpu = (vcpu_mhz.as_f64() * burst).min(host_core_mhz.as_f64());
    Mhz::from_f64_rounded(util * per_vcpu * convert::u64_to_f64(vcpus))
}

/// What a placed VM's demand is computed from at each scan: its shape
/// and its utilization trace, borrowed from the workload's library.
#[derive(Debug, Clone, Copy)]
struct VmLoad<'a> {
    vcpus: u64,
    vcpu_mhz: Mhz,
    trace: &'a Trace,
}

/// `id`'s index into the dense per-VM buffers.
fn vm_slot(id: VmId) -> Option<usize> {
    convert::u64_to_usize(id.0)
}

/// A VM knocked off a crashed PM, waiting for a successful re-placement.
/// `next_attempt` implements the capped exponential backoff on the
/// kernel's virtual clock (scans, not wall time).
struct PendingEvac {
    vm: VmId,
    spec: VmSpec,
    crash_scan: usize,
    attempts: u32,
    next_attempt: usize,
}

/// The settable inputs of one simulated run. `Scenario::default()` is
/// the paper path: no faults, no departures, no audit.
///
/// The per-scan [`TimeSeries`] and the kernel's event trace are not
/// settings: every run records both into its [`SimRun`]. A no-fault day
/// dispatches 1 + 2 × 288 events and pushes 288 samples, which is noise
/// next to the scans themselves.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// Consulted each scan: scheduled PM crashes evacuate their
    /// residents through the placer with bounded retry, migrations may
    /// transiently fail, and trace reads may return corrupted
    /// utilizations. [`FaultPlan::none`] (the default) is byte-identical
    /// to a run without the fault layer.
    pub faults: FaultPlan,
    /// DVBP-style churn: each placed VM draws a seeded lifetime from the
    /// model and departs when it expires (a `VmDeparture` event on the
    /// kernel), freeing capacity for the rest of the horizon. `None`
    /// (the default) schedules no departures, so paper numbers are
    /// untouched.
    pub departures: Option<DepartureModel>,
    /// Run the full invariant audit
    /// ([`pagerankvm::audit::check_cluster`]) after the initial
    /// allocation, every evacuation sweep and every scan's migrations,
    /// and return the accumulated report in [`SimRun::audit`]. Without
    /// it the same checks run debug-assert gated (free in release).
    pub audit: bool,
}

/// Everything one [`Scenario::run`] produces.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The paper's metrics and the fault/churn counters.
    pub outcome: SimOutcome,
    /// One row per scan: active PMs, utilization, overloads,
    /// migrations, energy and the fault columns.
    pub series: TimeSeries,
    /// Every dispatch in the kernel's total (time, class, seq) order:
    /// the determinism proofs compare these across runs.
    pub events: Vec<EventRecord>,
    /// The kernel's dispatch totals; [`KernelStats::dispatched`] is the
    /// bench harness's events/second numerator.
    pub stats: KernelStats,
    /// The audit report, present exactly when [`Scenario::audit`] is set.
    pub audit: Option<AuditReport>,
}

impl Scenario {
    /// Run one simulation: place `workload` with `placer`, then scan for
    /// [`SimConfig::scans`] intervals, migrating VMs off overloaded PMs
    /// with `evictor` + `placer`, under this scenario's faults and
    /// departures.
    ///
    /// Deterministic given the workload seed, the fault plan and the
    /// algorithms.
    ///
    /// # Errors
    ///
    /// [`SimConfigError::ZeroScanInterval`] when `sim.scan_interval_s == 0`.
    pub fn run(
        &self,
        sim: &SimConfig,
        cluster: Cluster,
        workload: &Workload,
        placer: &mut dyn PlacementAlgorithm,
        evictor: &mut dyn EvictionPolicy,
    ) -> Result<SimRun, SimConfigError> {
        sim.validate()?;
        Ok(self.drive(sim, cluster, workload, placer, evictor))
    }

    /// The body of [`Scenario::run`] on a validated `sim`: build the
    /// driver, load the compatibility scenario, run the kernel to
    /// quiescence and assemble the result.
    fn drive(
        &self,
        sim: &SimConfig,
        cluster: Cluster,
        workload: &Workload,
        placer: &mut dyn PlacementAlgorithm,
        evictor: &mut dyn EvictionPolicy,
    ) -> SimRun {
        let scans = sim.scans();
        let mut kernel = Kernel::new();
        schedule_compat(&mut kernel, sim, scans, &self.faults);
        // Per-scan profile series: wall time paired with the scan's
        // virtual time, so a profiling run can line wall-clock cost up
        // against the simulated clock. Handles are resolved once,
        // outside the run.
        let registry = prvm_obs::Registry::global();
        let curves = cluster
            .pms()
            .iter()
            .map(|pm| PowerCurve::for_pm_type(&pm.spec().name))
            .collect();
        let pms = cluster.len();
        let mut driver = ScanDriver {
            sim,
            scans,
            cluster,
            workload,
            placer,
            evictor,
            clock: FaultClock::new(&self.faults),
            departures: self.departures,
            series: TimeSeries::new(),
            auditor: self.audit.then(AuditReport::default),
            vm_load: Vec::new(),
            scan_demand: Vec::new(),
            curves,
            pm_demand: vec![Mhz::ZERO; pms],
            pm_overloaded: vec![false; pms],
            overloaded: Vec::new(),
            pending_evacs: Vec::new(),
            totals: Totals::default(),
            last: Totals::default(),
            staged: StagedScan::default(),
            scan_offline: 0,
            pms_used_initial: 0,
            max_active: 0,
            scan_started: None,
            scan_wall_series: registry.series("sim.scan.wall_ms"),
            scan_virtual_series: registry.series("sim.scan.virtual_time_s"),
        };
        let stats = kernel.run(&mut driver);
        SimRun {
            outcome: driver.finish(),
            series: driver.series,
            events: kernel.take_trace(),
            stats,
            audit: driver.auditor,
        }
    }
}

/// The paper path: [`Scenario::default`] run, outcome only. Every
/// figure of §VI comes from this call.
///
/// # Panics
///
/// Panics if `sim.scan_interval_s` is zero; [`Scenario::run`] reports
/// the same condition as a typed error.
#[must_use]
pub fn simulate(
    sim: &SimConfig,
    cluster: Cluster,
    workload: &Workload,
    placer: &mut dyn PlacementAlgorithm,
    evictor: &mut dyn EvictionPolicy,
) -> SimOutcome {
    assert!(sim.validate().is_ok(), "scan interval must be positive");
    Scenario::default()
        .drive(sim, cluster, workload, placer, evictor)
        .outcome
}

/// The paper path with [`Scenario::audit`] set. Kept with this exact
/// signature for the `perfbench` sim-day workload, which calls it; new
/// code uses [`Scenario::run`].
///
/// # Panics
///
/// Panics if `sim.scan_interval_s` is zero, like [`simulate`].
#[must_use]
pub fn simulate_with_audit(
    sim: &SimConfig,
    cluster: Cluster,
    workload: &Workload,
    placer: &mut dyn PlacementAlgorithm,
    evictor: &mut dyn EvictionPolicy,
) -> (SimOutcome, AuditReport) {
    assert!(sim.validate().is_ok(), "scan interval must be positive");
    let run = Scenario {
        audit: true,
        ..Scenario::default()
    }
    .drive(sim, cluster, workload, placer, evictor);
    (run.outcome, run.audit.unwrap_or_default())
}

/// [`Scenario::run`] under `faults`, returning the outcome, the event
/// trace and the kernel stats. Kept with this exact signature for the
/// `perfbench` sim-day workload, which calls it; new code uses
/// [`Scenario::run`].
///
/// # Errors
///
/// [`SimConfigError::ZeroScanInterval`] when `sim.scan_interval_s == 0`.
pub fn simulate_recorded(
    sim: &SimConfig,
    cluster: Cluster,
    workload: &Workload,
    placer: &mut dyn PlacementAlgorithm,
    evictor: &mut dyn EvictionPolicy,
    faults: &FaultPlan,
) -> Result<(SimOutcome, Vec<EventRecord>, KernelStats), SimConfigError> {
    Scenario {
        faults: faults.clone(),
        ..Scenario::default()
    }
    .run(sim, cluster, workload, placer, evictor)
    .map(|run| (run.outcome, run.events, run.stats))
}

/// Run the audit step: accumulate into an explicit report when one was
/// requested, otherwise debug-assert cleanliness (free in release).
fn audit_step(cluster: &Cluster, context: &str, report: Option<&mut AuditReport>) {
    match report {
        Some(report) => {
            let step = audit::check_cluster(cluster);
            if !step.is_clean() {
                prvm_obs::counter!(
                    "sim.audit_violations",
                    convert::usize_to_u64(step.violations.len())
                );
                event("sim.audit_violation")
                    .field("context", context.to_owned())
                    .field("violations", step.violations.len())
                    .emit();
            }
            report.merge(step);
        }
        None => audit::debug_check_cluster(cluster, context),
    }
}

// --- The compatibility scenario on the event kernel ---------------------

/// Typed events of the compatibility scenario. The `class` ranks decide
/// same-instant order; they mirror the old loop body exactly:
/// recoveries before crashes (a PM recovering at scan *t* can host that
/// scan's evacuees), crashes before the evacuation sweep (victims of a
/// crash at *t* get their first attempt at *t*), departures before the
/// scan (a departed VM contributes no demand), the scan before its
/// sample.
#[derive(Debug)]
enum SimEvent {
    /// The initial placement batch (t = 0).
    Arrivals,
    /// A PM from the fault plan comes back up.
    PmRecover { pm: usize, scan: usize },
    /// A PM from the fault plan crashes; residents enter the evac queue.
    PmCrash { pm: usize, scan: usize },
    /// Drain due evacuation attempts (scheduled per scan when the fault
    /// plan is non-empty — backoff timers live on the virtual clock).
    EvacSweep { scan: usize },
    /// A churn-model VM reaches the end of its drawn lifetime.
    VmDeparture { vm: VmId },
    /// Demand evaluation, overload detection and migrations.
    Scan { scan: usize },
    /// Energy/SLO accumulation, per-scan metrics, timeseries row.
    Sample { scan: usize },
}

impl Event for SimEvent {
    fn class(&self) -> u8 {
        match self {
            SimEvent::Arrivals => 0,
            SimEvent::PmRecover { .. } => 1,
            SimEvent::PmCrash { .. } => 2,
            SimEvent::EvacSweep { .. } => 3,
            SimEvent::VmDeparture { .. } => 4,
            SimEvent::Scan { .. } => 5,
            SimEvent::Sample { .. } => 6,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            SimEvent::Arrivals => "arrivals",
            SimEvent::PmRecover { .. } => "pm_recover",
            SimEvent::PmCrash { .. } => "pm_crash",
            SimEvent::EvacSweep { .. } => "evac_sweep",
            SimEvent::VmDeparture { .. } => "vm_departure",
            SimEvent::Scan { .. } => "scan",
            SimEvent::Sample { .. } => "sample",
        }
    }
}

/// Load the compatibility scenario into `kernel`: the arrival batch,
/// the fault plan's crash/recover timers, and a scan + sample (plus an
/// evacuation sweep under faults) every scan interval.
fn schedule_compat(
    kernel: &mut Kernel<SimEvent>,
    sim: &SimConfig,
    scans: usize,
    faults: &FaultPlan,
) {
    kernel.schedule(0, SimEvent::Arrivals);
    let interval = sim.scan_interval_s;
    for crash in &faults.pm_crashes {
        if crash.at < scans {
            kernel.schedule(
                convert::usize_to_u64(crash.at) * interval,
                SimEvent::PmCrash {
                    pm: crash.pm,
                    scan: crash.at,
                },
            );
        }
        // Recovery only ever takes effect strictly after the crash and
        // within the horizon; a `recover_at` at or before `at` never fires.
        if let Some(recover) = crash.recover_at {
            if recover > crash.at && recover < scans {
                kernel.schedule(
                    convert::usize_to_u64(recover) * interval,
                    SimEvent::PmRecover {
                        pm: crash.pm,
                        scan: recover,
                    },
                );
            }
        }
    }
    let has_faults = !faults.is_empty();
    for t in 0..scans {
        let at = convert::usize_to_u64(t) * interval;
        if has_faults {
            kernel.schedule(at, SimEvent::EvacSweep { scan: t });
        }
        kernel.schedule(at, SimEvent::Scan { scan: t });
        kernel.schedule(at, SimEvent::Sample { scan: t });
    }
}

/// Running totals of the outcome metrics. Copied wholesale into `last`
/// at each sample so the per-scan deltas (events, timeseries rows) fall
/// out by subtraction.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    rejected: usize,
    energy_wh: f64,
    migrations: usize,
    overload_events: usize,
    slo_samples: usize,
    active_samples: usize,
    pm_failures: usize,
    evacuations: usize,
    evacuations_abandoned: usize,
    failed_migrations: usize,
    migration_attempts: usize,
    recovery_time_s: u64,
    departures: usize,
}

/// What a `Scan` event stages for its same-instant `Sample` event.
#[derive(Debug, Clone, Copy, Default)]
struct StagedScan {
    active: usize,
    slo: usize,
    energy_wh: f64,
    util_sum: f64,
    overloaded: usize,
    offline: usize,
}

/// The component driving the compatibility scenario: owns the cluster
/// and all accounting state, reacts to [`SimEvent`]s. Handlers run on
/// the kernel thread and never block (lint rule D005).
///
/// Scan state is dense: per-VM buffers are indexed by [`VmId`], per-PM
/// buffers by [`PmId`]. They are sized once per run and reset at each
/// scan, never rebuilt.
struct ScanDriver<'a> {
    sim: &'a SimConfig,
    scans: usize,
    cluster: Cluster,
    workload: &'a Workload,
    placer: &'a mut dyn PlacementAlgorithm,
    evictor: &'a mut dyn EvictionPolicy,
    clock: FaultClock<'a>,
    departures: Option<DepartureModel>,
    series: TimeSeries,
    auditor: Option<AuditReport>,
    /// Every placed VM's load, by VM id: set on arrival, cleared on
    /// departure. A crash keeps it: evacuees are re-placed under their
    /// old id.
    vm_load: Vec<Option<VmLoad<'a>>>,
    /// Each VM's demand this scan, by VM id (zero when not evaluated).
    scan_demand: Vec<Mhz>,
    /// Power curve by PM id, resolved once per run.
    curves: Vec<PowerCurve>,
    /// Aggregate demand by PM id: set by the scan, moved by migrations.
    pm_demand: Vec<Mhz>,
    /// Whether each PM was overloaded when this scan started, by PM id.
    pm_overloaded: Vec<bool>,
    /// This scan's overloaded PMs in `used_pms()` order.
    overloaded: Vec<PmId>,
    pending_evacs: Vec<PendingEvac>,
    totals: Totals,
    last: Totals,
    staged: StagedScan,
    /// VMs offline right now (awaiting evacuation or abandoned this
    /// scan); staged into the SLO accounting, reset after each sample.
    scan_offline: usize,
    pms_used_initial: usize,
    max_active: usize,
    scan_started: Option<std::time::Instant>,
    scan_wall_series: Arc<prvm_obs::Series>,
    scan_virtual_series: Arc<prvm_obs::Series>,
}

impl EventHandler<SimEvent> for ScanDriver<'_> {
    fn handle(&mut self, now_s: u64, event: SimEvent, kernel: &mut Kernel<SimEvent>) {
        match event {
            SimEvent::Arrivals => self.on_arrivals(kernel),
            SimEvent::PmRecover { pm, scan } => self.on_pm_recover(pm, scan),
            SimEvent::PmCrash { pm, scan } => self.on_pm_crash(pm, scan),
            SimEvent::EvacSweep { scan } => self.on_evac_sweep(scan),
            SimEvent::VmDeparture { vm } => self.on_vm_departure(vm, now_s),
            SimEvent::Scan { scan } => self.on_scan(scan),
            SimEvent::Sample { scan } => self.on_sample(scan),
        }
    }
}

impl<'a> ScanDriver<'a> {
    /// Initial allocation (Algorithm 2 driver). Under churn, each
    /// placed VM also gets a departure event at its drawn lifetime.
    fn on_arrivals(&mut self, kernel: &mut Kernel<SimEvent>) {
        let placement_span = Span::enter("placement");
        let workload: &'a Workload = self.workload;
        let mut specs = workload.specs.clone();
        self.placer.order_batch(&mut specs);
        let traces = workload.draw_traces(specs.len());
        let lifetimes = self
            .departures
            .map(|m| self.workload.draw_lifetimes(specs.len(), &m));

        for (idx, (spec, trace)) in specs.into_iter().zip(traces).enumerate() {
            match self.placer.choose(&self.cluster, &spec, &|_| false) {
                Some(d) => {
                    let load = VmLoad {
                        vcpus: u64::from(spec.vcpus),
                        vcpu_mhz: spec.vcpu_mhz,
                        trace,
                    };
                    match self.cluster.place(d.pm, spec, d.assignment) {
                        Ok(id) => {
                            self.register_load(id, load);
                            if let Some(lifetimes) = &lifetimes {
                                if let Some(&life_s) = lifetimes.get(idx) {
                                    if life_s < self.sim.horizon_s {
                                        kernel.schedule(life_s, SimEvent::VmDeparture { vm: id });
                                    }
                                }
                            }
                        }
                        Err(err) => {
                            debug_assert!(false, "placer returned invalid decision: {err}");
                            self.totals.rejected += 1;
                        }
                    }
                }
                None => self.totals.rejected += 1,
            }
        }
        audit_step(&self.cluster, "initial placement", self.auditor.as_mut());
        self.pms_used_initial = self.cluster.active_pm_count();
        self.max_active = self.pms_used_initial;
        drop(placement_span);
        prvm_obs::counter!(
            "sim.rejected_vms",
            convert::usize_to_u64(self.totals.rejected)
        );
        event("sim.placed")
            .field("algorithm", self.placer.name())
            .field("placed", self.cluster.vm_count())
            .field("rejected", self.totals.rejected)
            .field("active_pms", self.pms_used_initial)
            .emit();
    }

    /// Record `id`'s load in its slot, growing the per-VM buffer to fit.
    fn register_load(&mut self, id: VmId, load: VmLoad<'a>) {
        let Some(slot) = vm_slot(id) else {
            debug_assert!(false, "VM id {} does not fit a usize index", id.0);
            return;
        };
        if slot >= self.vm_load.len() {
            self.vm_load.resize(slot + 1, None);
        }
        if let Some(entry) = self.vm_load.get_mut(slot) {
            *entry = Some(load);
        }
    }

    fn on_pm_recover(&mut self, pm_idx: usize, scan: usize) {
        let pm = PmId(pm_idx);
        if pm_idx < self.cluster.len() && self.cluster.is_down(pm) {
            let up = self.cluster.mark_up(pm);
            debug_assert!(up.is_ok(), "range-checked above");
            event("sim.pm_recover")
                .field("pm", pm_idx)
                .field("scan", scan)
                .emit();
        }
    }

    fn on_pm_crash(&mut self, pm_idx: usize, scan: usize) {
        let pm = PmId(pm_idx);
        if pm_idx >= self.cluster.len() || self.cluster.is_down(pm) {
            return;
        }
        let victims = self.cluster.resident_vms(pm);
        let down = self.cluster.mark_down(pm);
        debug_assert!(down.is_ok(), "range-checked above");
        self.totals.pm_failures += 1;
        prvm_obs::counter!("sim.pm_failures");
        for vm in &victims {
            if let Ok((_, spec, _)) = self.cluster.remove(*vm) {
                self.pending_evacs.push(PendingEvac {
                    vm: *vm,
                    spec,
                    crash_scan: scan,
                    attempts: 0,
                    next_attempt: scan,
                });
            }
        }
        event("sim.pm_crash")
            .field("pm", pm_idx)
            .field("scan", scan)
            .field("evacuating", victims.len())
            .emit();
    }

    /// Evacuation attempts, oldest first, with capped exponential
    /// backoff on the virtual clock. Giving up is an SLO casualty, not
    /// a panic.
    fn on_evac_sweep(&mut self, t: usize) {
        let pending = std::mem::take(&mut self.pending_evacs);
        let mut still_pending = Vec::new();
        for mut ev in pending {
            if ev.next_attempt > t {
                still_pending.push(ev);
                continue;
            }
            ev.attempts += 1;
            let mut placed = false;
            if let Some(d) = self.placer.choose(&self.cluster, &ev.spec, &|_| false) {
                self.totals.migration_attempts += 1;
                if self.clock.migration_fails(t, ev.vm.0, ev.attempts) {
                    self.totals.failed_migrations += 1;
                    prvm_obs::counter!("sim.failed_migrations");
                    event("sim.migration_failed")
                        .field("vm", ev.vm.0)
                        .field("scan", t)
                        .field("kind", "evacuation")
                        .emit();
                } else {
                    match self
                        .cluster
                        .place_as(ev.vm, d.pm, ev.spec.clone(), d.assignment)
                    {
                        Ok(()) => placed = true,
                        Err(err) => {
                            debug_assert!(false, "placer returned invalid evacuation: {err}");
                        }
                    }
                }
            }
            if placed {
                self.totals.evacuations += 1;
                let downtime = convert::usize_to_u64(t - ev.crash_scan) * self.sim.scan_interval_s;
                self.totals.recovery_time_s += downtime;
                prvm_obs::counter!("sim.evacuations");
                event("sim.evacuation")
                    .field("vm", ev.vm.0)
                    .field("scan", t)
                    .field("attempts", u64::from(ev.attempts))
                    .field("downtime_s", downtime)
                    .emit();
            } else if ev.attempts >= self.sim.evac_max_attempts {
                self.totals.evacuations_abandoned += 1;
                self.scan_offline += 1;
                event("sim.evacuation_abandoned")
                    .field("vm", ev.vm.0)
                    .field("scan", t)
                    .field("attempts", u64::from(ev.attempts))
                    .emit();
            } else {
                let backoff = (1usize << ev.attempts.min(16)).min(EVAC_BACKOFF_CAP_SCANS);
                ev.next_attempt = t + backoff;
                still_pending.push(ev);
            }
        }
        self.pending_evacs = still_pending;
        self.scan_offline += self.pending_evacs.len();
        audit_step(&self.cluster, "fault recovery", self.auditor.as_mut());
    }

    /// A churn-model VM leaves: free its capacity (or drop it from the
    /// evacuation queue if its PM crashed first).
    fn on_vm_departure(&mut self, vm: VmId, now_s: u64) {
        let mut present = false;
        if self.cluster.locate(vm).is_some() {
            if let Ok((_, _, _)) = self.cluster.remove(vm) {
                present = true;
            }
        } else {
            let before = self.pending_evacs.len();
            self.pending_evacs.retain(|ev| ev.vm != vm);
            present = self.pending_evacs.len() != before;
        }
        if present {
            if let Some(entry) = vm_slot(vm).and_then(|slot| self.vm_load.get_mut(slot)) {
                *entry = None;
            }
            self.totals.departures += 1;
            prvm_obs::counter!("sim.departures");
            event("sim.vm_departure")
                .field("vm", vm.0)
                .field("t_s", now_s)
                .emit();
        }
    }

    /// Per-PM aggregate demand, SLO/energy staging, overload detection
    /// and the migration sweep — the body of the old scan loop.
    fn on_scan(&mut self, t: usize) {
        let Self {
            sim,
            cluster,
            clock,
            vm_load,
            scan_demand,
            curves,
            pm_demand,
            pm_overloaded,
            overloaded,
            totals,
            staged,
            scan_offline,
            scan_started,
            ..
        } = self;
        let sim = *sim;
        let _scan_span = Span::enter("scan");
        // The sanctioned clock read (D002): scan timing feeds the wall-ms
        // series only, never the simulated clock or placement decisions.
        *scan_started = Some(prvm_obs::timeline::stamp());

        // Reset the scan buffers: a PM or VM the sweep below skips has
        // zero demand and is not overloaded.
        scan_demand.clear();
        scan_demand.resize(vm_load.len(), Mhz::ZERO);
        pm_demand.fill(Mhz::ZERO);
        pm_overloaded.fill(false);
        overloaded.clear();

        // Per-PM aggregate demand, per-VM scan demand, SLO and energy
        // staging, overload detection. Each VM's demand is evaluated
        // against its host's core speed (the burst ceiling). The f64
        // sums fold in `used_pms()` order. The overloaded set is fixed
        // before migrations, so an overloaded PM is never chosen as a
        // destination this scan.
        let mut scan_active = 0usize;
        let mut scan_slo = 0usize;
        let mut scan_energy_wh = 0.0f64;
        let mut scan_util_sum = 0.0f64;
        for pm_id in cluster.used_pms() {
            // The per-PM buffers were sized with the driver, so a used PM
            // always has a slot; skip-and-assert rather than panic (P001).
            let (Some(curve), Some(pm_total), Some(pm_flag)) = (
                curves.get(pm_id.0),
                pm_demand.get_mut(pm_id.0),
                pm_overloaded.get_mut(pm_id.0),
            ) else {
                debug_assert!(false, "PM {pm_id:?} has no scan state");
                continue;
            };
            let pm = cluster.pm(pm_id);
            let core = pm.spec().core_mhz;
            let mut demand = Mhz::ZERO;
            for (id, _, _) in pm.vms() {
                // Every placed VM was registered in vm_load up front; a
                // miss would be an accounting bug.
                let registered = vm_slot(id)
                    .and_then(|slot| Some((slot, vm_load.get(slot).copied().flatten()?)));
                let Some((slot, load)) = registered else {
                    debug_assert!(false, "VM {id:?} placed but absent from vm_load");
                    continue;
                };
                // A corrupted read replaces the recorded utilization with
                // deterministic garbage (no-op without a fault plan).
                let util = clock
                    .corrupt_utilization(t, id.0)
                    .unwrap_or_else(|| load.trace.at(t));
                let d = live_demand(load.vcpus, load.vcpu_mhz, core, util, sim.burst_factor);
                if let Some(entry) = scan_demand.get_mut(slot) {
                    *entry = d;
                }
                demand += d;
            }
            let cap = pm.spec().total_cpu();
            let util = demand.fraction_of(cap);
            scan_active += 1;
            scan_util_sum += util.min(1.0);
            if util >= SLO_THRESHOLD {
                scan_slo += 1;
            }
            scan_energy_wh += curve.energy_wh(util, sim.scan_interval_s as f64);
            *pm_total = demand;
            if util > OVERLOAD_THRESHOLD {
                *pm_flag = true;
                overloaded.push(pm_id);
            }
        }
        if !overloaded.is_empty() {
            totals.overload_events += 1;
            prvm_obs::counter!("sim.overload_events");
        }
        // Offline VMs (awaiting evacuation, or abandoned this scan) are
        // not serving: each is one violating sample, folded in at the
        // same-instant Sample event.
        *staged = StagedScan {
            active: scan_active,
            slo: scan_slo,
            energy_wh: scan_energy_wh,
            util_sum: scan_util_sum,
            overloaded: overloaded.len(),
            offline: *scan_offline,
        };

        self.relieve_overloads(t);
        self.max_active = self.max_active.max(self.cluster.active_pm_count());
        audit_step(&self.cluster, "scan migrations", self.auditor.as_mut());
    }

    /// The migration sweep: relieve each overloaded PM, in `used_pms()`
    /// order, through the shared overload step. The sim's move is the
    /// fault plan's in-flight coin, then `place_as`.
    fn relieve_overloads(&mut self, t: usize) {
        let Self {
            cluster,
            placer,
            evictor,
            clock,
            scan_demand,
            pm_demand,
            pm_overloaded,
            overloaded,
            totals,
            ..
        } = self;
        for &src in overloaded.iter() {
            loop {
                let demand = ScanDemand {
                    threshold: OVERLOAD_THRESHOLD,
                    pm: pm_demand,
                    overloaded: pm_overloaded,
                    vm: scan_demand,
                };
                let Some(m) = next_migration(cluster, src, demand, &mut **evictor, &mut **placer)
                else {
                    break;
                };
                totals.migration_attempts += 1;
                let moved = if clock.migration_fails(t, m.vm.0, 0) {
                    // The fault plan fails this attempt in flight.
                    totals.failed_migrations += 1;
                    prvm_obs::counter!("sim.failed_migrations");
                    event("sim.migration_failed")
                        .field("vm", m.vm.0)
                        .field("scan", t)
                        .field("kind", "overload")
                        .emit();
                    false
                } else {
                    let placed =
                        cluster.place_as(m.vm, m.to.pm, m.spec.clone(), m.to.assignment.clone());
                    debug_assert!(placed.is_ok(), "placer returned an invalid migration");
                    placed.is_ok()
                };
                if !moved {
                    // The VM stays on its (overloaded) source; stop
                    // evicting here.
                    m.restore(cluster);
                    break;
                }
                totals.migrations += 1;
                if let Some(dest) = pm_demand.get_mut(m.to.pm.0) {
                    *dest += m.demand;
                }
                if let Some(source) = pm_demand.get_mut(src.0) {
                    *source = source.saturating_sub(m.demand);
                }
            }
        }
    }

    /// Fold the staged scan into the run totals, emit the per-scan
    /// metrics/event/timeseries row, and reset the staging area.
    fn on_sample(&mut self, t: usize) {
        let staged = self.staged;
        self.totals.active_samples += staged.active + staged.offline;
        self.totals.slo_samples += staged.slo + staged.offline;
        self.totals.energy_wh += staged.energy_wh;
        let totals = self.totals;
        let last = self.last;
        let mean_utilization = if staged.active == 0 {
            0.0
        } else {
            staged.util_sum / convert::usize_to_f64(staged.active)
        };
        prvm_obs::counter!(
            "sim.migrations",
            convert::usize_to_u64(totals.migrations - last.migrations)
        );
        prvm_obs::gauge!("sim.mean_utilization", mean_utilization);
        event("sim.scan")
            .field("scan", t)
            .field("active_pms", staged.active)
            .field("mean_utilization", mean_utilization)
            .field("overloaded_pms", staged.overloaded)
            .field("migrations", totals.migrations - last.migrations)
            .field("slo_violations", staged.slo)
            .field("energy_wh", staged.energy_wh)
            .field("pm_failures", totals.pm_failures - last.pm_failures)
            .field("evacuations", totals.evacuations - last.evacuations)
            .field(
                "failed_migrations",
                totals.failed_migrations - last.failed_migrations,
            )
            .field("offline_vms", staged.offline)
            .emit();
        self.series.push(ScanSample {
            scan: t,
            active_pms: staged.active,
            mean_utilization,
            overloaded_pms: staged.overloaded,
            migrations: totals.migrations - last.migrations,
            slo_violations: staged.slo,
            energy_wh: staged.energy_wh,
            pm_failures: totals.pm_failures - last.pm_failures,
            evacuations: totals.evacuations - last.evacuations,
            failed_migrations: totals.failed_migrations - last.failed_migrations,
            offline_vms: staged.offline,
        });
        if let Some(started) = self.scan_started.take() {
            self.scan_wall_series
                .push(started.elapsed().as_secs_f64() * 1e3);
        }
        self.scan_virtual_series
            .push(convert::usize_to_f64(t) * self.sim.scan_interval_s as f64);
        self.last = self.totals;
        self.staged = StagedScan::default();
        self.scan_offline = 0;
    }

    /// Assemble the outcome after the queue drains.
    fn finish(&self) -> SimOutcome {
        let totals = self.totals;
        let outcome = SimOutcome {
            pms_used: self.cluster.ever_used_count(),
            pms_used_initial: self.pms_used_initial,
            pms_used_max_active: self.max_active,
            energy_kwh: totals.energy_wh / 1000.0,
            migrations: totals.migrations,
            slo_violation_pct: if totals.active_samples == 0 {
                0.0
            } else {
                100.0 * convert::usize_to_f64(totals.slo_samples)
                    / convert::usize_to_f64(totals.active_samples)
            },
            overload_events: totals.overload_events,
            rejected_vms: totals.rejected,
            pm_failures: totals.pm_failures,
            evacuations: totals.evacuations,
            evacuations_abandoned: totals.evacuations_abandoned,
            failed_migrations: totals.failed_migrations,
            migration_attempts: totals.migration_attempts,
            recovery_time_s: totals.recovery_time_s,
            departures: totals.departures,
        };
        prvm_obs::gauge!("sim.energy_kwh", outcome.energy_kwh);
        prvm_obs::gauge!("sim.slo_violation_pct", outcome.slo_violation_pct);
        prvm_obs::gauge!(
            "sim.pms_used_max_active",
            convert::usize_to_f64(outcome.pms_used_max_active)
        );
        event("sim.done")
            .field("scans", self.scans)
            .field("pms_used", outcome.pms_used)
            .field("pms_used_max_active", outcome.pms_used_max_active)
            .field("energy_kwh", outcome.energy_kwh)
            .field("migrations", outcome.migrations)
            .field("slo_violation_pct", outcome.slo_violation_pct)
            .field("overload_events", outcome.overload_events)
            .field("rejected_vms", outcome.rejected_vms)
            .field("pm_failures", outcome.pm_failures)
            .field("evacuations", outcome.evacuations)
            .field("evacuations_abandoned", outcome.evacuations_abandoned)
            .field("failed_migrations", outcome.failed_migrations)
            .field("recovery_time_s", outcome.recovery_time_s)
            .emit();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::workload::build_cluster;
    use prvm_baselines::{FirstFit, MinimumMigrationTime};
    use prvm_model::catalog;
    use prvm_traces::{TraceKind, TraceLibrary};

    fn small_cfg() -> (SimConfig, WorkloadConfig) {
        (
            SimConfig::default(),
            WorkloadConfig {
                n_vms: 40,
                trace_kind: TraceKind::PlanetLab,
                m3_pms: 40,
                c3_pms: 20,
            },
        )
    }

    fn run(seed: u64) -> SimOutcome {
        let (sim, wl) = small_cfg();
        let workload = Workload::generate(&wl, sim.scans(), seed);
        let cluster = build_cluster(&wl);
        simulate(
            &sim,
            cluster,
            &workload,
            &mut FirstFit::new(),
            &mut MinimumMigrationTime::new(),
        )
    }

    #[test]
    fn simulation_is_deterministic() {
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn no_rejections_with_generous_pool() {
        let o = run(2);
        assert_eq!(o.rejected_vms, 0);
        assert!(o.pms_used >= o.pms_used_initial);
        assert!(o.pms_used_initial > 0);
    }

    #[test]
    fn energy_is_positive_and_bounded() {
        let o = run(3);
        assert!(o.energy_kwh > 0.0);
        // Upper bound: every pool PM at max power for 24 h.
        let bound = 60.0 * 488.3 * 24.0 / 1000.0;
        assert!(o.energy_kwh < bound, "{}", o.energy_kwh);
    }

    #[test]
    fn slo_percentage_is_a_percentage() {
        let o = run(4);
        assert!((0.0..=100.0).contains(&o.slo_violation_pct));
    }

    /// A crafted hot scenario: four `[1,1,1,1]` jobs packed by FirstFit on
    /// one GENI node, all running at 100 % utilization.
    fn hot_geni_outcome(pms: usize) -> SimOutcome {
        let sim = SimConfig {
            horizon_s: 600,
            burst_factor: 1.0,
            ..SimConfig::default()
        };
        let hot = Trace::constant(1.0, sim.scans());
        let workload = Workload::from_parts(
            vec![catalog::geni_vm_4(); 4],
            TraceLibrary::from_traces(TraceKind::GoogleCluster, vec![hot]),
            0,
        );
        let cluster = Cluster::homogeneous(catalog::geni_pm(), pms);
        simulate(
            &sim,
            cluster,
            &workload,
            &mut FirstFit::new(),
            &mut MinimumMigrationTime::new(),
        )
    }

    #[test]
    fn overload_triggers_migration_when_capacity_exists() {
        // FirstFit packs all four jobs on PM 0 (16/16 slots at 100 %
        // demand): overloaded and SLO-violating. The spare PM receives a
        // migration (one job moves: 12/16 = 75 % ≤ 90 % afterwards).
        let o = hot_geni_outcome(2);
        assert!(o.overload_events > 0);
        assert!(o.slo_violation_pct > 0.0);
        assert!(o.migrations >= 1, "migrations = {}", o.migrations);
        assert_eq!(o.pms_used, 2);
    }

    #[test]
    fn overload_without_spare_capacity_cannot_migrate() {
        let o = hot_geni_outcome(1);
        assert!(o.overload_events > 0);
        assert_eq!(o.migrations, 0, "nowhere to migrate");
        assert_eq!(o.pms_used, 1);
    }

    #[test]
    fn burst_factor_drives_overloads() {
        // Identical runs except for the burst factor: bursty vCPUs must
        // produce at least as many overload events.
        let (mut sim, wl) = small_cfg();
        let workload = Workload::generate(&wl, sim.scans(), 7);
        sim.burst_factor = 1.0;
        let calm = simulate(
            &sim,
            build_cluster(&wl),
            &workload,
            &mut FirstFit::new(),
            &mut MinimumMigrationTime::new(),
        );
        sim.burst_factor = 4.0;
        let bursty = simulate(
            &sim,
            build_cluster(&wl),
            &workload,
            &mut FirstFit::new(),
            &mut MinimumMigrationTime::new(),
        );
        assert!(bursty.overload_events >= calm.overload_events);
        assert!(bursty.energy_kwh >= calm.energy_kwh);
    }

    /// Every scan pushes one (wall ms, virtual s) pair into the global
    /// registry's profile series. Other tests in this process also run
    /// scans concurrently, so only growth is asserted, not exact
    /// contents.
    #[test]
    fn scan_loop_records_virtual_time_series() {
        let registry = prvm_obs::Registry::global();
        let wall = registry.series("sim.scan.wall_ms");
        let virtual_time = registry.series("sim.scan.virtual_time_s");
        let wall_before = wall.len();
        let virtual_before = virtual_time.len();
        let (sim, _) = small_cfg();
        run(11);
        assert!(
            wall.len() >= wall_before + sim.scans(),
            "wall series grew {} < {} scans",
            wall.len() - wall_before,
            sim.scans()
        );
        assert!(virtual_time.len() >= virtual_before + sim.scans());
        // Virtual timestamps are whole seconds >= 0 (scan * interval);
        // wall times are finite and non-negative.
        assert!(virtual_time
            .values()
            .iter()
            .all(|v| *v >= 0.0 && v.fract() == 0.0));
        assert!(wall.values().iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn rejections_counted_when_pool_too_small() {
        // One scan exactly: the horizon is the scan interval, whatever
        // the configured interval is (no hardcoded 300 s).
        let base = SimConfig::default();
        let sim = SimConfig {
            horizon_s: base.scan_interval_s,
            ..base
        };
        assert_eq!(sim.scans(), 1);
        let wl = WorkloadConfig {
            n_vms: 200,
            trace_kind: TraceKind::PlanetLab,
            m3_pms: 1,
            c3_pms: 0,
        };
        let workload = Workload::generate(&wl, sim.scans(), 9);
        let o = simulate(
            &sim,
            build_cluster(&wl),
            &workload,
            &mut FirstFit::new(),
            &mut MinimumMigrationTime::new(),
        );
        assert!(o.rejected_vms > 0);
        assert_eq!(o.pms_used, 1);
    }

    #[test]
    fn churn_departures_free_capacity_and_are_deterministic() {
        let (sim, wl) = small_cfg();
        let workload = Workload::generate(&wl, sim.scans(), 13);
        let model = DepartureModel {
            mean_lifetime_s: 2 * 3600,
            min_lifetime_s: 300,
        };
        let churn = Scenario {
            departures: Some(model),
            ..Scenario::default()
        };
        let run = || {
            churn
                .run(
                    &sim,
                    build_cluster(&wl),
                    &workload,
                    &mut FirstFit::new(),
                    &mut MinimumMigrationTime::new(),
                )
                .expect("valid config")
                .outcome
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "churn runs are deterministic per seed");
        assert!(a.departures > 0, "2 h mean over 24 h must shed VMs");
        assert!(a.departures <= wl.n_vms);
        // The paper path is untouched: no departure events scheduled.
        let plain = simulate(
            &sim,
            build_cluster(&wl),
            &workload,
            &mut FirstFit::new(),
            &mut MinimumMigrationTime::new(),
        );
        assert_eq!(plain.departures, 0);
    }
}
