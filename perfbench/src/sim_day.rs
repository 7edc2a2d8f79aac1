//! `sim-day`: the paper's evaluation as `pagerankvm simulate` runs it.
//!
//! Setup is a cold `ScoreBook::build` of the EC2 catalog plus
//! `Workload::generate`. Each op simulates 24 h (288 scans every 300 s,
//! 90 % overload threshold) of `VMS` PlanetLab-driven VMs with
//! `PageRankVmPlacer` and `PageRankEviction`, on a fresh seeded
//! workload. The sim engine, the event kernel and eviction do most of
//! the work; the placer runs in fill mode, where full PMs are skipped.

use crate::book_refresh::{cold_book, cold_layers};
use crate::trace::Tracer;
use crate::util::{ms, sub_seed, Report, Samples, Speed, Stopwatch};
use crate::Args;
use pagerankvm::{PageRankEviction, PageRankVmPlacer, ScoreBook};
use prvm_model::{
    catalog, Cluster, EvictionPolicy, Mhz, PlacementAlgorithm, PlacementDecision, Pm, PmId, VmId,
    VmSpec,
};
use prvm_sim::{
    build_cluster, simulate, simulate_recorded, simulate_with_audit, FaultPlan, SimConfig,
    SimOutcome, Workload, WorkloadConfig,
};
use prvm_traces::TraceKind;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

/// VMs per simulated day (the paper's largest setting).
const VMS: usize = 3000;
/// Cold builds timed for `setup_s`; the median is reported.
const SETUP_REPEATS: usize = 3;

/// `PlacementAlgorithm` decorator: a span around every `choose`.
struct TimedPlacer<'t> {
    inner: PageRankVmPlacer,
    tracer: &'t RefCell<Tracer>,
}

impl PlacementAlgorithm for TimedPlacer<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn choose(
        &mut self,
        cluster: &Cluster,
        vm: &VmSpec,
        exclude: &dyn Fn(PmId) -> bool,
    ) -> Option<PlacementDecision> {
        let open = self.tracer.borrow_mut().begin("placer.choose", 0);
        let out = self.inner.choose(cluster, vm, exclude);
        self.tracer.borrow_mut().end(open);
        out
    }
}

/// `EvictionPolicy` decorator: a span around every `select`.
struct TimedEviction<'t> {
    inner: PageRankEviction,
    tracer: &'t RefCell<Tracer>,
}

impl EvictionPolicy for TimedEviction<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, pm: &Pm, cpu_demand: &dyn Fn(VmId) -> Mhz) -> Option<VmId> {
        let open = self.tracer.borrow_mut().begin("evict.select", 0);
        let out = self.inner.select(pm, cpu_demand);
        self.tracer.borrow_mut().end(open);
        out
    }
}

fn workload_config() -> WorkloadConfig {
    WorkloadConfig::sized_for(VMS, TraceKind::PlanetLab)
}

fn day_workload(seed: u64, day: u64) -> Workload {
    Workload::generate(
        &workload_config(),
        SimConfig::default().scans(),
        sub_seed(seed, day),
    )
}

/// Simulate one day, under a `sim.day` span when tracing.
fn day(book: &Arc<ScoreBook>, workload: &Workload, tracer: &RefCell<Tracer>) -> SimOutcome {
    let sim = SimConfig::default();
    let cluster = build_cluster(&workload_config());
    let traced = tracer.borrow().enabled();
    let open = tracer.borrow_mut().begin("sim.day", 0);
    let outcome = if traced {
        let mut placer = TimedPlacer {
            inner: PageRankVmPlacer::new(Arc::clone(book)),
            tracer,
        };
        let mut evictor = TimedEviction {
            inner: PageRankEviction::new(Arc::clone(book)),
            tracer,
        };
        simulate(&sim, cluster, workload, &mut placer, &mut evictor)
    } else {
        let mut placer = PageRankVmPlacer::new(Arc::clone(book));
        let mut evictor = PageRankEviction::new(Arc::clone(book));
        simulate(&sim, cluster, workload, &mut placer, &mut evictor)
    };
    tracer.borrow_mut().end(open);
    outcome
}

/// Per-day results of a timed phase.
#[derive(Default)]
struct Days {
    /// On-CPU ms per day, scaled to the reference host speed.
    lat_ms: Samples,
    /// On-CPU ms per day, unscaled.
    raw_ms: Samples,
    wall: Duration,
    cpu: Duration,
    outcomes: Vec<SimOutcome>,
}

/// Simulate days `first..` until `budget` of wall time has been spent
/// on them. The next day's workload is generated between ops, off the
/// clock.
fn timed(
    args: &Args,
    book: &Arc<ScoreBook>,
    first: u64,
    budget: Duration,
    tracer: &RefCell<Tracer>,
) -> Result<Days, String> {
    let mut days = Days::default();
    let mut d = first;
    while days.wall < budget {
        let workload = day_workload(args.seed, d);
        let mut speed = Speed::start()?;
        let t = Stopwatch::start()?;
        let outcome = day(book, &workload, tracer);
        let (wall, cpu) = t.read()?;
        days.wall += wall;
        days.cpu += cpu;
        days.lat_ms.push(ms(cpu) * speed.scale()?);
        days.raw_ms.push(ms(cpu));
        days.outcomes.push(outcome);
        d += 1;
    }
    Ok(days)
}

fn mean(outcomes: &[SimOutcome], f: impl Fn(&SimOutcome) -> f64) -> f64 {
    outcomes.iter().map(f).sum::<f64>() / outcomes.len().max(1) as f64
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let off = RefCell::new(Tracer::new(false));

    let mut setups = Samples::default();
    let mut raw_setups = Samples::default();
    let mut book = None;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut speed = Speed::start()?;
    for _ in 0..repeats {
        drop(book.take());
        let t = Stopwatch::start()?;
        let b = cold_book(&catalog::ec2_vm_types())?;
        let w = day_workload(args.seed, 0);
        let cpu = t.read()?.1.as_secs_f64();
        setups.push(cpu * speed.scale()?);
        raw_setups.push(cpu);
        book = Some((b, w));
    }
    let (book, day0) = book.ok_or("no book built")?;
    let book = Arc::new(book);

    // Warm-up and audit: day 0 with the invariant audit after the
    // initial allocation and after every scan.
    let (warm, audit) = {
        let mut placer = PageRankVmPlacer::new(Arc::clone(&book));
        let mut evictor = PageRankEviction::new(Arc::clone(&book));
        simulate_with_audit(
            &SimConfig::default(),
            build_cluster(&workload_config()),
            &day0,
            &mut placer,
            &mut evictor,
        )
    };
    report.check(audit.is_clean(), || {
        format!("sim-day audit, day 0: {audit}")
    });

    let total = Duration::from_secs_f64(args.seconds);
    let days = if args.trace {
        let untraced = timed(args, &book, 0, total / 2, &off)?;
        let reg = prvm_obs::Registry::replace_global();
        let tracer = RefCell::new(Tracer::new(true));
        let traced = timed(args, &book, 0, total / 2, &tracer)?;
        let tracer = tracer.into_inner();
        let rate = |d: &Days| d.outcomes.len() as f64 / d.cpu.as_secs_f64();
        report.metric(
            "bench.trace_overhead_pct",
            (rate(&untraced) / rate(&traced) - 1.0) * 100.0,
            "%",
            untraced.outcomes.len() + traced.outcomes.len(),
        );
        let mut day_ms = tracer.durations_us("sim.day");
        let n = day_ms.len();
        let day_p50_ms = day_ms.median() / 1e3;
        report.metric("sim.day_ms.p50", day_p50_ms, "ms", n);
        report.metric(
            "sim.engine_self_ms",
            tracer.self_ms("sim.day") / n.max(1) as f64,
            "ms",
            n,
        );
        let mut choose = tracer.durations_us("placer.choose");
        report.metric("placer.choose_us.p50", choose.median(), "us", choose.len());
        report.metric_p99("placer.choose_us.p99", &mut choose, "us");
        let chooses = choose.len().max(1) as f64;
        let scanned = reg.counter("placer.used_pms_scanned").get() as f64;
        report.metric(
            "placer.scanned_per_choose",
            scanned / chooses,
            "PMs",
            choose.len(),
        );
        report.metric(
            "placer.permutations_per_choose",
            reg.counter("placer.permutations_evaluated").get() as f64 / chooses,
            "count",
            choose.len(),
        );
        report.metric(
            "placer.ns_per_scanned_pm",
            choose.sum() * 1e3 / scanned.max(1.0),
            "ns",
            choose.len(),
        );
        report.metric(
            "placer.fallback_ratio",
            reg.counter("placer.quantized_fallbacks").get() as f64 / chooses,
            "ratio",
            choose.len(),
        );
        let mut select = tracer.durations_us("evict.select");
        report.metric("evict.select_us.p50", select.median(), "us", select.len());
        report.metric(
            "evict.calls",
            select.len() as f64 / n.max(1) as f64,
            "count",
            n,
        );
        // The kernel's dispatch count for day 0, off the clock.
        let (_, _, stats) = {
            let mut placer = PageRankVmPlacer::new(Arc::clone(&book));
            let mut evictor = PageRankEviction::new(Arc::clone(&book));
            simulate_recorded(
                &SimConfig::default(),
                build_cluster(&workload_config()),
                &day0,
                &mut placer,
                &mut evictor,
                &FaultPlan::none(),
            )
            .map_err(|e| format!("simulate_recorded: {e}"))?
        };
        report.metric(
            "sim.events_per_s",
            stats.dispatched as f64 / (day_p50_ms / 1e3),
            "1/s",
            n,
        );
        report.metric("bench.spans", tracer.len() as f64, "count", 1);
        let mut cold = Tracer::new(true);
        cold_layers(&mut report, &mut cold, &catalog::ec2_vm_types())?;
        let trace_path = args.work.join(format!("trace-sim-day-{}.json", args.seed));
        tracer.write_chrome(&trace_path)?;
        report.info(format!("chrome trace: {}", trace_path.display()));
        report.attempted = untraced.outcomes.len() as u64;
        traced
    } else {
        let days = timed(args, &book, 0, total, &off)?;
        let n = days.outcomes.len();
        report.metric_note(
            "setup_s",
            setups.median(),
            "s",
            setups.len(),
            format!("scaled on-CPU s; unscaled {:.4}", raw_setups.median()),
        );
        let mut lat = days.lat_ms.clone();
        let typical = lat.median();
        report.metric_note(
            "ops_per_s",
            n as f64 * 1e3 / lat.sum(),
            "1/s",
            n,
            format!(
                "whole phase, days per scaled on-CPU second; unscaled {:.3} per on-CPU second, \
                 {:.3} per wall second",
                n as f64 / days.cpu.as_secs_f64(),
                n as f64 / days.wall.as_secs_f64()
            ),
        );
        report.metric_note(
            "lat_p50_ms",
            typical,
            "ms",
            n,
            format!(
                "scaled on-CPU ms per day; unscaled {:.3}",
                days.raw_ms.clone().median()
            ),
        );
        days
    };
    let outs = &days.outcomes;
    report.attempted += outs.len() as u64;
    report.failed = outs.iter().filter(|o| o.rejected_vms > 0).count() as u64;
    report.check(outs.first() == Some(&warm), || {
        "day 0 timed outcome differs from the audited warm-up run".to_string()
    });
    for (d, o) in outs.iter().enumerate() {
        report.check(o.rejected_vms == 0, || {
            format!("day {d}: {} VMs rejected", o.rejected_vms)
        });
    }
    let pms = mean(outs, |o| o.pms_used as f64);
    let energy = mean(outs, |o| o.energy_kwh);
    let migrations = mean(outs, |o| o.migrations as f64);
    let slo = mean(outs, |o| o.slo_violation_pct);
    report.info(format!(
        "per-day means over {} days: pms_used {pms:.2}, energy_kwh {energy:.3}, \
         migrations {migrations:.2}, slo_pct {slo:.4}",
        outs.len()
    ));
    if args.trace {
        report.metric("quality.pms_used", pms, "PMs", outs.len());
        report.metric("sim.energy_kwh", energy, "kWh", outs.len());
        report.metric("sim.migrations", migrations, "count", outs.len());
        report.metric("sim.slo_pct", slo, "%", outs.len());
    }
    report.metric(
        "ok_pct",
        100.0 * (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        "%",
        report.attempted as usize,
    );
    report.metric("peak_rss_mb", crate::util::peak_rss_mb(None)?, "MiB", 1);
    Ok(report)
}
