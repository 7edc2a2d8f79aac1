//! Subcommand implementations and minimal flag parsing.

use pagerankvm::{
    audit, paths_to_best, rank_stats, top_profiles, AuditReport, GraphLimits, PageRankConfig,
    ProfileSpace, ProfileVm, ScoreTable,
};
use prvm_bench::{report_line, report_text};
use prvm_model::{catalog, Assignment, Quantizer};
use prvm_obs::{LogMode, ObsConfig, Registry, Span};
use prvm_serve::{CatalogSpec, Client, IoChaosOutcome, Server, ServerConfig, Store};
use prvm_sim::{
    build_cluster, Algorithm, FaultPlan, Scenario, SimConfig, Workload, WorkloadConfig,
};
use prvm_testbed::{run_testbed, TestbedConfig};
use prvm_traces::TraceKind;
use std::io::Write as _;
use std::sync::Arc;

/// Top-level usage text.
pub const USAGE: &str = "\
pagerankvm — PageRank-based VM placement (ICDCS'18 reproduction)

commands:
  rank      [--dims 4] [--cap 4] [--profile a,b,c,d]
            build the paper's example score table; show stats, the top
            profiles, and (with --profile) one profile's score and its
            number of paths to the best profile
  place     --vms N [--algo NAME] [--seed N]
            place a seeded EC2-mix workload; print PMs used
  simulate  --vms N [--algo NAME] [--seed N] [--hours H] [--csv FILE]
            [--schedulers N] [--commit-delay-s D]
            run the trace-driven simulation on the discrete-event
            kernel; print the four metrics and optionally dump the
            per-scan time series as CSV. --schedulers > 1 instead runs
            N placement schedulers against one eventually-consistent
            placement store (commit/ack delay D virtual seconds),
            reporting detected/resolved conflicts, placement latency,
            and #PMs vs the centralized baseline; output is
            deterministic per seed
  testbed   --jobs N [--algo NAME] [--seed N] [--minutes M]
            run the emulated GENI testbed
  chaos     [--target sim|serve] [--vms N] [--seed N] [--scans N]
            [--requests N]
            run the seeded fault-injection matrix and print a comparison
            table. --target sim (default): every paper algorithm against
            every simulator fault preset (none, pm-crash,
            flaky-migrations, trace-noise, all); faults are strictly
            opt-in, so the `none` row equals a plain simulate.
            --target serve: drive the crash-safe daemon's state machine
            through every I/O fault preset (short-io, disk-full,
            bit-rot, torn-write, lost-sync, ghost-ack) for --requests
            scripted ops each, proving recovery digests match after
            every injected crash
  serve     --store DIR [--addr HOST:PORT] [--pms N] [--queue N]
            [--deadline-ms N] [--compact-every N] [--coarse]
            run the placement daemon: framed-TCP protocol, checksummed
            write-ahead journal in --store, bounded admission queue,
            per-request deadlines; SIGTERM/SIGINT drains gracefully
            (finish admitted work, cut a final snapshot, exit).
            --coarse uses a low-resolution score book (fast start; for
            smoke tests)
  serve-req OP [ARG] [--addr HOST:PORT] [--deadline-ms N]
            one-shot client for a running daemon. OP is one of:
            place TYPE | evict ID | migrate ID | stats | state |
            snapshot | drain. `stats` prints the full reply as JSON;
            `state` prints only the journal-backed half (identical
            across kill/restart — diff it in CI)
  report    FILE.jsonl [--format text|json]
            summarize a recorded event log: phase wall-time breakdown,
            PageRank convergence, event counts; --format json emits the
            summary as machine-readable JSON
  audit     [--vms N] [--algo NAME] [--seed N] [--hours H] [--self-test]
            audit the score book (graph edges, score distributions) and a
            sim run (capacity, anti-collocation after every step); exits
            non-zero on any violation. --self-test injects deliberate
            violations to prove the checker fires
  bench     [--vms a,b,c] [--threads a,b,c] [--repeats N] [--seed N]
            [--out FILE] [--check FILE] [--trace FILE.json]
            [--check-trace FILE.json] [--gate FILE] [--gate-threshold F]
            perf sweep: time graph build, PageRank convergence, score
            book refresh, placement, choose, cold start and one
            simulated day at every VM count x worker count, and
            write BENCH_PRVM.json (median/p95 ms, speedup vs the first
            worker count). --check validates an existing report instead;
            --trace also records a Chrome trace of the sweep;
            --check-trace validates an existing trace file; --gate
            compares fresh medians against a baseline report and exits
            non-zero on any regression beyond --gate-threshold
            (default 0.15 = 15%)

parallelism (place, simulate, testbed, chaos):
  --threads N             worker threads for graph build, PageRank and
                          sim repeats (default: all hardware threads);
                          results are bit-identical at any setting

observability (place, simulate, testbed, chaos):
  --log off|pretty|json   stream events to stderr (default off)
  --events FILE.jsonl     record every event as JSON lines
  --metrics FILE.json     dump the metrics registry (phases, counters,
                          gauges, residual series) at exit

profiling (place, simulate):
  --trace FILE.json       record per-worker span timelines and write a
                          Chrome trace-event file (open in
                          chrome://tracing or Perfetto)

algorithms: pagerankvm (default), 2choice, ff, ffdsum, compvm, bestfit,
worstfit";

/// Install the event sink from `--log`/`--events` and hand back the
/// `--metrics` path for [`obs_finish`].
fn obs_setup(f: &[(String, Option<String>)]) -> Result<Option<String>, String> {
    let log = match value_of(f, "log")? {
        None => LogMode::Off,
        Some(v) => LogMode::parse(v)
            .ok_or_else(|| format!("bad value for --log: {v} (off|pretty|json)"))?,
    };
    let events_path = value_of(f, "events")?.map(std::path::PathBuf::from);
    prvm_obs::init(ObsConfig { log, events_path }).map_err(|e| format!("--events: {e}"))?;
    Ok(value_of(f, "metrics")?.map(str::to_owned))
}

/// Flush the event sink and write the `--metrics` JSON dump, if asked.
fn obs_finish(metrics: Option<String>) -> Result<(), String> {
    prvm_obs::flush().map_err(|e| e.to_string())?;
    if let Some(path) = metrics {
        let snapshot = Registry::global().snapshot();
        let json = serde_json::to_string_pretty(&snapshot).map_err(|e| e.to_string())?;
        let mut file = std::fs::File::create(&path).map_err(|e| format!("--metrics: {e}"))?;
        writeln!(file, "{json}").map_err(|e| format!("--metrics: {e}"))?;
        report_line(format_args!("  metrics written to {path}"))?;
    }
    Ok(())
}

/// Start the per-worker timeline recorder if `--trace` was given; the
/// returned sink must be handed to [`trace_finish`] after the run.
fn trace_setup(
    f: &[(String, Option<String>)],
) -> Result<Option<(String, prvm_obs::TraceSink)>, String> {
    Ok(value_of(f, "trace")?.map(|p| (p.to_owned(), prvm_obs::TraceSink::start(p))))
}

/// Stop recording and write the schema-validated Chrome trace file.
fn trace_finish(sink: Option<(String, prvm_obs::TraceSink)>) -> Result<(), String> {
    if let Some((path, sink)) = sink {
        let stats = sink.finish().map_err(|e| format!("--trace: {e}"))?;
        report_line(format_args!(
            "  trace written to {path} ({} intervals, {} worker tracks)",
            stats.intervals, stats.worker_tracks
        ))?;
    }
    Ok(())
}

/// Parse `--key value` pairs (plus bare `--flag` booleans).
fn flags(args: &[String]) -> Result<Vec<(String, Option<String>)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{a}`"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned(),
            _ => None,
        };
        out.push((key.to_string(), value));
    }
    Ok(out)
}

/// Reject flags this command does not understand (catches typos like
/// `--vmz 10`, which would otherwise be silently ignored).
fn known(flags: &[(String, Option<String>)], accepted: &[&str]) -> Result<(), String> {
    for (k, _) in flags {
        if !accepted.iter().any(|a| a == k) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    Ok(())
}

/// Look up a flag's value; a flag present *without* a value is a usage
/// error rather than silently equal to the flag being absent.
fn value_of<'a>(
    flags: &'a [(String, Option<String>)],
    key: &str,
) -> Result<Option<&'a str>, String> {
    match flags.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Some(v))) => Ok(Some(v)),
        Some((_, None)) => Err(format!("--{key} needs a value")),
    }
}

fn has(flags: &[(String, Option<String>)], key: &str) -> bool {
    flags.iter().any(|(k, _)| k == key)
}

fn parse<T: std::str::FromStr>(
    flags: &[(String, Option<String>)],
    key: &str,
    default: T,
) -> Result<T, String> {
    match value_of(flags, key)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
    }
}

/// Apply `--threads N` to the global worker pool (0 or absent = one
/// worker per hardware thread). The deterministic pool contract
/// (DESIGN.md §10) means this only changes wall-clock, never results.
fn threads_setup(flags: &[(String, Option<String>)]) -> Result<(), String> {
    if let Some(v) = value_of(flags, "threads")? {
        let n: usize = v
            .parse()
            .map_err(|_| format!("bad value for --threads: {v}"))?;
        if n == 0 {
            return Err("--threads must be positive".into());
        }
        prvm_par::set_global_threads(n);
    }
    Ok(())
}

fn algo(flags: &[(String, Option<String>)]) -> Result<Algorithm, String> {
    Ok(match value_of(flags, "algo")?.unwrap_or("pagerankvm") {
        "pagerankvm" => Algorithm::PageRankVm,
        "2choice" => Algorithm::TwoChoice,
        "ff" => Algorithm::FirstFit,
        "ffdsum" => Algorithm::FfdSum,
        "compvm" => Algorithm::CompVm,
        "bestfit" => Algorithm::BestFit,
        "worstfit" => Algorithm::WorstFit,
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

/// `pagerankvm rank`.
pub fn rank(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    known(&f, &["dims", "cap", "profile"])?;
    let dims: usize = parse(&f, "dims", 4)?;
    let cap: u16 = parse(&f, "cap", 4)?;
    if dims == 0 || cap == 0 {
        return Err("--dims and --cap must be positive".into());
    }

    let table = ScoreTable::build(
        ProfileSpace::uniform(dims, cap),
        vec![
            ProfileVm::from_demands("[1,1]", vec![vec![1; 2.min(dims)]]),
            ProfileVm::from_demands("[1x dims]", vec![vec![1; dims]]),
        ],
        &PageRankConfig::default(),
        GraphLimits::default(),
    )
    .map_err(|e| e.to_string())?;

    let stats = rank_stats(&table);
    report_line(format_args!(
        "profile space: {dims} dims x cap {cap}; {} reachable profiles, {} edges",
        stats.profiles,
        table.graph().edge_count()
    ))?;
    report_line(format_args!(
        "scores: min {:.3e}, mean {:.3e}, max {:.3e}; {:.0}% of profiles can still reach the best profile",
        stats.min,
        stats.mean,
        stats.max,
        stats.best_reaching_fraction * 100.0
    ))?;

    if let Some(spec) = value_of(&f, "profile")? {
        let raw: Vec<u64> = spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("bad profile `{spec}`"))
            })
            .collect::<Result<_, _>>()?;
        if raw.len() != dims {
            return Err(format!("--profile needs {dims} values"));
        }
        let p = table.space().canonicalize(&[&raw]);
        match table.score(&p) {
            Some(s) => {
                let paths = paths_to_best(table.graph())
                    .ok_or("internal error: the best profile is not in the graph")?;
                let node = table
                    .graph()
                    .node(&p)
                    .ok_or("internal error: scored profile missing from the graph")?;
                report_line(format_args!(
                    "profile {p}: score {:.6e}, {} path(s) to the best profile",
                    s, paths[node as usize]
                ))?;
            }
            None => report_line(format_args!("profile {p} is not reachable by the VM set"))?,
        }
    } else {
        report_line(format_args!("\ntop profiles:"))?;
        for (p, s) in top_profiles(&table, 8) {
            report_line(format_args!("  {p}  {:.6e}", s))?;
        }
    }
    Ok(())
}

/// `pagerankvm place`.
pub fn place(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    known(
        &f,
        &[
            "vms", "algo", "seed", "threads", "log", "events", "metrics", "trace",
        ],
    )?;
    let n: usize = parse(&f, "vms", 100)?;
    let seed: u64 = parse(&f, "seed", 42)?;
    let algorithm = algo(&f)?;
    if n == 0 {
        return Err("--vms must be positive".into());
    }
    threads_setup(&f)?;
    let metrics = obs_setup(&f)?;
    let trace = trace_setup(&f)?;
    let run_span = Span::enter("place");

    let book = prvm_sim::ec2_score_book().map_err(|e| e.to_string())?;
    let wl = WorkloadConfig::sized_for(n, TraceKind::PlanetLab);
    let workload = Workload::generate(&wl, 1, seed);
    let mut cluster = build_cluster(&wl);
    let (mut placer, _) = algorithm.build(&book, seed);
    let mut specs = workload.specs.clone();
    placer.order_batch(&mut specs);
    let ids =
        prvm_model::place_batch(placer.as_mut(), &mut cluster, specs).map_err(|e| e.to_string())?;
    report_line(format_args!(
        "{}: placed {} VMs on {} PMs (pool of {})",
        algorithm.name(),
        ids.len(),
        cluster.active_pm_count(),
        cluster.len()
    ))?;
    // Per-type PM utilization summary.
    for pm_type in catalog::ec2_pm_types() {
        let (count, cpu): (usize, f64) = cluster
            .used_pms()
            .map(|id| cluster.pm(id))
            .filter(|pm| pm.spec().name == pm_type.name)
            .fold((0, 0.0), |(c, u), pm| (c + 1, u + pm.cpu_utilization()));
        if count > 0 {
            report_line(format_args!(
                "  {}: {count} used, mean reserved CPU {:.0}%",
                pm_type.name,
                cpu / count as f64 * 100.0
            ))?;
        }
    }
    drop(run_span);
    trace_finish(trace)?;
    obs_finish(metrics)
}

/// `pagerankvm simulate`.
pub fn simulate(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    known(
        &f,
        &[
            "vms",
            "algo",
            "seed",
            "hours",
            "csv",
            "threads",
            "log",
            "events",
            "metrics",
            "trace",
            "schedulers",
            "commit-delay-s",
        ],
    )?;
    let n: usize = parse(&f, "vms", 100)?;
    let seed: u64 = parse(&f, "seed", 42)?;
    let hours: u64 = parse(&f, "hours", 24)?;
    let schedulers: usize = parse(&f, "schedulers", 1)?;
    let commit_delay_s: u64 = parse(&f, "commit-delay-s", 5)?;
    let algorithm = algo(&f)?;
    threads_setup(&f)?;
    let metrics = obs_setup(&f)?;
    let trace = trace_setup(&f)?;
    let run_span = Span::enter("simulate");

    if schedulers > 1 {
        let result = simulate_multi_report(n, seed, schedulers, commit_delay_s, algorithm);
        drop(run_span);
        trace_finish(trace)?;
        obs_finish(metrics)?;
        return result;
    }

    let sim = SimConfig {
        horizon_s: hours * 3600,
        ..SimConfig::default()
    };
    let wl = WorkloadConfig::sized_for(n, TraceKind::PlanetLab);
    let workload = Workload::generate(&wl, sim.scans(), seed);
    let book = prvm_sim::ec2_score_book().map_err(|e| e.to_string())?;
    let (mut placer, mut evictor) = algorithm.build(&book, seed);
    let run = Scenario::default()
        .run(
            &sim,
            build_cluster(&wl),
            &workload,
            placer.as_mut(),
            evictor.as_mut(),
        )
        .map_err(|e| e.to_string())?;
    let o = run.outcome;
    report_line(format_args!(
        "{} over {hours} h, {n} VMs (seed {seed}):",
        algorithm.name()
    ))?;
    report_line(format_args!(
        "  PMs used (allocation): {}",
        o.pms_used_initial
    ))?;
    report_line(format_args!("  PMs ever used:         {}", o.pms_used))?;
    report_line(format_args!(
        "  energy:                {:.1} kWh",
        o.energy_kwh
    ))?;
    report_line(format_args!("  migrations:            {}", o.migrations))?;
    report_line(format_args!(
        "  SLO violations:        {:.3} %",
        o.slo_violation_pct
    ))?;
    report_line(format_args!(
        "  overloaded scans:      {}",
        o.overload_events
    ))?;

    if let Some(path) = value_of(&f, "csv")? {
        let mut file = std::fs::File::create(path).map_err(|e| e.to_string())?;
        run.series.write_csv(&mut file).map_err(|e| e.to_string())?;
        report_line(format_args!("  per-scan time series written to {path}"))?;
    }
    drop(run_span);
    trace_finish(trace)?;
    obs_finish(metrics)
}

/// The `simulate --schedulers N` path: N placement schedulers racing on
/// one eventually-consistent placement store, plus the centralized
/// baseline (1 scheduler, no delays) for the #PMs comparison. Output is
/// fully deterministic per seed — CI diffs two runs.
fn simulate_multi_report(
    n: usize,
    seed: u64,
    schedulers: usize,
    commit_delay_s: u64,
    algorithm: Algorithm,
) -> Result<(), String> {
    let wl = WorkloadConfig::sized_for(n, TraceKind::PlanetLab);
    let workload = Workload::generate(&wl, 12, seed);
    let book = prvm_sim::ec2_score_book().map_err(|e| e.to_string())?;
    let build_placers = |count: usize| {
        (0..count)
            .map(|_| algorithm.build(&book, seed).0)
            .collect::<Vec<_>>()
    };
    let multi = prvm_sim::MultiConfig {
        schedulers,
        commit_delay_s,
        ack_delay_s: commit_delay_s,
        ..prvm_sim::MultiConfig::default()
    };
    let (o, report) = prvm_sim::simulate_multi(
        &multi,
        build_cluster(&wl),
        &workload,
        build_placers(schedulers),
    )
    .map_err(|e| e.to_string())?;
    let (central, _) = prvm_sim::simulate_multi(
        &prvm_sim::MultiConfig::default(),
        build_cluster(&wl),
        &workload,
        build_placers(1),
    )
    .map_err(|e| e.to_string())?;
    report_line(format_args!(
        "{} with {schedulers} schedulers, {n} VMs (seed {seed}, commit/ack delay {commit_delay_s} s):",
        algorithm.name()
    ))?;
    report_line(format_args!(
        "  placed / rejected:     {} / {}",
        o.placed, o.rejected
    ))?;
    report_line(format_args!(
        "  conflicts:             {} detected, {} resolved (rate {:.3})",
        o.conflicts_detected, o.conflicts_resolved, o.conflict_rate
    ))?;
    report_line(format_args!("  retries:               {}", o.retries))?;
    report_line(format_args!(
        "  placement latency:     mean {:.1} s, p95 {:.1} s",
        o.latency_mean_s, o.latency_p95_s
    ))?;
    report_line(format_args!(
        "  PMs used:              {} (centralized baseline: {})",
        o.pms_used, central.pms_used
    ))?;
    for s in &o.per_scheduler {
        report_line(format_args!(
            "    scheduler {}: placed {}, rejected {}, conflicts lost {}",
            s.scheduler, s.placed, s.rejected, s.conflicts
        ))?;
    }
    if report.is_clean() {
        report_line(format_args!(
            "  store audit:           clean (capacity + anti-collocation hold)"
        ))?;
        Ok(())
    } else {
        Err(format!(
            "store audit found {} violation(s)",
            report.violations.len()
        ))
    }
}

/// `pagerankvm testbed`.
pub fn testbed(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    known(
        &f,
        &[
            "jobs", "algo", "seed", "minutes", "threads", "log", "events", "metrics",
        ],
    )?;
    let jobs: usize = parse(&f, "jobs", 150)?;
    let seed: u64 = parse(&f, "seed", 42)?;
    let minutes: u64 = parse(&f, "minutes", 240)?;
    let algorithm = algo(&f)?;
    threads_setup(&f)?;
    let metrics = obs_setup(&f)?;
    let run_span = Span::enter("testbed");

    let cfg = TestbedConfig {
        duration_s: minutes * 60,
        ..TestbedConfig::default()
    };
    let book = Arc::new(cfg.score_book().map_err(|e| e.to_string())?);
    let (mut placer, mut evictor) = algorithm.build(&book, seed);
    let o = run_testbed(
        &cfg,
        jobs,
        placer.as_mut(),
        evictor.as_mut(),
        seed,
        &FaultPlan::none(),
    );
    report_line(format_args!(
        "{} on the emulated GENI testbed ({} nodes, {} min, {jobs} jobs, seed {seed}):",
        algorithm.name(),
        cfg.nodes,
        minutes
    ))?;
    report_line(format_args!(
        "  nodes used (allocation): {}",
        o.pms_used_initial
    ))?;
    report_line(format_args!("  nodes ever used:         {}", o.pms_used))?;
    report_line(format_args!("  kill/restart migrations: {}", o.migrations))?;
    report_line(format_args!(
        "  SLO violations:          {:.2} %",
        o.slo_violation_pct
    ))?;
    report_line(format_args!(
        "  rejected jobs:           {}",
        o.rejected_jobs
    ))?;
    drop(run_span);
    obs_finish(metrics)
}

/// One cell of the chaos matrix: an algorithm's metrics under one fault
/// preset.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// Fault preset name ([`FaultPlan::preset_names`]).
    pub fault: &'static str,
    /// Distinct PMs ever used.
    pub pms_used: usize,
    /// Energy in kWh.
    pub energy_kwh: f64,
    /// Overload migrations performed.
    pub migrations: usize,
    /// SLO violation percentage.
    pub slo_pct: f64,
    /// PMs crashed by the plan.
    pub pm_failures: usize,
    /// VMs successfully evacuated off crashed PMs.
    pub evacuations: usize,
    /// Migration/evacuation attempts that failed in flight.
    pub failed_migrations: usize,
    /// Total repaired downtime across evacuations, in seconds.
    pub recovery_time_s: u64,
}

/// Run the fault matrix: every paper algorithm × every fault preset, all
/// from one seed. Pure (no printing), so tests can assert determinism.
///
/// # Errors
///
/// Score-book construction failures and an invalid simulation config,
/// as messages.
pub fn chaos_matrix(seed: u64, scans: usize, n_vms: usize) -> Result<Vec<ChaosRow>, String> {
    let book = prvm_sim::ec2_score_book().map_err(|e| e.to_string())?;
    let base = SimConfig::default();
    let sim = SimConfig {
        horizon_s: scans as u64 * base.scan_interval_s,
        ..base
    };
    let wl = WorkloadConfig::sized_for(n_vms, TraceKind::PlanetLab);
    let mut rows = Vec::new();
    for algorithm in Algorithm::PAPER_SET {
        for fault in FaultPlan::preset_names() {
            let plan = FaultPlan::preset(fault, scans, seed).expect("known preset name");
            let workload = Workload::generate(&wl, sim.scans(), seed);
            let (mut placer, mut evictor) = algorithm.build(&book, seed);
            let o = Scenario {
                faults: plan,
                ..Scenario::default()
            }
            .run(
                &sim,
                build_cluster(&wl),
                &workload,
                placer.as_mut(),
                evictor.as_mut(),
            )
            .map_err(|e| e.to_string())?
            .outcome;
            rows.push(ChaosRow {
                algorithm: algorithm.name(),
                fault,
                pms_used: o.pms_used,
                energy_kwh: o.energy_kwh,
                migrations: o.migrations,
                slo_pct: o.slo_violation_pct,
                pm_failures: o.pm_failures,
                evacuations: o.evacuations,
                failed_migrations: o.failed_migrations,
                recovery_time_s: o.recovery_time_s,
            });
        }
    }
    Ok(rows)
}

/// The daemon half of `pagerankvm chaos`: every I/O fault preset run
/// through [`prvm_serve::run_io_chaos`] at the same seed.
pub fn io_chaos_matrix(seed: u64, requests: usize) -> Result<Vec<IoChaosOutcome>, String> {
    prvm_faults::IoFaultPlan::io_preset_names()
        .iter()
        .map(|preset| {
            prvm_serve::run_io_chaos(preset, seed, requests).map_err(|e| format!("{preset}: {e}"))
        })
        .collect()
}

/// `pagerankvm chaos --target serve`: the I/O fault table.
fn chaos_serve(seed: u64, requests: usize) -> Result<(), String> {
    let rows = io_chaos_matrix(seed, requests)?;
    report_line(format_args!(
        "serve chaos: {} I/O fault presets x {requests} requests (seed {seed})",
        rows.len()
    ))?;
    report_line(format_args!(
        "\n{:<12} {:>6} {:>6} {:>8} {:>7} {:>5} {:>6} {:>7} {:<16}",
        "preset", "acked", "reject", "jrnl-err", "crashes", "lost", "ghost", "checks", "digest"
    ))?;
    for row in &rows {
        report_line(format_args!(
            "{:<12} {:>6} {:>6} {:>8} {:>7} {:>5} {:>6} {:>7} {:<16}",
            row.preset,
            row.acked,
            row.rejected,
            row.journal_errors,
            row.crashes,
            row.lost_inflight,
            row.ghost_acks,
            row.digest_checks,
            &row.final_digest[..row.final_digest.len().min(16)]
        ))?;
    }
    report_line(format_args!(
        "\nevery crash recovery replayed to a digest-identical state"
    ))?;
    Ok(())
}

/// `pagerankvm chaos`.
pub fn chaos(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    known(
        &f,
        &[
            "target", "vms", "seed", "scans", "requests", "threads", "log", "events", "metrics",
        ],
    )?;
    let n: usize = parse(&f, "vms", 60)?;
    let seed: u64 = parse(&f, "seed", 42)?;
    let scans: usize = parse(&f, "scans", 48)?;
    let requests: usize = parse(&f, "requests", 64)?;
    if n == 0 || scans == 0 || requests == 0 {
        return Err("--vms, --scans and --requests must be positive".into());
    }
    match value_of(&f, "target")?.unwrap_or("sim") {
        "sim" => {}
        "serve" => return chaos_serve(seed, requests),
        other => return Err(format!("bad value for --target: {other} (sim|serve)")),
    }
    threads_setup(&f)?;
    let metrics = obs_setup(&f)?;
    let run_span = Span::enter("chaos");

    let rows = chaos_matrix(seed, scans, n)?;
    report_line(format_args!(
        "chaos matrix: {} algorithms x {} fault presets ({n} VMs, {scans} scans, seed {seed})",
        Algorithm::PAPER_SET.len(),
        FaultPlan::preset_names().len()
    ))?;
    report_line(format_args!(
        "\n{:<17} {:<18} {:>4} {:>8} {:>5} {:>7} {:>6} {:>5} {:>8} {:>9}",
        "fault",
        "algorithm",
        "PMs",
        "kWh",
        "migr",
        "SLO%",
        "crash",
        "evac",
        "failmigr",
        "repair(s)"
    ))?;
    for row in &rows {
        report_line(format_args!(
            "{:<17} {:<18} {:>4} {:>8.1} {:>5} {:>7.3} {:>6} {:>5} {:>8} {:>9}",
            row.fault,
            row.algorithm,
            row.pms_used,
            row.energy_kwh,
            row.migrations,
            row.slo_pct,
            row.pm_failures,
            row.evacuations,
            row.failed_migrations,
            row.recovery_time_s
        ))?;
    }
    drop(run_span);
    obs_finish(metrics)
}

/// `pagerankvm audit`: run every invariant family and exit non-zero on
/// any violation.
pub fn audit(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    known(&f, &["vms", "algo", "seed", "hours", "self-test"])?;
    if has(&f, "self-test") {
        return audit_self_test();
    }
    let n: usize = parse(&f, "vms", 100)?;
    let seed: u64 = parse(&f, "seed", 42)?;
    let hours: u64 = parse(&f, "hours", 4)?;
    let algorithm = algo(&f)?;

    // Static half: every profile-graph edge must be a legal single-VM
    // transition and every score vector a proper distribution.
    let book = prvm_sim::ec2_score_book().map_err(|e| e.to_string())?;
    let mut report = audit::check_book(&book);

    // Dynamic half: replay a simulation, re-checking capacity and
    // anti-collocation on the whole cluster after every placement,
    // eviction and migration step.
    let sim = SimConfig {
        horizon_s: hours * 3600,
        ..SimConfig::default()
    };
    let wl = WorkloadConfig::sized_for(n, TraceKind::PlanetLab);
    let workload = Workload::generate(&wl, sim.scans(), seed);
    let (mut placer, mut evictor) = algorithm.build(&book, seed);
    let audited = Scenario {
        audit: true,
        ..Scenario::default()
    };
    let run = audited
        .run(
            &sim,
            build_cluster(&wl),
            &workload,
            placer.as_mut(),
            evictor.as_mut(),
        )
        .map_err(|e| e.to_string())?;
    report.merge(run.audit.unwrap_or_default());

    report_line(format_args!(
        "audited {} over {hours} h, {n} VMs (seed {seed}):",
        algorithm.name()
    ))?;
    report_line(format_args!("{report}"))?;
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} invariant violation(s)",
            report.violations.len()
        ))
    }
}

/// Feed the checker states the safe `Cluster` API refuses to build and
/// prove it flags them (and therefore that `audit` can exit non-zero).
fn audit_self_test() -> Result<(), String> {
    let mut report = AuditReport::default();
    // A collocated assignment: both vCPUs of an m3.large on core 0.
    audit::check_assignment_shape(
        &catalog::vm_m3_large(),
        &Assignment::new(vec![0, 0], vec![0]),
        16,
        4,
        "self-test collocated vm",
        &mut report,
    );
    // A score vector that is not a distribution.
    audit::check_score_vector(&[0.5, 0.7], "self-test scores", &mut report);
    report_line(format_args!("{report}"))?;
    if report.is_clean() {
        Err("self-test FAILED: injected violations were not detected".into())
    } else {
        Err(format!(
            "self-test OK: checker flagged {} injected violation(s); exiting non-zero",
            report.violations.len()
        ))
    }
}

/// `pagerankvm bench`: the perf sweep behind `BENCH_PRVM.json`, with
/// the flag grammar of [`prvm_bench::perf::PerfArgs`].
pub fn bench(args: &[String]) -> Result<(), String> {
    let perf_args = prvm_bench::perf::PerfArgs::try_parse(args.iter().cloned())?;
    prvm_bench::perf::main_with(&perf_args)
}

/// Build the daemon's catalog: an EC2-mix cluster of `pms` machines,
/// optionally at coarse profile resolution (fast score-book build for
/// smoke tests; the daemon's durability contract is
/// resolution-independent).
fn serve_catalog(pms: usize, coarse: bool) -> CatalogSpec {
    let spec = CatalogSpec::ec2(pms);
    if coarse {
        spec.with_quantizer(Quantizer {
            core_slots: 2,
            mem_levels: 4,
            disk_levels: 2,
        })
    } else {
        spec
    }
}

/// `pagerankvm serve`: run the crash-safe placement daemon until a
/// SIGTERM/SIGINT drain.
pub fn serve(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    known(
        &f,
        &[
            "store",
            "addr",
            "pms",
            "queue",
            "deadline-ms",
            "compact-every",
            "coarse",
        ],
    )?;
    let Some(store_dir) = value_of(&f, "store")?.map(str::to_owned) else {
        return Err("--store DIR is required (journal + snapshot directory)".into());
    };
    let addr = value_of(&f, "addr")?.unwrap_or("127.0.0.1:7791").to_owned();
    let pms: usize = parse(&f, "pms", 16)?;
    if pms == 0 {
        return Err("--pms must be positive".into());
    }
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        queue_capacity: parse(&f, "queue", defaults.queue_capacity)?,
        default_deadline_ms: parse(&f, "deadline-ms", defaults.default_deadline_ms)?,
        compact_every: parse(&f, "compact-every", defaults.compact_every)?,
    };
    let catalog_spec = serve_catalog(pms, has(&f, "coarse"));
    std::fs::create_dir_all(&store_dir).map_err(|e| format!("--store {store_dir}: {e}"))?;
    let store = Store::open(&store_dir).map_err(|e| format!("--store {store_dir}: {e}"))?;
    let handle = Server::start(&catalog_spec, store, config, &addr).map_err(|e| e.to_string())?;
    report_line(format_args!(
        "prvm-serve listening on {} (store {store_dir}, {pms} PMs); SIGTERM drains",
        handle.addr()
    ))?;
    let stats = handle.drain_on_signals().map_err(|e| e.to_string())?;
    report_line(format_args!(
        "drained: {} requests ({} placed, {} evicted, {} migrated), {} shed, {} timeouts",
        stats.requests, stats.placed, stats.evicted, stats.migrated, stats.shed, stats.timeouts
    ))?;
    Ok(())
}

/// `pagerankvm serve-req OP [ARG]`: one-shot client for CI and shell
/// scripting against a running daemon.
pub fn serve_req(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: pagerankvm serve-req OP [ARG] [--addr HOST:PORT] \
                         [--deadline-ms N]\n  OP: place TYPE | evict ID | migrate ID | stats | \
                         state | snapshot | drain";
    let Some((op, rest)) = args.split_first().filter(|(op, _)| !op.starts_with("--")) else {
        return Err(USAGE.into());
    };
    let (arg, rest) = match rest.split_first() {
        Some((a, tail)) if !a.starts_with("--") => (Some(a.as_str()), tail),
        _ => (None, rest),
    };
    let f = flags(rest)?;
    known(&f, &["addr", "deadline-ms"])?;
    let addr = value_of(&f, "addr")?.unwrap_or("127.0.0.1:7791");
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    client.deadline_ms = parse(&f, "deadline-ms", client.deadline_ms)?;
    let id = |arg: Option<&str>| -> Result<u64, String> {
        arg.ok_or_else(|| format!("serve-req {op} needs a VM id\n{USAGE}"))?
            .parse()
            .map_err(|_| format!("serve-req {op}: VM id must be a number\n{USAGE}"))
    };
    match op.as_str() {
        "place" => {
            let ty = arg.ok_or_else(|| format!("serve-req place needs a VM type\n{USAGE}"))?;
            let placed = client.place(ty).map_err(|e| e.to_string())?;
            report_line(format_args!(
                "placed vm {} ({ty}) on pm {}",
                placed.vm, placed.pm
            ))?;
        }
        "evict" => {
            let evicted = client.evict(id(arg)?).map_err(|e| e.to_string())?;
            report_line(format_args!(
                "evicted vm {} from pm {}",
                evicted.vm, evicted.pm
            ))?;
        }
        "migrate" => {
            let moved = client.migrate(id(arg)?).map_err(|e| e.to_string())?;
            report_line(format_args!(
                "migrated vm {} from pm {} to pm {}",
                moved.vm, moved.from, moved.to
            ))?;
        }
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            let json = serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?;
            report_line(format_args!("{json}"))?;
        }
        "state" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            let json = serde_json::to_string_pretty(&stats.state).map_err(|e| e.to_string())?;
            report_line(format_args!("{json}"))?;
        }
        "snapshot" => {
            let version = client.snapshot().map_err(|e| e.to_string())?;
            report_line(format_args!("snapshot version {version}"))?;
        }
        "drain" => {
            client.drain().map_err(|e| e.to_string())?;
            report_line(format_args!("drain acknowledged"))?;
        }
        other => return Err(format!("unknown serve-req op `{other}`\n{USAGE}")),
    }
    Ok(())
}

/// `pagerankvm report FILE.jsonl [--format text|json]`.
pub fn report(args: &[String]) -> Result<(), String> {
    let Some((path, rest)) = args.split_first().filter(|(p, _)| !p.starts_with("--")) else {
        return Err("usage: pagerankvm report FILE.jsonl [--format text|json]".into());
    };
    let f = flags(rest)?;
    known(&f, &["format"])?;
    let format = value_of(&f, "format")?.unwrap_or("text");
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let summary = prvm_obs::summarize_events(std::io::BufReader::new(file))
        .map_err(|e| format!("{path}: {e}"))?;
    match format {
        "text" => report_text(format_args!("{}", prvm_obs::render_report(&summary)))?,
        "json" => {
            let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
            report_line(format_args!("{json}"))?;
        }
        other => return Err(format!("bad value for --format: {other} (text|json)")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn flag_parsing() {
        let f = flags(&s(&["--vms", "10", "--fresh", "--seed", "7"])).unwrap();
        assert_eq!(value_of(&f, "vms").unwrap(), Some("10"));
        assert!(value_of(&f, "fresh").is_err(), "bare flag has no value");
        assert!(has(&f, "fresh"));
        assert_eq!(parse(&f, "seed", 0u64).unwrap(), 7);
        assert_eq!(parse(&f, "missing", 3u64).unwrap(), 3);
        assert!(flags(&s(&["vms"])).is_err());
    }

    #[test]
    fn algorithm_lookup() {
        let f = flags(&s(&["--algo", "compvm"])).unwrap();
        assert_eq!(algo(&f).unwrap(), Algorithm::CompVm);
        let f = flags(&s(&[])).unwrap();
        assert_eq!(algo(&f).unwrap(), Algorithm::PageRankVm);
        let f = flags(&s(&["--algo", "nope"])).unwrap();
        assert!(algo(&f).is_err());
    }

    #[test]
    fn rank_command_runs() {
        rank(&s(&["--dims", "4", "--cap", "4", "--profile", "3,3,2,2"])).unwrap();
        rank(&s(&["--dims", "3", "--cap", "3"])).unwrap();
        assert!(rank(&s(&["--profile", "1,2"])).is_err()); // wrong arity
        assert!(rank(&s(&["--cap", "0"])).is_err());
    }

    /// One test covers every command that touches the process-global
    /// event sink or timeline recorder, so parallel tests cannot
    /// re-initialize them mid-run.
    #[test]
    fn obs_flags_roundtrip_through_report() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("prvm-cli-test-{}-trace.json", std::process::id()));
        place(&s(&[
            "--vms",
            "12",
            "--algo",
            "ff",
            "--seed",
            "1",
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        // The `--trace` file is a schema-valid Chrome trace.
        let text = std::fs::read_to_string(&trace).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let stats = prvm_obs::validate_chrome_trace(&parsed).unwrap();
        assert!(stats.intervals > 0);

        let events = dir.join(format!("prvm-cli-test-{}.jsonl", std::process::id()));
        let metrics = dir.join(format!("prvm-cli-test-{}.json", std::process::id()));
        simulate(&s(&[
            "--vms",
            "12",
            "--algo",
            "ff",
            "--seed",
            "1",
            "--hours",
            "1",
            "--events",
            events.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();

        // The events file replays through the report subcommand and
        // carries the per-phase spans.
        let log = std::fs::read_to_string(&events).unwrap();
        assert!(log.lines().count() > 0);
        let summary = prvm_obs::summarize_events(std::io::BufReader::new(log.as_bytes())).unwrap();
        let phases: Vec<&str> = summary.phases.iter().map(|p| p.name.as_str()).collect();
        assert!(phases.contains(&"simulate"), "{phases:?}");
        assert!(phases.contains(&"simulate/scan"), "{phases:?}");
        report(&s(&[events.to_str().unwrap()])).unwrap();
        report(&s(&[events.to_str().unwrap(), "--format", "json"])).unwrap();
        // The JSON form round-trips back into the same summary.
        let json = serde_json::to_string(&summary).unwrap();
        let back: prvm_obs::ReportSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
        assert!(report(&s(&["/nonexistent/events.jsonl"])).is_err());
        assert!(report(&s(&[])).is_err());
        let err = report(&s(&[events.to_str().unwrap(), "--format", "xml"])).unwrap_err();
        assert!(err.contains("--format"), "{err}");

        // The metrics dump is valid JSON with the expected sections.
        let dump = std::fs::read_to_string(&metrics).unwrap();
        let value: serde_json::Value = serde_json::from_str(&dump).unwrap();
        assert!(value.field("phases").is_ok());
        assert!(value.field("counters").is_ok());

        // Disable the sink again for any later test in this process.
        prvm_obs::init(ObsConfig::default()).unwrap();
        std::fs::remove_file(&events).ok();
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn bad_log_flag_is_rejected() {
        let err = simulate(&s(&["--vms", "4", "--log", "loud"])).unwrap_err();
        assert!(err.contains("--log"), "{err}");
    }

    #[test]
    fn malformed_flags_are_usage_errors() {
        // A value-taking flag with no value…
        let err = simulate(&s(&["--vms"])).unwrap_err();
        assert!(err.contains("--vms needs a value"), "{err}");
        let err = simulate(&s(&["--vms", "4", "--metrics", "--hours", "1"])).unwrap_err();
        assert!(err.contains("--metrics needs a value"), "{err}");
        // …a non-numeric count…
        let err = simulate(&s(&["--vms", "many"])).unwrap_err();
        assert!(err.contains("bad value for --vms"), "{err}");
        // …and a typo'd flag are all reported, not silently ignored.
        let err = simulate(&s(&["--vmz", "10"])).unwrap_err();
        assert!(err.contains("unknown flag --vmz"), "{err}");
        let err = audit(&s(&["--jobs", "10"])).unwrap_err();
        assert!(err.contains("unknown flag --jobs"), "{err}");
    }

    /// Small but real: the full algorithm × preset grid, run twice, must
    /// agree cell-for-cell; fault injection stays opt-in (the `none`
    /// column injects nothing) and the crash presets actually crash.
    #[test]
    fn chaos_matrix_is_deterministic_and_faults_are_opt_in() {
        let a = chaos_matrix(7, 4, 12).unwrap();
        let b = chaos_matrix(7, 4, 12).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.len(),
            Algorithm::PAPER_SET.len() * FaultPlan::preset_names().len()
        );
        for row in a.iter().filter(|r| r.fault == "none") {
            assert_eq!(row.pm_failures, 0, "{row:?}");
            assert_eq!(row.evacuations, 0, "{row:?}");
            assert_eq!(row.failed_migrations, 0, "{row:?}");
            assert_eq!(row.recovery_time_s, 0, "{row:?}");
        }
        assert!(
            a.iter()
                .filter(|r| r.fault == "pm-crash")
                .all(|r| r.pm_failures > 0),
            "the pm-crash preset must crash PMs"
        );
    }

    #[test]
    fn chaos_rejects_bad_flags() {
        let err = chaos(&s(&["--jobz", "10"])).unwrap_err();
        assert!(err.contains("unknown flag --jobz"), "{err}");
        let err = chaos(&s(&["--scans", "0"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn audit_self_test_fires_and_fails() {
        let err = audit(&s(&["--self-test"])).unwrap_err();
        assert!(err.contains("self-test OK"), "{err}");
    }

    /// The daemon chaos target runs every I/O preset deterministically:
    /// two invocations at the same seed produce identical outcome rows,
    /// the fault-free preset injects nothing, and the crash presets
    /// actually crash and recover.
    #[test]
    fn serve_chaos_target_is_deterministic_and_crashes_recover() {
        let a = io_chaos_matrix(7, 24).unwrap();
        let b = io_chaos_matrix(7, 24).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), prvm_faults::IoFaultPlan::io_preset_names().len());
        let none = &a[0];
        assert_eq!(none.preset, "none");
        assert_eq!(none.journal_errors, 0, "{none:?}");
        assert_eq!(none.crashes, 0, "{none:?}");
        for preset in ["torn-write", "lost-sync", "ghost-ack"] {
            let row = a.iter().find(|r| r.preset == preset).unwrap();
            assert!(row.crashes > 0, "{row:?}");
            assert!(row.digest_checks > row.crashes, "{row:?}");
        }
        chaos(&s(&[
            "--target",
            "serve",
            "--seed",
            "7",
            "--requests",
            "24",
        ]))
        .unwrap();
        let err = chaos(&s(&["--target", "cloud"])).unwrap_err();
        assert!(err.contains("--target"), "{err}");
        let err = chaos(&s(&["--target", "serve", "--requests", "0"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_flags_without_starting() {
        let err = serve(&s(&[])).unwrap_err();
        assert!(err.contains("--store"), "{err}");
        let err = serve(&s(&["--store", "/tmp/x", "--pms", "0"])).unwrap_err();
        assert!(err.contains("--pms"), "{err}");
        let err = serve(&s(&["--store", "/tmp/x", "--qeue", "4"])).unwrap_err();
        assert!(err.contains("unknown flag --qeue"), "{err}");
    }

    /// `serve-req` against a live daemon: every op round-trips, `state`
    /// prints the journal-backed JSON the CI smoke job diffs, and typed
    /// server errors surface as command errors.
    #[test]
    fn serve_req_drives_a_live_daemon() {
        let dir = std::env::temp_dir().join(format!("prvm-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = Store::open(&dir).unwrap();
        let handle = Server::start(
            &serve_catalog(6, true),
            store,
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = handle.addr().to_string();

        serve_req(&s(&["place", "m3.medium", "--addr", &addr])).unwrap();
        serve_req(&s(&["place", "m3.large", "--addr", &addr])).unwrap();
        serve_req(&s(&["migrate", "0", "--addr", &addr])).unwrap();
        serve_req(&s(&["evict", "1", "--addr", &addr])).unwrap();
        serve_req(&s(&["stats", "--addr", &addr])).unwrap();
        serve_req(&s(&["state", "--addr", &addr])).unwrap();
        serve_req(&s(&["snapshot", "--addr", &addr])).unwrap();
        // A typed server error (eviction of a gone VM) is a CLI error.
        let err = serve_req(&s(&["evict", "1", "--addr", &addr])).unwrap_err();
        assert!(err.contains("UnknownVm"), "{err}");
        // Malformed invocations never touch the wire.
        assert!(serve_req(&s(&[])).unwrap_err().contains("usage"));
        let err = serve_req(&s(&["place", "--addr", &addr])).unwrap_err();
        assert!(err.contains("VM type"), "{err}");
        let err = serve_req(&s(&["evict", "soon", "--addr", &addr])).unwrap_err();
        assert!(err.contains("number"), "{err}");
        let err = serve_req(&s(&["reboot", "--addr", &addr])).unwrap_err();
        assert!(err.contains("unknown serve-req op"), "{err}");

        serve_req(&s(&["drain", "--addr", &addr])).unwrap();
        let stats = handle.join();
        assert_eq!(stats.placed, 2);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.migrated, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
