//! Shared harness for the figure/table binaries (see DESIGN.md §3 for the
//! experiment index).
//!
//! Figures 3 and 5–7 are different projections of the *same* simulation
//! sweep, and Figures 4(a), 4(b) and 8 of the same testbed sweep, so the
//! harness computes each sweep once and caches it as JSON under `target/`;
//! every figure binary then prints its own table from the cache. Use
//! `--fresh` to recompute.

#![warn(missing_docs)]
#![warn(clippy::expect_used)]

pub mod loadgen;
pub mod perf;

use prvm_sim::{Algorithm, MetricSummary, SimConfig};
use prvm_testbed::{run_testbed, FaultPlan, TestbedConfig, TestbedOutcome};
use prvm_traces::stats::Percentiles;
use prvm_traces::TraceKind;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Repeats per configuration (paper: 100; default kept small so the
    /// full harness finishes in minutes).
    pub repeats: usize,
    /// Base seed.
    pub seed: u64,
    /// VM counts for the simulation sweep (paper: 1000, 2000, 3000).
    pub vms: Vec<usize>,
    /// Job counts for the testbed sweep (paper: up to 300).
    pub jobs: Vec<usize>,
    /// Ignore caches and recompute.
    pub fresh: bool,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            repeats: 5,
            seed: 42,
            vms: vec![1000, 2000, 3000],
            jobs: vec![100, 200, 300],
            fresh: false,
        }
    }
}

impl CliArgs {
    /// Parse `std::env::args()`-style flags: `--repeats N`, `--seed N`,
    /// `--vms a,b,c`, `--jobs a,b,c`, `--fresh`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags, missing values,
    /// unparseable numbers, or zero, empty or repeated counts.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        let usage = "usage: [--repeats N] [--seed N] [--vms a,b,c] [--jobs a,b,c] [--fresh]";
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .ok_or_else(|| format!("{name} needs a value; {usage}"))
            };
            match flag.as_str() {
                "--repeats" => out.repeats = parse_count(&value("--repeats")?, usage)?,
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|_| format!("--seed wants an integer; {usage}"))?;
                }
                "--vms" => out.vms = parse_counts(&value("--vms")?, usage)?,
                "--jobs" => out.jobs = parse_counts(&value("--jobs")?, usage)?,
                "--fresh" => out.fresh = true,
                other => return Err(format!("unknown flag {other}; {usage}")),
            }
        }
        Ok(out)
    }

    /// Parse the process arguments (skipping argv\[0\]), exiting with the
    /// usage message on malformed flags.
    #[must_use]
    pub fn from_env() -> Self {
        Self::try_parse(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    }
}

/// Parse one positive count (`--repeats 5`).
///
/// # Errors
///
/// A message ending in `usage` when `text` is not a positive integer.
pub(crate) fn parse_count(text: &str, usage: &str) -> Result<usize, String> {
    let n: usize = text
        .trim()
        .parse()
        .map_err(|_| format!("{text:?} is not a count; {usage}"))?;
    if n == 0 {
        return Err(format!("counts must be positive; {usage}"));
    }
    Ok(n)
}

/// Parse a comma-separated list of positive, distinct counts
/// (`--vms 1000,2000,3000`).
///
/// # Errors
///
/// A message ending in `usage` on an empty list, a zero or unparseable
/// entry, or a repeated count.
pub(crate) fn parse_counts(text: &str, usage: &str) -> Result<Vec<usize>, String> {
    let list = text
        .split(',')
        .map(|s| parse_count(s, usage))
        .collect::<Result<Vec<_>, _>>()?;
    if (1..list.len()).any(|i| list[..i].contains(&list[i])) {
        return Err(format!("counts must be distinct; {usage}"));
    }
    Ok(list)
}

/// Print one report line to stdout. A closed stdout (`bench | head
/// -1`) is not a failure: the reader has gone, so the line has nowhere
/// to go, and the work it reports (a merged `--out` cell) is already done.
///
/// # Errors
///
/// Any other write failure, as a message.
pub fn report_line(line: std::fmt::Arguments<'_>) -> Result<(), String> {
    report_text(format_args!("{line}\n"))
}

/// [`report_line`] without the newline: print `text` as it is.
///
/// # Errors
///
/// Any write failure other than a closed stdout, as a message.
pub fn report_text(text: std::fmt::Arguments<'_>) -> Result<(), String> {
    write_report(&mut std::io::stdout().lock(), text)
}

fn write_report(out: &mut dyn Write, text: std::fmt::Arguments<'_>) -> Result<(), String> {
    match out.write_fmt(text) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("cannot write to stdout: {e}")),
        _ => Ok(()),
    }
}

/// Write `keys` as top-level keys of the JSON object at `path`, keeping
/// every other key there: a key already present is replaced where it
/// stands, a new one is appended. An absent file becomes a fresh object.
/// This is how the perf sweep and the `serve_loadgen` cell share
/// `BENCH_PRVM.json` without dropping each other.
///
/// # Errors
///
/// Reports filesystem or JSON failures as a message, and refuses to
/// overwrite a file that holds JSON other than an object.
pub fn merge_json_keys(path: &Path, keys: Vec<(String, serde::Value)>) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str::<serde::Value>(&text)
            .map_err(|e| format!("{} is not JSON: {e:?}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => serde::Value::Object(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let serde::Value::Object(pairs) = &mut doc else {
        return Err(format!(
            "{} is not a JSON object; refusing to clobber it",
            path.display()
        ));
    };
    for (key, value) in keys {
        match pairs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => *slot = value,
            None => pairs.push((key, value)),
        }
    }
    let json =
        serde_json::to_string_pretty(&doc).map_err(|e| format!("cannot serialize report: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn cache_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/prvm-results")
}

fn load_cache<T: for<'de> Deserialize<'de>>(name: &str) -> Option<T> {
    let path = cache_dir().join(name);
    let bytes = std::fs::read(path).ok()?;
    serde_json::from_slice(&bytes).ok()
}

/// Best-effort: an unwritable cache only costs recomputation next run.
fn store_cache<T: Serialize>(name: &str, value: &T) {
    let dir = cache_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[cache] cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    let json = match serde_json::to_vec_pretty(value) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("[cache] cannot serialize {name}: {e}");
            return;
        }
    };
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("[cache] wrote {}", path.display()),
        Err(e) => eprintln!("[cache] cannot write {}: {e}", path.display()),
    }
}

/// The full simulation sweep behind Figs. 3, 5, 6 and 7: both traces, the
/// paper's four algorithms, all VM counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimSweep {
    /// One row per (trace, n_vms, algorithm).
    pub rows: Vec<MetricSummary>,
    /// Repeats the sweep was computed with.
    pub repeats: usize,
    /// Base seed.
    pub seed: u64,
    /// VM counts the sweep was computed with. Stored in the cache file so
    /// a stale cache from a different configuration is detected even if
    /// the file name lies (copied/renamed caches, older formats).
    pub vms: Vec<usize>,
}

/// Compute (or load) the simulation sweep.
#[must_use]
pub fn sim_sweep(args: &CliArgs) -> SimSweep {
    let key = format!(
        "sim-r{}-s{}-v{}.json",
        args.repeats,
        args.seed,
        args.vms
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("_")
    );
    if !args.fresh {
        match load_cache::<SimSweep>(&key) {
            Some(hit)
                if hit.repeats == args.repeats && hit.seed == args.seed && hit.vms == args.vms =>
            {
                eprintln!("[cache] loaded {key} (pass --fresh to recompute)");
                return hit;
            }
            Some(_) => eprintln!("[cache] {key} is from a different configuration; recomputing"),
            None => {}
        }
    }
    let t0 = Instant::now();
    eprintln!("[sweep] building Profile-PageRank score tables…");
    let book = prvm_sim::ec2_score_book()
        .unwrap_or_else(|e| panic!("EC2 catalog graph build failed: {e}"));
    let sim = SimConfig::default();
    let mut rows = Vec::new();
    for kind in [TraceKind::PlanetLab, TraceKind::GoogleCluster] {
        for &n in &args.vms {
            for algo in Algorithm::PAPER_SET {
                let t = Instant::now();
                let row = prvm_sim::run_repeats(
                    algo,
                    &book,
                    &sim,
                    &prvm_sim::WorkloadConfig::sized_for(n, kind),
                    args.repeats,
                    args.seed,
                );
                eprintln!(
                    "[sweep] {:12} {:>5} VMs {:14} pms={:6.1} init={:6.1} peak={:6.1} migr={:8.1} ({:.1?})",
                    kind.label(),
                    n,
                    row.algorithm,
                    row.pms_used.median,
                    row.pms_used_initial.median,
                    row.pms_used_max_active.median,
                    row.migrations.median,
                    t.elapsed()
                );
                rows.push(row);
            }
        }
    }
    eprintln!("[sweep] total {:.1?}", t0.elapsed());
    let sweep = SimSweep {
        rows,
        repeats: args.repeats,
        seed: args.seed,
        vms: args.vms.clone(),
    };
    store_cache(&key, &sweep);
    sweep
}

/// One testbed configuration's percentile summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TestbedSummary {
    /// Algorithm display name.
    pub algorithm: String,
    /// Number of jobs.
    pub jobs: usize,
    /// Nodes used by the initial allocation (Fig. 4(a)).
    pub pms_used_initial: Percentiles,
    /// Distinct nodes ever used (initial + migration targets).
    pub pms_used: Percentiles,
    /// Kill-and-restart migrations (Fig. 4(b)).
    pub migrations: Percentiles,
    /// SLO violation percentage (Fig. 8).
    pub slo_pct: Percentiles,
    /// Mean rejected jobs.
    pub mean_rejected: f64,
}

/// The full testbed sweep behind Figs. 4 and 8.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TestbedSweep {
    /// One row per (jobs, algorithm).
    pub rows: Vec<TestbedSummary>,
    /// Repeats.
    pub repeats: usize,
    /// Base seed.
    pub seed: u64,
    /// Job counts the sweep was computed with (cache-staleness guard,
    /// mirroring [`SimSweep::vms`]).
    pub jobs: Vec<usize>,
}

/// Compute (or load) the testbed sweep.
#[must_use]
pub fn testbed_sweep(args: &CliArgs) -> TestbedSweep {
    let key = format!(
        "testbed-r{}-s{}-j{}.json",
        args.repeats,
        args.seed,
        args.jobs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("_")
    );
    if !args.fresh {
        match load_cache::<TestbedSweep>(&key) {
            Some(hit)
                if hit.repeats == args.repeats
                    && hit.seed == args.seed
                    && hit.jobs == args.jobs =>
            {
                eprintln!("[cache] loaded {key} (pass --fresh to recompute)");
                return hit;
            }
            Some(_) => eprintln!("[cache] {key} is from a different configuration; recomputing"),
            None => {}
        }
    }
    let cfg = TestbedConfig::default();
    eprintln!("[testbed] building score table for the GENI node…");
    let book = Arc::new(
        cfg.score_book()
            .unwrap_or_else(|e| panic!("testbed graph build failed: {e}")),
    );
    let mut rows = Vec::new();
    for &jobs in &args.jobs {
        for algo in Algorithm::PAPER_SET {
            let t = Instant::now();
            // Repeats run one after another. Each is a pure function of
            // its seed (the node agents run in-process on the virtual
            // clock), so running them on the worker pool as
            // `prvm_sim::run_repeats` does would change only wall time.
            let outcomes: Vec<TestbedOutcome> = (0..args.repeats)
                .map(|r| {
                    let seed = args.seed.wrapping_add(r as u64);
                    let (mut placer, mut evictor) = algo.build(&book, seed);
                    run_testbed(
                        &cfg,
                        jobs,
                        placer.as_mut(),
                        evictor.as_mut(),
                        seed,
                        &FaultPlan::none(),
                    )
                })
                .collect();
            let p = |f: &dyn Fn(&TestbedOutcome) -> f64| {
                Percentiles::of(&outcomes.iter().map(f).collect::<Vec<_>>())
            };
            let row = TestbedSummary {
                algorithm: algo.name().to_string(),
                jobs,
                pms_used_initial: p(&|o| o.pms_used_initial as f64),
                pms_used: p(&|o| o.pms_used as f64),
                migrations: p(&|o| o.migrations as f64),
                slo_pct: p(&|o| o.slo_violation_pct),
                mean_rejected: outcomes.iter().map(|o| o.rejected_jobs as f64).sum::<f64>()
                    / args.repeats.max(1) as f64,
            };
            eprintln!(
                "[testbed] {:>4} jobs {:14} nodes={:4.1} migr={:7.1} slo={:5.2}% ({:.1?})",
                jobs,
                row.algorithm,
                row.pms_used.median,
                row.migrations.median,
                row.slo_pct.median,
                t.elapsed()
            );
            rows.push(row);
        }
    }
    let sweep = TestbedSweep {
        rows,
        repeats: args.repeats,
        seed: args.seed,
        jobs: args.jobs.clone(),
    };
    store_cache(&key, &sweep);
    sweep
}

/// Print one figure's table: rows = VM counts, columns = algorithms,
/// cells = `median (p1–p99)`.
///
/// # Errors
///
/// A stdout write failure other than a closed pipe ([`report_line`]).
pub fn print_metric_table(
    title: &str,
    rows: &[MetricSummary],
    trace: &str,
    metric: impl Fn(&MetricSummary) -> Percentiles,
) -> Result<(), String> {
    report_line(format_args!("\n=== {title} — {trace} trace ==="))?;
    let algos: Vec<String> = {
        let mut v: Vec<String> = rows.iter().map(|r| r.algorithm.clone()).collect();
        v.dedup();
        v.sort();
        v.dedup();
        // Keep the paper's plotting order where possible.
        let order = ["PageRankVM", "CompVM", "FFDSum", "FF"];
        let mut sorted: Vec<String> = order
            .iter()
            .filter(|o| v.iter().any(|a| a == *o))
            .map(ToString::to_string)
            .collect();
        for a in v {
            if !sorted.contains(&a) {
                sorted.push(a);
            }
        }
        sorted
    };
    let mut line = format!("{:>8}", "#VMs");
    for a in &algos {
        line += &format!(" | {a:>26}");
    }
    report_line(format_args!("{line}"))?;
    let mut ns: Vec<usize> = rows
        .iter()
        .filter(|r| r.trace == trace)
        .map(|r| r.n_vms)
        .collect();
    ns.sort_unstable();
    ns.dedup();
    for n in ns {
        let mut line = format!("{n:>8}");
        for a in &algos {
            let cell = rows
                .iter()
                .find(|r| r.trace == trace && r.n_vms == n && &r.algorithm == a)
                .map_or_else(
                    || format!("{:>26}", "-"),
                    |r| {
                        let p = metric(r);
                        if p.p99 < 10.0 {
                            format!("{:>10.2} ({:>5.2}–{:>6.2})", p.median, p.p1, p.p99)
                        } else {
                            format!("{:>10.1} ({:>5.1}–{:>6.1})", p.median, p.p1, p.p99)
                        }
                    },
                );
            line += &format!(" | {cell}");
        }
        report_line(format_args!("{line}"))?;
    }
    Ok(())
}

/// Print a testbed figure's table.
///
/// # Errors
///
/// A stdout write failure other than a closed pipe ([`report_line`]).
pub fn print_testbed_table(
    title: &str,
    rows: &[TestbedSummary],
    metric: impl Fn(&TestbedSummary) -> Percentiles,
) -> Result<(), String> {
    report_line(format_args!(
        "\n=== {title} — GENI testbed emulation (Google trace) ==="
    ))?;
    let order = ["PageRankVM", "CompVM", "FFDSum", "FF"];
    let mut line = format!("{:>8}", "#VMs");
    for a in order {
        line += &format!(" | {a:>22}");
    }
    report_line(format_args!("{line}"))?;
    let mut js: Vec<usize> = rows.iter().map(|r| r.jobs).collect();
    js.sort_unstable();
    js.dedup();
    for j in js {
        let mut line = format!("{j:>8}");
        for a in order {
            let cell = rows
                .iter()
                .find(|r| r.jobs == j && r.algorithm == a)
                .map_or_else(
                    || format!("{:>22}", "-"),
                    |r| {
                        let p = metric(r);
                        format!("{:>8.1} ({:>4.1}–{:>5.1})", p.median, p.p1, p.p99)
                    },
                );
            line += &format!(" | {cell}");
        }
        report_line(format_args!("{line}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose reader has gone, or that fails some other way.
    struct Failing(std::io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn report_line_treats_a_closed_stdout_as_success() {
        let mut closed = Failing(ErrorKind::BrokenPipe);
        assert_eq!(write_report(&mut closed, format_args!("{}", 1)), Ok(()));
        let mut full = Failing(ErrorKind::StorageFull);
        let err = write_report(&mut full, format_args!("x")).unwrap_err();
        assert!(err.contains("cannot write to stdout"), "{err}");
        let mut buf = Vec::new();
        write_report(&mut buf, format_args!("a {}\n", 2)).unwrap();
        assert_eq!(buf, b"a 2\n");
    }

    #[test]
    fn cli_defaults() {
        let a = CliArgs::try_parse(std::iter::empty()).unwrap();
        assert_eq!(a, CliArgs::default());
    }

    #[test]
    fn cli_parses_flags() {
        let a = CliArgs::try_parse(
            ["--repeats", "9", "--seed", "7", "--vms", "10,20", "--fresh"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(a.repeats, 9);
        assert_eq!(a.seed, 7);
        assert_eq!(a.vms, vec![10, 20]);
        assert!(a.fresh);
    }

    #[test]
    fn cli_rejects_malformed_flags() {
        let err = CliArgs::try_parse(["--bogus".to_string()]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        let err = CliArgs::try_parse(["--vms".to_string()]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err = CliArgs::try_parse(["--vms".to_string(), "1,x".to_string()]).unwrap_err();
        assert!(err.contains("not a count"), "{err}");
        let err = CliArgs::try_parse(["--seed".to_string(), "abc".to_string()]).unwrap_err();
        assert!(err.contains("integer"), "{err}");
    }

    /// Zero repeats would reach an empty percentile summary; zero, empty
    /// or repeated VM / job counts are malformed sweeps. All are usage
    /// errors, caught before any work starts.
    #[test]
    fn cli_rejects_zero_empty_and_repeated_counts() {
        let parse = |flag: &str, value: &str| {
            CliArgs::try_parse([flag.to_string(), value.to_string()]).unwrap_err()
        };
        for (flag, value, want) in [
            ("--repeats", "0", "positive"),
            ("--repeats", "-1", "not a count"),
            ("--vms", "10,0", "positive"),
            ("--vms", "", "not a count"),
            ("--jobs", "10,10", "distinct"),
        ] {
            let err = parse(flag, value);
            assert!(
                err.contains(want) && err.contains("usage:"),
                "{flag} {value}: {err}"
            );
        }
    }

    #[test]
    fn cache_round_trip() {
        let sweep = TestbedSweep {
            rows: vec![],
            repeats: 1,
            seed: 2,
            jobs: vec![10, 20],
        };
        store_cache("test-roundtrip.json", &sweep);
        let back: TestbedSweep = load_cache("test-roundtrip.json").unwrap();
        assert_eq!(back.repeats, 1);
        assert_eq!(back.seed, 2);
        assert_eq!(back.jobs, vec![10, 20]);
    }

    /// A cache file whose *contents* disagree with the requested
    /// configuration must not be reused — the header fields are the
    /// guard, not the file name.
    #[test]
    fn stale_cache_header_is_detected() {
        let stale = SimSweep {
            rows: vec![],
            repeats: 3,
            seed: 9,
            vms: vec![10],
        };
        store_cache("test-stale-header.json", &stale);
        let back: SimSweep = load_cache("test-stale-header.json").unwrap();
        let want = CliArgs {
            repeats: 5,
            ..CliArgs::default()
        };
        assert!(
            back.repeats != want.repeats || back.seed != want.seed || back.vms != want.vms,
            "header mismatch must be observable so sim_sweep recomputes"
        );
    }
}
