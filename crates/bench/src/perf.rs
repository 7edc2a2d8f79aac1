//! The `pagerankvm bench` perf harness, the workspace's one in-process
//! timing harness: times graph build, PageRank convergence, the score
//! book's refresh by a catalog delta, batch placement, single `choose` calls,
//! cold-start placement and one simulated day across VM counts and
//! worker counts, and writes the machine-readable `BENCH_PRVM.json`
//! report (schema [`PERF_SCHEMA`]).
//!
//! Thread counts change **wall-clock only**: the deterministic pool
//! contract (DESIGN.md §10) guarantees bit-identical results at every
//! worker count, and the harness re-checks that across the thread list
//! (graph node/edge counts, PageRank iterations and score bits,
//! placement PM counts, `choose` decisions, and the simulated day's
//! outcome and dispatched-event count). Each stage sets the width with
//! [`prvm_par::set_global_threads`]. Reported speedups are
//! relative to the first (smallest) thread count in `--threads`, which
//! defaults to 1.

use pagerankvm::{
    pagerank, GraphLimits, PageRankConfig, PageRankResult, PageRankVmPlacer, ProfileGraph,
    ProfileSpace, ProfileVm, ScoreBook,
};
use prvm_baselines::{FirstFit, MinimumMigrationTime};
use prvm_model::{catalog, place_batch, Cluster, PlacementAlgorithm, Quantizer, VmSpec};
use prvm_obs::Span;
use prvm_sim::{build_cluster, FaultPlan, Scenario, SimConfig, Workload, WorkloadConfig};
use prvm_traces::stats::percentile;
use prvm_traces::TraceKind;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Schema tag stamped into every report; bump when the shape changes.
pub const PERF_SCHEMA: &str = "prvm-bench-perf/v2";

/// The stage names a valid report may contain, in pipeline order.
/// `full_rebuild` and `incremental` time a catalog delta at the
/// score-book level (DESIGN.md §15): a cold `ScoreBook::build` of the
/// merged catalog versus `ScoreBook::extend` from a prebuilt base book
/// (aliased graph + warm-started PageRank). `choose` times
/// batches of one `choose` per EC2 VM type, each by a fresh placer, on
/// the cluster `placement` left behind; `event_sim` is one simulated day
/// of the FF + MMT scenario under every fault class.
pub const STAGES: [&str; 8] = [
    "graph_build",
    "pagerank",
    "full_rebuild",
    "incremental",
    "placement",
    "choose",
    "end_to_end",
    "event_sim",
];

/// Command-line options of `pagerankvm bench`.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct PerfArgs {
    /// VM counts for the placement stages (paper scale: 1000–3000).
    pub vms: Vec<usize>,
    /// Worker counts to sweep; the first entry is the speedup baseline.
    pub threads: Vec<usize>,
    /// Timed repeats per configuration (median/p95 are over these).
    pub repeats: usize,
    /// Base seed recorded in the report (workloads are derived from it).
    pub seed: u64,
    /// Output path for the JSON report.
    pub out: PathBuf,
    /// When set, skip measuring: load this report, validate it, exit.
    pub check: Option<PathBuf>,
    /// When set, compare a fresh run against this baseline report and
    /// fail (non-zero exit) if any overlapping cell's median regresses
    /// more than [`PerfArgs::gate_threshold`]. Gate runs never write
    /// `--out`, so the committed baseline cannot be clobbered.
    pub gate: Option<PathBuf>,
    /// Allowed relative regression for `--gate` (0.15 = 15%).
    pub gate_threshold: f64,
    /// When set, record a per-worker span timeline for the whole sweep
    /// and write it to this path as Chrome trace-event JSON.
    pub trace: Option<PathBuf>,
    /// When set, skip measuring: parse this trace-event JSON file,
    /// schema-validate it, exit. (The CI trace-smoke job's checker.)
    pub check_trace: Option<PathBuf>,
    /// Profile-space resolution (not CLI-exposed; tests coarsen it to
    /// keep debug-build runs quick).
    pub quantizer: Quantizer,
}

impl Default for PerfArgs {
    fn default() -> Self {
        Self {
            vms: vec![1000, 2000, 3000],
            threads: vec![1, 2, 4],
            repeats: 3,
            seed: 42,
            out: PathBuf::from("BENCH_PRVM.json"),
            check: None,
            gate: None,
            gate_threshold: 0.15,
            trace: None,
            check_trace: None,
            quantizer: Quantizer::default(),
        }
    }
}

impl PerfArgs {
    /// Parse `--vms a,b,c`, `--threads a,b,c`, `--repeats N`, `--seed N`,
    /// `--out FILE`, `--check FILE`, `--gate FILE`,
    /// `--gate-threshold X`, `--trace FILE` and `--check-trace FILE`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags, missing values,
    /// unparseable numbers, or empty/zero lists.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let usage = "usage: bench [--vms a,b,c] [--threads a,b,c] [--repeats N] [--seed N] \
                     [--out FILE] [--check FILE] [--gate FILE] [--gate-threshold X] \
                     [--trace FILE] [--check-trace FILE]";
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .ok_or_else(|| format!("{name} needs a value; {usage}"))
            };
            match flag.as_str() {
                "--vms" => out.vms = crate::parse_counts(&value("--vms")?, usage)?,
                "--threads" => out.threads = crate::parse_counts(&value("--threads")?, usage)?,
                "--repeats" => out.repeats = crate::parse_count(&value("--repeats")?, usage)?,
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|_| format!("--seed wants an integer; {usage}"))?;
                }
                "--out" => out.out = PathBuf::from(value("--out")?),
                "--check" => out.check = Some(PathBuf::from(value("--check")?)),
                "--gate" => out.gate = Some(PathBuf::from(value("--gate")?)),
                "--gate-threshold" => {
                    out.gate_threshold = value("--gate-threshold")?
                        .parse()
                        .map_err(|_| format!("--gate-threshold wants a number; {usage}"))?;
                    if !(out.gate_threshold.is_finite() && out.gate_threshold > 0.0) {
                        return Err(format!("--gate-threshold must be positive; {usage}"));
                    }
                }
                "--trace" => out.trace = Some(PathBuf::from(value("--trace")?)),
                "--check-trace" => out.check_trace = Some(PathBuf::from(value("--check-trace")?)),
                other => return Err(format!("unknown flag {other}; {usage}")),
            }
        }
        Ok(out)
    }
}

/// One measured (stage, vms, threads) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageRow {
    /// Stage name, one of [`STAGES`].
    pub stage: String,
    /// VM count, or 0 for stages independent of it (graph/PageRank).
    pub vms: usize,
    /// Worker count the stage ran with.
    pub threads: usize,
    /// Nearest-rank median wall-clock over the repeats, milliseconds.
    pub median_ms: f64,
    /// Nearest-rank 95th-percentile wall-clock, milliseconds.
    pub p95_ms: f64,
    /// `median(baseline threads) / median(this row)`; 1.0 on the
    /// baseline row itself. The baseline is the first `--threads` entry.
    pub speedup_vs_1t: f64,
    /// Profile-graph node count the stage operated on (0 if n/a).
    pub graph_nodes: usize,
    /// Profile-graph edge count the stage operated on (0 if n/a).
    pub graph_edges: usize,
}

/// The full `BENCH_PRVM.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Always [`PERF_SCHEMA`] for reports this crate writes.
    pub schema: String,
    /// Base seed the sweep ran with.
    pub seed: u64,
    /// Repeats per cell.
    pub repeats: usize,
    /// `std::thread::available_parallelism` on the measuring host —
    /// speedups above this are not expected.
    pub host_threads: usize,
    /// The `--threads` sweep list; the first entry is the baseline.
    pub thread_counts: Vec<usize>,
    /// One row per measured cell.
    pub rows: Vec<StageRow>,
}

impl PerfReport {
    /// Structural validation used by `--check` and the CI smoke job.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a message.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != PERF_SCHEMA {
            return Err(format!(
                "schema {:?} != expected {PERF_SCHEMA:?}",
                self.schema
            ));
        }
        if self.repeats == 0 {
            return Err("repeats must be positive".into());
        }
        if self.host_threads == 0 {
            return Err("host_threads must be positive".into());
        }
        if self.thread_counts.is_empty() || self.thread_counts.contains(&0) {
            return Err("thread_counts must be non-empty and positive".into());
        }
        if self.rows.is_empty() {
            return Err("report has no rows".into());
        }
        for (i, row) in self.rows.iter().enumerate() {
            let at = |msg: &str| format!("row {i} ({}/{}t): {msg}", row.stage, row.threads);
            if !STAGES.contains(&row.stage.as_str()) {
                return Err(at(&format!("unknown stage {:?}", row.stage)));
            }
            if !self.thread_counts.contains(&row.threads) {
                return Err(at("threads not in thread_counts"));
            }
            if !(row.median_ms.is_finite() && row.median_ms >= 0.0) {
                return Err(at("median_ms must be finite and non-negative"));
            }
            if !(row.p95_ms.is_finite() && row.p95_ms >= row.median_ms) {
                return Err(at("p95_ms must be finite and >= median_ms"));
            }
            if !(row.speedup_vs_1t.is_finite() && row.speedup_vs_1t > 0.0) {
                return Err(at("speedup_vs_1t must be finite and positive"));
            }
            let graph_stage = is_graph_stage(&row.stage);
            if graph_stage && row.graph_nodes == 0 {
                return Err(at("graph stages must record node counts"));
            }
            if graph_stage != (row.vms == 0) {
                return Err(at("vms must be 0 exactly for graph/PageRank stages"));
            }
        }
        for stage in STAGES {
            if !self.rows.iter().any(|r| r.stage == stage) {
                return Err(format!("stage {stage:?} missing from report"));
            }
        }
        // The sweep is a full matrix: exactly one row per (graph stage,
        // width) and per (placement stage, VM count, width).
        let mut vm_counts: Vec<usize> =
            self.rows.iter().map(|r| r.vms).filter(|&n| n > 0).collect();
        vm_counts.sort_unstable();
        vm_counts.dedup();
        for stage in STAGES {
            let stage_vms: &[usize] = if is_graph_stage(stage) {
                &[0]
            } else {
                &vm_counts
            };
            for &vms in stage_vms {
                for &threads in &self.thread_counts {
                    let rows = self
                        .rows
                        .iter()
                        .filter(|r| r.stage == stage && r.vms == vms && r.threads == threads)
                        .count();
                    if rows != 1 {
                        return Err(format!(
                            "{rows} rows for {stage} vms={vms} threads={threads}; want exactly 1"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Write this report's fields as pretty JSON to `path`. Every other
    /// top-level key of an existing JSON object there (the
    /// `serve_loadgen` cell) is kept; see [`crate::merge_json_keys`].
    ///
    /// # Errors
    ///
    /// Reports serialization or filesystem failures as a message, and
    /// refuses to overwrite a file that holds JSON other than an object.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let serde::Value::Object(fields) = serde::Serialize::to_value(self) else {
            return Err("a perf report must serialize to a JSON object".into());
        };
        crate::merge_json_keys(path, fields)
    }

    /// Load a report from `path` and [`Self::validate`] it.
    ///
    /// # Errors
    ///
    /// Reports filesystem, JSON or validation failures as a message.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let report: Self = serde_json::from_slice(&bytes)
            .map_err(|e| format!("{} is not a perf report: {e}", path.display()))?;
        report.validate()?;
        Ok(report)
    }
}

/// Graph/PageRank stages are VM-count independent (`vms` is 0).
pub(crate) fn is_graph_stage(stage: &str) -> bool {
    matches!(
        stage,
        "graph_build" | "pagerank" | "full_rebuild" | "incremental"
    )
}

/// Medians below this floor are clamped before computing gate ratios:
/// at sub-tick durations the ratio is timer noise, not a regression.
pub const GATE_FLOOR_MS: f64 = 0.05;

/// Batches of one `choose` per EC2 VM type in one timed `choose` sample,
/// each by a fresh placer: enough to lift the cell well clear of
/// [`GATE_FLOOR_MS`].
const CHOOSE_ROUNDS: usize = 64;

/// One compared `(stage, vms, threads)` cell of a `--gate` run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GateRow {
    /// Stage name, one of [`STAGES`].
    pub stage: String,
    /// VM count of the cell (0 for graph/PageRank stages).
    pub vms: usize,
    /// Worker count of the cell.
    pub threads: usize,
    /// Baseline median, milliseconds.
    pub baseline_ms: f64,
    /// Fresh-run median, milliseconds.
    pub fresh_ms: f64,
    /// `fresh / baseline` after clamping both to [`GATE_FLOOR_MS`].
    pub ratio: f64,
    /// True when `ratio` exceeds `1 + threshold`.
    pub regressed: bool,
}

/// Compare a fresh report against a baseline, cell by cell. Cells are
/// matched on `(stage, vms, threads)`; cells present in only one of
/// the two reports are skipped (the grids may legitimately differ —
/// CI gates on a small grid against a small-grid baseline).
///
/// # Errors
///
/// Fails when `threshold` is not positive or when the two reports
/// share no cells at all (gating against an unrelated grid would
/// otherwise silently pass).
pub fn gate_compare(
    baseline: &PerfReport,
    fresh: &PerfReport,
    threshold: f64,
) -> Result<Vec<GateRow>, String> {
    if !(threshold.is_finite() && threshold > 0.0) {
        return Err(format!("gate threshold must be positive, got {threshold}"));
    }
    let mut rows = Vec::new();
    for row in &fresh.rows {
        let Some(base) = baseline
            .rows
            .iter()
            .find(|b| b.stage == row.stage && b.vms == row.vms && b.threads == row.threads)
        else {
            continue;
        };
        let ratio = row.median_ms.max(GATE_FLOOR_MS) / base.median_ms.max(GATE_FLOOR_MS);
        rows.push(GateRow {
            stage: row.stage.clone(),
            vms: row.vms,
            threads: row.threads,
            baseline_ms: base.median_ms,
            fresh_ms: row.median_ms,
            ratio,
            regressed: ratio > 1.0 + threshold,
        });
    }
    if rows.is_empty() {
        return Err(
            "no overlapping (stage, vms, threads) cells between baseline and fresh run".into(),
        );
    }
    Ok(rows)
}

fn summarize(mut samples_ms: Vec<f64>) -> (f64, f64) {
    samples_ms.sort_by(f64::total_cmp);
    (percentile(&samples_ms, 0.5), percentile(&samples_ms, 0.95))
}

/// The m3 profile space + quantized VM demands the graph stages measure
/// (the larger of the two EC2 PM types in Table I).
fn m3_inputs(quantizer: &Quantizer) -> (ProfileSpace, Vec<ProfileVm>) {
    let pm = catalog::pm_m3();
    let space = ProfileSpace::from_quantized_pm(&quantizer.quantize_pm(&pm));
    let vms = catalog::ec2_vm_types()
        .iter()
        .filter_map(|v| space.vm_demand(&quantizer.quantize_vm(v, &pm)))
        .collect();
    (space, vms)
}

/// The catalog delta of the `full_rebuild`/`incremental` stages: a
/// next-generation refresh of `m3.2xlarge` (same quantized footprint,
/// new name) — the common "new instance generation" catalog event.
/// It repeats a known footprint, so `extend` aliases the base graph
/// and the warm-started PageRank re-converges in 2–3 sweeps; a
/// structural delta builds the merged graph cold and costs about a
/// full rebuild (see EXPERIMENTS.md).
fn catalog_delta() -> prvm_model::VmSpec {
    prvm_model::VmSpec::new(
        "m3.2xlarge.g2",
        8,
        prvm_model::Mhz::from_ghz(0.6),
        prvm_model::MemMib::from_gib(30.0),
        vec![prvm_model::DiskGb(80), prvm_model::DiskGb(80)],
    )
}

fn build_book(quantizer: Quantizer, config: &PageRankConfig) -> Result<ScoreBook, String> {
    ScoreBook::build(
        quantizer,
        &catalog::ec2_pm_types(),
        &catalog::ec2_vm_types(),
        config,
        GraphLimits::default(),
    )
    .map_err(|e| format!("score book build failed: {e}"))
}

/// Deterministic placement batch: the EC2 catalog VM types cycled
/// round-robin, rotated by `seed` so different seeds start the cycle at
/// different types. No RNG: the batch depends only on `(n, seed)`.
fn request_batch(n: usize, seed: u64) -> Vec<VmSpec> {
    let types = catalog::ec2_vm_types();
    let offset = (seed % types.len() as u64) as usize;
    (0..n)
        .map(|i| types[(i + offset) % types.len()].clone())
        .collect()
}

/// Call `run` once untimed, to warm up, then `repeats` times more; hand
/// back the last call's value with the median and p95 of the timed
/// calls' milliseconds. The warm-up takes the cold allocations and
/// caches that would otherwise land on a cell's first sample.
fn measure<R>(repeats: usize, mut run: impl FnMut() -> (R, f64)) -> (R, f64, f64) {
    let mut samples = Vec::with_capacity(repeats);
    let (mut last, _) = run();
    for _ in 0..repeats {
        let (value, ms) = run();
        samples.push(ms);
        last = value;
    }
    let (median, p95) = summarize(samples);
    (last, median, p95)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Keep the baseline width's `value` as the reference, or fail when a
/// later width's `value` differs from it: no result may depend on the
/// worker count.
fn same_at_every_width<T: PartialEq + std::fmt::Debug>(
    reference: &mut Option<T>,
    value: T,
    what: &str,
    threads: usize,
) -> Result<(), String> {
    match reference {
        Some(expected) if *expected != value => Err(format!(
            "determinism violation: {what} at {threads} threads: {value:?}, \
             against {expected:?} at the baseline width"
        )),
        Some(_) => Ok(()),
        None => {
            *reference = Some(value);
            Ok(())
        }
    }
}

/// Run the sweep described by `args` and assemble the report (without
/// writing it). Progress lines go to stderr.
///
/// # Errors
///
/// Fails if the EC2 catalog graphs cannot be built, a placement run
/// rejects a VM, a simulated day fails, or a result differs between
/// worker counts — each indicates a bug, not a tuning problem.
pub fn run(args: &PerfArgs) -> Result<PerfReport, String> {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let baseline_threads = *args.threads.first().ok_or("--threads must be non-empty")?;
    let mut sweep = Sweep {
        baseline_threads,
        rows: Vec::new(),
    };
    let (space, vm_types) = m3_inputs(&args.quantizer);

    // Stage 1: profile-graph construction (m3 space, EC2 VM set). The
    // graph must have the same shape at every width.
    let mut reference_graph: Option<ProfileGraph> = None;
    let mut reference_shape = None;
    for &threads in &args.threads {
        prvm_par::set_global_threads(threads);
        let (graph, median, p95) = measure(args.repeats, || {
            let (built, t) = Span::timed("bench.graph_build", || {
                ProfileGraph::build(space.clone(), vm_types.clone(), GraphLimits::default())
            });
            (built, ms(t))
        });
        let graph = graph.map_err(|e| format!("graph build failed: {e}"))?;
        let shape = (graph.node_count(), graph.edge_count());
        same_at_every_width(&mut reference_shape, shape, "graph (nodes, edges)", threads)?;
        sweep.push("graph_build", 0, threads, (median, p95), shape);
        reference_graph.get_or_insert(graph);
    }
    let graph = reference_graph.ok_or("no thread counts to sweep")?;
    let shape = (graph.node_count(), graph.edge_count());

    // Stage 2: PageRank convergence on that graph; iterations and score
    // bits must match at every width.
    let config = PageRankConfig::default();
    let mut reference_pr: Option<PageRankResult> = None;
    for &threads in &args.threads {
        prvm_par::set_global_threads(threads);
        let (result, median, p95) = measure(args.repeats, || {
            let (pr, t) = Span::timed("bench.pagerank", || pagerank(&graph, &config));
            (pr, ms(t))
        });
        if !result.converged {
            return Err(format!(
                "PageRank did not converge in {} iterations",
                result.iterations
            ));
        }
        if let Some(expected) = &reference_pr {
            let bits =
                |r: &PageRankResult| -> Vec<u64> { r.scores.iter().map(|s| s.to_bits()).collect() };
            if result.iterations != expected.iterations || bits(&result) != bits(expected) {
                return Err(format!(
                    "determinism violation: PageRank at {threads} threads ({} iterations) \
                     differs from {baseline_threads} threads ({} iterations)",
                    result.iterations, expected.iterations
                ));
            }
        }
        sweep.push("pagerank", 0, threads, (median, p95), shape);
        reference_pr.get_or_insert(result);
    }

    // Stages 3–4: a catalog delta (DESIGN.md §15). Both
    // stages work at the score-book level and are VM-count independent
    // (vms = 0). The scenario: a live deployment's catalog gains
    // [`catalog_delta`], a next-generation refresh of an existing
    // instance type. `full_rebuild` is the cost of a cold
    // `ScoreBook::build` of the merged catalog; `incremental` is
    // `ScoreBook::extend` (aliased graph + warm-started PageRank)
    // from the base book. The base book is built once,
    // untimed — the determinism contract makes the worker width
    // irrelevant to its contents.
    let pm_types = catalog::ec2_pm_types();
    let base_vm_specs = catalog::ec2_vm_types();
    let delta_vm_specs = vec![catalog_delta()];
    let merged_vm_specs: Vec<VmSpec> = base_vm_specs
        .iter()
        .chain(delta_vm_specs.iter())
        .cloned()
        .collect();
    eprintln!("[bench] building base score book (full EC2 catalog)…");
    let base_book = ScoreBook::build(
        args.quantizer,
        &pm_types,
        &base_vm_specs,
        &config,
        GraphLimits::default(),
    )
    .map_err(|e| format!("base score book build failed: {e}"))?;

    for &threads in &args.threads {
        prvm_par::set_global_threads(threads);
        let (built, median, p95) = measure(args.repeats, || {
            let (b, t) = Span::timed("bench.full_rebuild", || {
                ScoreBook::build(
                    args.quantizer,
                    &pm_types,
                    &merged_vm_specs,
                    &config,
                    GraphLimits::default(),
                )
            });
            (b, ms(t))
        });
        let built = built.map_err(|e| format!("full rebuild failed: {e}"))?;
        sweep.push(
            "full_rebuild",
            0,
            threads,
            (median, p95),
            book_shape(&built),
        );
    }

    for &threads in &args.threads {
        prvm_par::set_global_threads(threads);
        let (extended, median, p95) = measure(args.repeats, || {
            let (b, t) = Span::timed("bench.incremental", || {
                base_book.extend(&delta_vm_specs, &config, GraphLimits::default())
            });
            (b, ms(t))
        });
        let extended = extended.map_err(|e| format!("incremental extend failed: {e}"))?;
        if threads == baseline_threads && median > 0.0 {
            eprintln!(
                "[bench] incremental vs full rebuild: {:.2}x cheaper",
                sweep.baseline_ms("full_rebuild", 0).unwrap_or(0.0) / median
            );
        }
        sweep.push(
            "incremental",
            0,
            threads,
            (median, p95),
            book_shape(&extended),
        );
    }
    prvm_par::set_global_threads(0);

    // Shared score book for the placement-only stage (built once; the
    // determinism contract makes the worker width irrelevant to results).
    eprintln!("[bench] building shared score book…");
    let book = std::sync::Arc::new(build_book(args.quantizer, &config)?);
    let book_shape = book_shape(&book);
    let catalog_vms = catalog::ec2_vm_types();
    let sim = SimConfig::default();
    // The `all` preset schedules every kernel event class: arrivals, a
    // crash and its recovery, evacuation sweeps, scans and samples.
    let scenario = Scenario {
        faults: FaultPlan::preset("all", sim.scans(), 77).ok_or("no `all` fault preset")?,
        ..Scenario::default()
    };

    for &n in &args.vms {
        let requests = request_batch(n, args.seed);

        // Stage 5: Algorithm 2 over a prebuilt book. Placement itself is
        // sequential, so this doubles as a determinism check: the PM count
        // must match across every thread count.
        let mut reference_pms = None;
        let mut placed = None;
        for &threads in &args.threads {
            prvm_par::set_global_threads(threads);
            let (cluster, median, p95) = measure(args.repeats, || {
                let mut cluster = Cluster::homogeneous(catalog::pm_m3(), n);
                let mut placer = PageRankVmPlacer::new(book.clone());
                let (result, t) = Span::timed("bench.placement", || {
                    place_batch(&mut placer, &mut cluster, requests.clone())
                });
                (result.map(|_| cluster), ms(t))
            });
            let cluster = cluster.map_err(|e| format!("placement of {n} VMs failed: {e:?}"))?;
            let (pms_used, what) = (cluster.active_pm_count(), format!("PMs used by {n} VMs"));
            same_at_every_width(&mut reference_pms, pms_used, &what, threads)?;
            sweep.push("placement", n, threads, (median, p95), book_shape);
            placed.get_or_insert(cluster);
        }
        let placed = placed.ok_or("no thread counts to sweep")?;

        // Stage 6: one `choose` per EC2 VM type on the cluster placement
        // left, by a fresh placer, placing nothing. One such batch takes
        // ~0.05 ms, at the gate's floor, so a timed sample is
        // `CHOOSE_ROUNDS` batches, each with its own fresh placer.
        eprintln!(
            "[bench] choose on the {n}-VM cluster: {} PMs used",
            placed.active_pm_count()
        );
        let mut reference_decisions = None;
        for &threads in &args.threads {
            prvm_par::set_global_threads(threads);
            let (decisions, median, p95) = measure(args.repeats, || {
                let mut placers: Vec<_> = (0..CHOOSE_ROUNDS)
                    .map(|_| PageRankVmPlacer::new(book.clone()))
                    .collect();
                let (decisions, t) = Span::timed("bench.choose", || {
                    let mut decisions = None;
                    for placer in &mut placers {
                        decisions = catalog_vms
                            .iter()
                            .map(|vm| placer.choose(&placed, vm, &|_| false))
                            .collect::<Option<Vec<_>>>();
                    }
                    decisions
                });
                (decisions, ms(t))
            });
            let decisions =
                decisions.ok_or_else(|| format!("choose found no PM on the {n}-VM cluster"))?;
            let what = format!("the choose decisions on the {n}-VM cluster");
            same_at_every_width(&mut reference_decisions, decisions, &what, threads)?;
            sweep.push("choose", n, threads, (median, p95), book_shape);
        }

        // Stage 7: cold start — score book (graph + PageRank + BPRU, the
        // parallel part) plus the full placement batch.
        for &threads in &args.threads {
            prvm_par::set_global_threads(threads);
            let (outcome, median, p95) = measure(args.repeats, || {
                let (result, t) = Span::timed("bench.end_to_end", || -> Result<usize, String> {
                    let book = std::sync::Arc::new(build_book(args.quantizer, &config)?);
                    let mut cluster = Cluster::homogeneous(catalog::pm_m3(), n);
                    let mut placer = PageRankVmPlacer::new(book);
                    place_batch(&mut placer, &mut cluster, requests.clone())
                        .map_err(|e| format!("placement rejected a VM: {e:?}"))?;
                    Ok(cluster.active_pm_count())
                });
                (result, ms(t))
            });
            outcome.map_err(|e| format!("end-to-end run of {n} VMs failed: {e}"))?;
            sweep.push("end_to_end", n, threads, (median, p95), book_shape);
        }

        // Stage 8: one simulated day, FF + MMT on a PlanetLab workload
        // sized for n VMs, under every fault class. The dispatched-event
        // count depends on the scan count, not on n, so this is the
        // per-day cost of the scenario, not an event rate.
        let wl = WorkloadConfig::sized_for(n, TraceKind::PlanetLab);
        let workload = Workload::generate(&wl, sim.scans(), args.seed);
        let mut reference_day = None;
        for &threads in &args.threads {
            prvm_par::set_global_threads(threads);
            let (day, median, p95) = measure(args.repeats, || {
                let cluster = build_cluster(&wl);
                let (mut placer, mut evictor) = (FirstFit::new(), MinimumMigrationTime::new());
                let (day, t) = Span::timed("bench.event_sim", || {
                    scenario.run(&sim, cluster, &workload, &mut placer, &mut evictor)
                });
                (day, ms(t))
            });
            let day = day.map_err(|e| format!("simulated day of {n} VMs failed: {e}"))?;
            let dispatched = day.stats.dispatched;
            if reference_day.is_none() {
                eprintln!("[bench] event_sim vms={n}: {dispatched} events dispatched per day");
            }
            let what = format!("the simulated day of {n} VMs (outcome, dispatched events)");
            same_at_every_width(
                &mut reference_day,
                (day.outcome, dispatched),
                &what,
                threads,
            )?;
            sweep.push("event_sim", n, threads, (median, p95), (0, 0));
        }
    }
    prvm_par::set_global_threads(0);

    Ok(PerfReport {
        schema: PERF_SCHEMA.to_string(),
        seed: args.seed,
        repeats: args.repeats,
        host_threads,
        thread_counts: args.threads.clone(),
        rows: sweep.rows,
    })
}

/// The rows of a sweep in progress. Speedups are taken against the row
/// of the same `(stage, vms)` cell at the baseline width, which the
/// sweep always measures first.
struct Sweep {
    baseline_threads: usize,
    rows: Vec<StageRow>,
}

impl Sweep {
    /// Median of the `(stage, vms)` cell at the baseline width, once
    /// measured.
    fn baseline_ms(&self, stage: &str, vms: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.stage == stage && r.vms == vms && r.threads == self.baseline_threads)
            .map(|r| r.median_ms)
    }

    /// Record one cell (with its progress line on stderr); `shape` is
    /// the graph `(nodes, edges)` the stage worked on.
    fn push(
        &mut self,
        stage: &str,
        vms: usize,
        threads: usize,
        (median_ms, p95_ms): (f64, f64),
        (graph_nodes, graph_edges): (usize, usize),
    ) {
        let baseline_ms = self.baseline_ms(stage, vms).unwrap_or(median_ms);
        let speedup = if median_ms > 0.0 && baseline_ms > 0.0 {
            baseline_ms / median_ms
        } else {
            1.0
        };
        eprintln!(
            "[bench] {stage:<11} vms={vms:<5} threads={threads} \
             median={median_ms:9.2}ms p95={p95_ms:9.2}ms speedup={speedup:5.2}x"
        );
        self.rows.push(StageRow {
            stage: stage.to_string(),
            vms,
            threads,
            median_ms,
            p95_ms,
            speedup_vs_1t: speedup,
            graph_nodes,
            graph_edges,
        });
    }
}

/// Total `(nodes, edges)` over every table of a book.
fn book_shape(book: &ScoreBook) -> (usize, usize) {
    book.tables().fold((0, 0), |(n, e), (_, t)| {
        (n + t.graph().node_count(), e + t.graph().edge_count())
    })
}

/// [`run`], optionally bracketed by a [`prvm_obs::TraceSink`] when
/// `--trace` asked for a Chrome trace of the sweep.
fn run_traced(args: &PerfArgs) -> Result<PerfReport, String> {
    let Some(trace_path) = &args.trace else {
        return run(args);
    };
    let sink = prvm_obs::TraceSink::start(trace_path);
    let report = run(args);
    let stats = sink.finish()?;
    eprintln!(
        "[bench] trace: {} interval(s) across {} worker track(s) -> {}",
        stats.intervals,
        stats.worker_tracks,
        trace_path.display()
    );
    report
}

/// Full CLI entry: `--check` / `--check-trace` validation modes, the
/// `--gate` regression comparison, or measure + validate + write.
///
/// # Errors
///
/// Propagates measurement, validation, gate-regression and I/O
/// failures as messages (the CLI turns them into a non-zero exit).
pub fn main_with(args: &PerfArgs) -> Result<(), String> {
    if let Some(path) = &args.check {
        let report = PerfReport::load(path)?;
        crate::report_line(format_args!(
            "{}: valid {} report ({} rows, seed {}, {} repeats)",
            path.display(),
            report.schema,
            report.rows.len(),
            report.seed,
            report.repeats
        ))?;
        return Ok(());
    }
    if let Some(path) = &args.check_trace {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value: serde::Value = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not JSON: {e:?}", path.display()))?;
        let stats = prvm_obs::validate_chrome_trace(&value)
            .map_err(|e| format!("{}: invalid trace: {e}", path.display()))?;
        crate::report_line(format_args!(
            "{}: valid trace ({} interval(s), {} worker track(s))",
            path.display(),
            stats.intervals,
            stats.worker_tracks
        ))?;
        return Ok(());
    }
    if let Some(baseline_path) = &args.gate {
        let baseline = PerfReport::load(baseline_path)?;
        let fresh = run_traced(args)?;
        fresh.validate()?;
        let rows = gate_compare(&baseline, &fresh, args.gate_threshold)?;
        let mut regressed = 0usize;
        for row in &rows {
            let verdict = if row.regressed { "REGRESSED" } else { "ok" };
            crate::report_line(format_args!(
                "[gate] {:<11} vms={:<5} threads={} baseline={:9.2}ms fresh={:9.2}ms \
                 ratio={:5.2} {verdict}",
                row.stage, row.vms, row.threads, row.baseline_ms, row.fresh_ms, row.ratio
            ))?;
            regressed += usize::from(row.regressed);
        }
        if regressed > 0 {
            return Err(format!(
                "perf gate failed: {regressed}/{} cell(s) regressed more than {:.0}% vs {}",
                rows.len(),
                args.gate_threshold * 100.0,
                baseline_path.display()
            ));
        }
        crate::report_line(format_args!(
            "perf gate passed: {} cell(s) within {:.0}% of {}",
            rows.len(),
            args.gate_threshold * 100.0,
            baseline_path.display()
        ))?;
        // Gate runs never write --out: the default out path is the
        // committed baseline itself.
        return Ok(());
    }
    let report = run_traced(args)?;
    report.validate()?;
    report.write(&args.out)?;
    crate::report_line(format_args!(
        "wrote {} ({} rows; host has {} hardware thread(s))",
        args.out.display(),
        report.rows.len(),
        report.host_threads
    ))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PerfReport {
        let mk = |stage: &str, vms: usize, nodes: usize| StageRow {
            stage: stage.to_string(),
            vms,
            threads: 1,
            median_ms: 2.0,
            p95_ms: 3.0,
            speedup_vs_1t: 1.0,
            graph_nodes: nodes,
            graph_edges: nodes * 2,
        };
        PerfReport {
            schema: PERF_SCHEMA.to_string(),
            seed: 42,
            repeats: 1,
            host_threads: 1,
            thread_counts: vec![1],
            rows: vec![
                mk("graph_build", 0, 10),
                mk("pagerank", 0, 10),
                mk("full_rebuild", 0, 10),
                mk("incremental", 0, 10),
                mk("placement", 5, 10),
                mk("choose", 5, 10),
                mk("end_to_end", 5, 10),
                mk("event_sim", 5, 0),
            ],
        }
    }

    #[test]
    fn args_defaults_and_flags() {
        let d = PerfArgs::try_parse(std::iter::empty()).unwrap();
        assert_eq!(d, PerfArgs::default());
        let a = PerfArgs::try_parse(
            [
                "--vms",
                "200",
                "--threads",
                "1,2",
                "--repeats",
                "2",
                "--seed",
                "7",
                "--out",
                "x.json",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(a.vms, vec![200]);
        assert_eq!(a.threads, vec![1, 2]);
        assert_eq!(a.repeats, 2);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out, PathBuf::from("x.json"));
    }

    #[test]
    fn args_reject_malformed() {
        assert!(PerfArgs::try_parse(["--bogus".to_string()]).is_err());
        assert!(PerfArgs::try_parse(["--vms".to_string()]).is_err());
        assert!(PerfArgs::try_parse(["--vms".to_string(), "0".to_string()]).is_err());
        assert!(PerfArgs::try_parse(["--threads".to_string(), "1,x".to_string()]).is_err());
        assert!(PerfArgs::try_parse(["--threads".to_string(), "1,2,1".to_string()]).is_err());
        assert!(PerfArgs::try_parse(["--repeats".to_string(), "0".to_string()]).is_err());
        assert!(PerfArgs::try_parse(["--gate".to_string()]).is_err());
        assert!(PerfArgs::try_parse(["--gate-threshold".to_string(), "zero".to_string()]).is_err());
        assert!(PerfArgs::try_parse(["--gate-threshold".to_string(), "0".to_string()]).is_err());
        assert!(PerfArgs::try_parse(["--gate-threshold".to_string(), "-1".to_string()]).is_err());
        assert!(PerfArgs::try_parse(["--trace".to_string()]).is_err());
    }

    #[test]
    fn args_parse_gate_and_trace_flags() {
        let a = PerfArgs::try_parse(
            [
                "--gate",
                "BENCH_PRVM.json",
                "--gate-threshold",
                "0.25",
                "--trace",
                "trace.json",
                "--check-trace",
                "old.json",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(a.gate, Some(PathBuf::from("BENCH_PRVM.json")));
        assert!((a.gate_threshold - 0.25).abs() < 1e-12);
        assert_eq!(a.trace, Some(PathBuf::from("trace.json")));
        assert_eq!(a.check_trace, Some(PathBuf::from("old.json")));
    }

    /// The acceptance scenario, with synthetic baselines so no wall
    /// clock is compared across runs: an identical baseline passes, a
    /// baseline scaled 1000x *faster* makes every fresh cell a >15%
    /// regression, and a 1000x *slower* baseline passes trivially.
    #[test]
    fn gate_flags_synthetic_regressions() {
        let fresh = tiny_report();
        let identical = fresh.clone();
        let rows = gate_compare(&identical, &fresh, 0.15).unwrap();
        assert_eq!(rows.len(), fresh.rows.len());
        assert!(rows.iter().all(|r| !r.regressed), "identical must pass");
        assert!(rows.iter().all(|r| (r.ratio - 1.0).abs() < 1e-9));

        let mut fast_baseline = fresh.clone();
        for row in &mut fast_baseline.rows {
            row.median_ms /= 1000.0;
            row.p95_ms /= 1000.0;
        }
        let rows = gate_compare(&fast_baseline, &fresh, 0.15).unwrap();
        assert!(
            rows.iter().all(|r| r.regressed),
            "a 1000x slower fresh run must trip every cell"
        );

        let mut slow_baseline = fresh.clone();
        for row in &mut slow_baseline.rows {
            row.median_ms *= 1000.0;
            row.p95_ms *= 1000.0;
        }
        let rows = gate_compare(&slow_baseline, &fresh, 0.15).unwrap();
        assert!(rows.iter().all(|r| !r.regressed));
    }

    /// A baseline whose `choose` cells alone are 1000x faster makes
    /// exactly those cells of the fresh run regress.
    #[test]
    fn gate_flags_a_synthetic_slow_choose_cell() {
        let fresh = tiny_report();
        let mut baseline = fresh.clone();
        for row in baseline.rows.iter_mut().filter(|r| r.stage == "choose") {
            row.median_ms /= 1000.0;
        }
        let rows = gate_compare(&baseline, &fresh, 0.15).unwrap();
        for row in &rows {
            assert_eq!(row.regressed, row.stage == "choose", "{}", row.stage);
        }
        assert!(rows.iter().any(|r| r.stage == "choose"));
    }

    #[test]
    fn gate_needs_overlapping_cells_and_positive_threshold() {
        let fresh = tiny_report();
        let mut disjoint = fresh.clone();
        for row in &mut disjoint.rows {
            row.threads = 9;
        }
        assert!(gate_compare(&disjoint, &fresh, 0.15).is_err());
        assert!(gate_compare(&fresh, &fresh, 0.0).is_err());
        assert!(gate_compare(&fresh, &fresh, f64::NAN).is_err());
    }

    #[test]
    fn gate_floor_absorbs_sub_tick_noise() {
        // 0.001ms -> 0.004ms is 4x, but both are below the floor: not
        // a regression, just timer granularity.
        let mut fresh = tiny_report();
        let mut baseline = fresh.clone();
        for row in &mut baseline.rows {
            row.median_ms = 0.001;
        }
        for row in &mut fresh.rows {
            row.median_ms = 0.004;
        }
        let rows = gate_compare(&baseline, &fresh, 0.15).unwrap();
        assert!(rows.iter().all(|r| !r.regressed));
    }

    /// End-to-end `--gate` through `main_with`: a synthetic slow
    /// baseline written to disk makes the gate run exit non-zero, and
    /// a generous baseline passes — without ever comparing two real
    /// timings against each other.
    #[test]
    fn main_with_gate_exits_nonzero_on_synthetic_slow_baseline() {
        let dir = std::env::temp_dir().join("prvm-bench-gate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let coarse = Quantizer {
            core_slots: 2,
            mem_levels: 4,
            disk_levels: 2,
        };
        let smoke = PerfArgs {
            vms: vec![20],
            threads: vec![1],
            repeats: 1,
            quantizer: coarse,
            ..PerfArgs::default()
        };
        // One real smoke run to learn the grid's actual medians.
        let measured = run(&smoke).unwrap();

        // Baseline 1000x faster than reality: gating must fail.
        let mut fast = measured.clone();
        for row in &mut fast.rows {
            row.median_ms = (row.median_ms / 1000.0).max(1e-6);
            row.p95_ms = row.p95_ms.max(row.median_ms);
        }
        let fast_path = dir.join("baseline-fast.json");
        fast.write(&fast_path).unwrap();
        let err = main_with(&PerfArgs {
            gate: Some(fast_path),
            out: dir.join("should-not-exist.json"),
            ..smoke.clone()
        })
        .expect_err("gate must fail against a 1000x faster baseline");
        assert!(err.contains("perf gate failed"), "got: {err}");
        assert!(
            !dir.join("should-not-exist.json").exists(),
            "gate runs must not write --out"
        );

        // Baseline 1000x slower: gating must pass.
        let mut slow = measured;
        for row in &mut slow.rows {
            row.median_ms *= 1000.0;
            row.p95_ms *= 1000.0;
        }
        let slow_path = dir.join("baseline-slow.json");
        slow.write(&slow_path).unwrap();
        main_with(&PerfArgs {
            gate: Some(slow_path),
            ..smoke
        })
        .expect("gate must pass against a 1000x slower baseline");
    }

    #[test]
    fn validate_accepts_well_formed_and_rejects_corruption() {
        let good = tiny_report();
        good.validate().unwrap();
        let mut bad = good.clone();
        bad.schema = "other/v9".into();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.rows[0].p95_ms = 1.0; // below median
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.rows[0].speedup_vs_1t = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.rows[4].vms = 0; // placement must carry a VM count
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.rows[3].vms = 7; // incremental is a graph stage: vms must be 0
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.rows.remove(3); // a stage went missing
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.rows[0].threads = 8; // not in thread_counts
        assert!(bad.validate().is_err());
    }

    /// `bench --out BENCH_PRVM.json` rewrites the perf fields and keeps
    /// the cells other binaries merged in: a `serve_loadgen` object
    /// already in the file comes back unchanged, and the result still
    /// loads.
    #[test]
    fn write_keeps_foreign_top_level_keys() {
        let dir = std::env::temp_dir().join(format!("prvm-perf-keep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_PRVM.json");
        let cell = r#"{"schema": "prvm-serve-loadgen/v1", "requests": 400}"#;
        std::fs::write(&path, format!(r#"{{"seed": 7, "serve_loadgen": {cell}}}"#)).unwrap();
        let loadgen: serde::Value = serde_json::from_str(cell).unwrap();

        let report = tiny_report();
        report.write(&path).unwrap();
        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.field("serve_loadgen").unwrap(), &loadgen);
        let reloaded = PerfReport::load(&path).unwrap();
        assert_eq!(reloaded.seed, report.seed, "the report's own keys win");
        assert_eq!(reloaded.rows.len(), report.rows.len());

        // A second write replaces the perf keys and still keeps the cell.
        report.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"serve_loadgen\"").count(), 1);
        assert_eq!(text.matches("\"rows\"").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_requires_the_full_stage_width_matrix() {
        let mut good = tiny_report();
        good.thread_counts = vec![1, 2];
        let wide: Vec<StageRow> = good
            .rows
            .iter()
            .map(|r| StageRow {
                threads: 2,
                ..r.clone()
            })
            .collect();
        good.rows.extend(wide);
        good.validate().unwrap();
        for missing in 0..good.rows.len() {
            let mut bad = good.clone();
            let row = bad.rows.remove(missing);
            let err = bad.validate().unwrap_err();
            assert!(
                err.contains(&format!("0 rows for {}", row.stage)),
                "dropping {}/{}t: {err}",
                row.stage,
                row.threads
            );
        }
        let mut bad = good.clone();
        bad.rows
            .retain(|r| !(r.stage == "choose" && r.threads == 2));
        assert!(bad
            .validate()
            .unwrap_err()
            .contains("0 rows for choose vms=5 threads=2"));
        let mut bad = good.clone();
        bad.rows.push(bad.rows[0].clone());
        assert!(bad
            .validate()
            .unwrap_err()
            .contains("2 rows for graph_build"));
        // A second VM count needs its own rows of every VM-count stage
        // at every width.
        let mut bad = good;
        bad.rows.push(StageRow {
            vms: 9,
            ..bad.rows[4].clone()
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = tiny_report();
        let json = serde_json::to_vec_pretty(&report).unwrap();
        let back: PerfReport = serde_json::from_slice(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back.rows.len(), report.rows.len());
        assert_eq!(back.thread_counts, report.thread_counts);
    }

    /// The check behind every VM-count stage's determinism contract: the
    /// first width sets the reference and any later difference fails the
    /// run.
    #[test]
    fn a_cross_width_mismatch_fails_the_run() {
        let mut reference = None;
        same_at_every_width(&mut reference, (3, 867), "the day", 1).unwrap();
        same_at_every_width(&mut reference, (3, 867), "the day", 2).unwrap();
        let err = same_at_every_width(&mut reference, (3, 866), "the day", 4).unwrap_err();
        assert!(
            err.contains("determinism violation: the day at 4 threads"),
            "{err}"
        );
        assert_eq!(
            reference,
            Some((3, 867)),
            "the baseline stays the reference"
        );
    }

    #[test]
    fn measure_warms_up_once_untimed() {
        // The warm-up call is the slow one; it must not reach the sample.
        let mut calls = 0;
        let (last, median, p95) = measure(3, || {
            calls += 1;
            (calls, if calls == 1 { 1000.0 } else { f64::from(calls) })
        });
        assert_eq!(calls, 4);
        assert_eq!(last, 4);
        assert_eq!((median, p95), (3.0, 4.0));
    }

    #[test]
    fn request_batch_is_deterministic_and_seed_rotated() {
        let a = request_batch(10, 42);
        let b = request_batch(10, 42);
        assert_eq!(a, b);
        let c = request_batch(10, 43);
        assert_ne!(a, c, "different seeds rotate the type cycle");
        assert_eq!(a.len(), 10);
    }

    /// Smoke-scale end-to-end run: tiny VM count, 1 thread, 1 repeat.
    /// Keeps the full measurement path (including the determinism check
    /// between thread counts) exercised by `cargo test`.
    #[test]
    fn run_produces_valid_report_at_smoke_scale() {
        let dir = std::env::temp_dir().join("prvm-bench-perf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_PRVM.json");
        let args = PerfArgs {
            vms: vec![20],
            threads: vec![1, 2],
            repeats: 1,
            out: out.clone(),
            quantizer: Quantizer {
                core_slots: 2,
                mem_levels: 4,
                disk_levels: 2,
            },
            ..PerfArgs::default()
        };
        main_with(&args).unwrap();
        let report = PerfReport::load(&out).unwrap();
        assert_eq!(report.thread_counts, vec![1, 2]);
        // One row per stage and width.
        assert_eq!(report.rows.len(), STAGES.len() * 2);
        for stage in ["choose", "event_sim"] {
            for threads in [1, 2] {
                let cells = report
                    .rows
                    .iter()
                    .filter(|r| r.stage == stage && r.vms == 20 && r.threads == threads)
                    .count();
                assert_eq!(cells, 1, "{stage} at {threads} threads");
            }
        }
        // The extended book holds exactly the full rebuild's graph.
        let nodes = |stage: &str| {
            report
                .rows
                .iter()
                .find(|r| r.stage == stage)
                .map(|r| r.graph_nodes)
                .unwrap_or(0)
        };
        assert_eq!(nodes("incremental"), nodes("full_rebuild"));
        assert!(nodes("incremental") > 0);
        main_with(&PerfArgs {
            check: Some(out),
            ..PerfArgs::default()
        })
        .unwrap();
    }
}
