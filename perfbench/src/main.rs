//! PageRankVM benchmark: four workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run.
//!
//! ```text
//! prvm-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                [--daemon PATH] [--work DIR]
//! ```
//!
//! `perfbench/run.sh` builds this binary and the `pagerankvm` daemon
//! and passes `--daemon` and `--work`; see `perfbench/README.md`.

// The benchmark reads `/proc` and calls `clock_gettime` with the 64-bit
// Linux `timespec` layout.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench runs on 64-bit Linux only");

mod book_refresh;
mod place_churn;
mod refpath;
mod serve_steady;
mod sim_day;
mod trace;
mod util;

use std::path::PathBuf;
use util::Report;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "ops_per_s",
    "lat_p50_ms",
    "ok_pct",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer the workload bypasses reads 0: it did no work there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("journal.append_us.p50", "us"),
    ("journal.append_us.p99", "us"),
    ("journal.fsyncs_per_op", "count"),
    ("store.compact_ms.p50", "ms"),
    ("store.compactions", "count"),
    ("serve.queue_transport_us.p50", "us"),
    ("serve.queue_transport_us.p99", "us"),
    ("serve.backlog_max", "count"),
    ("serve.lat_p99_ms", "ms"),
    ("serve.reconcile_err_pct", "%"),
    ("bench.gen_late_ms.p99", "ms"),
    ("state.prepare_us.p50", "us"),
    ("state.prepare_us.p99", "us"),
    ("state.commit_us.p50", "us"),
    ("serve.read.lat_p50_ms", "ms"),
    ("serve.write.lat_p50_ms", "ms"),
    ("serve.write.lat_p99_ms", "ms"),
    ("placer.choose_us.p50", "us"),
    ("placer.choose_us.p99", "us"),
    ("placer.scanned_per_choose", "PMs"),
    ("placer.permutations_per_choose", "count"),
    ("placer.ns_per_scanned_pm", "ns"),
    ("placer.fallback_ratio", "ratio"),
    ("cluster.place_us.p50", "us"),
    ("cluster.remove_us.p50", "us"),
    ("sim.day_ms.p50", "ms"),
    ("sim.events_per_s", "1/s"),
    ("sim.engine_self_ms", "ms"),
    ("evict.select_us.p50", "us"),
    ("evict.calls", "count"),
    ("graph.build_ms", "ms"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("pagerank.cold_ms", "ms"),
    ("pagerank.sweeps", "count"),
    ("pagerank.ms_per_sweep", "ms"),
    ("bpru.ms", "ms"),
    ("graph.extend_ms.identity", "ms"),
    ("graph.extend_ms.structural", "ms"),
    ("pagerank.warm_ms", "ms"),
    ("pagerank.warm_sweeps", "count"),
    ("cache.load_ms", "ms"),
    ("cache.save_ms", "ms"),
    ("quality.pms_used", "PMs"),
    ("sim.energy_kwh", "kWh"),
    ("sim.migrations", "count"),
    ("sim.slo_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_probe_ms", "ms"),
    ("bench.spans", "count"),
];

/// Fixed `prvm-par` worker count for every in-process layer: one worker
/// measured steadier than two on a shared two-core host, and no
/// parallel speed-up is claimed.
pub const PAR_WORKERS: usize = 1;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: Option<PathBuf>,
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut work = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            "--work" => work = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon,
        work,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    prvm_par::set_global_threads(PAR_WORKERS);
    let probe_before = util::host_probe_ms();
    let mut report = match args.workload.as_str() {
        "serve-steady" => serve_steady::run(args)?,
        "place-churn" => place_churn::run(args)?,
        "sim-day" => sim_day::run(args)?,
        "book-refresh" => book_refresh::run(args)?,
        other => {
            return Err(format!(
                "unknown workload {other} (serve-steady|place-churn|sim-day|book-refresh)"
            ))
        }
    };
    let probe_after = util::host_probe_ms();
    let probe = (probe_before + probe_after) / 2.0;
    report.info(format!(
        "workload {} seed {} seconds {} trace {} | prvm-par workers {PAR_WORKERS} | \
         host probe {probe_before:.1} ms before, {probe_after:.1} ms after",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    if args.trace {
        report.metric("bench.host_probe_ms", probe, "ms", 2);
    }
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag] = argv.as_slice() {
        if flag == "--boot-probe" {
            // The reference process of serve-steady's `setup_s`.
            println!("ready");
            return;
        }
    }
    if let [_, flag, path] = argv.as_slice() {
        if flag == "--prepare-book" {
            prvm_par::set_global_threads(PAR_WORKERS);
            if let Err(e) = place_churn::prepare_book(std::path::Path::new(path)) {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: {}: {e}", args.work.display());
        std::process::exit(1);
    }
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let names: Vec<&str> = if args.trace {
        for (name, unit) in PER_LAYER {
            if !report.metrics.iter().any(|m| m.name == *name) {
                report.metric_note(name, 0.0, unit, 0, "layer bypassed".to_string());
            }
        }
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    if let Err(e) = report.print(&names) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    if !report.violations.is_empty() {
        std::process::exit(3);
    }
}
