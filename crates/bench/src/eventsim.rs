//! The `eventsim` harness: event-throughput microbench for the
//! discrete-event kernel behind `prvm-sim` (DESIGN.md §14). It runs the
//! kernel-backed compatibility scenario under the `all` fault preset —
//! the path that exercises every event class — `repeats` times, keeps
//! the fastest wall-clock, and reports dispatched events per second.
//! The merged report (schema [`EVENTSIM_SCHEMA`]) lands under the
//! `event_sim` key of `BENCH_PRVM.json` — alongside, not replacing, the
//! perf sweep and the loadgen cell.

use prvm_baselines::{FirstFit, MinimumMigrationTime};
use prvm_sim::{build_cluster, FaultPlan, Scenario, SimConfig, Workload, WorkloadConfig};
use prvm_traces::TraceKind;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag stamped into every event-sim report.
pub const EVENTSIM_SCHEMA: &str = "prvm-event-sim/v1";

/// The key the report occupies inside `BENCH_PRVM.json`.
pub const EVENTSIM_KEY: &str = "event_sim";

/// The fault preset the bench runs under: `all` schedules every event
/// class (arrivals, crash, recovery, evacuation sweeps, scans, samples),
/// so the measured dispatch rate covers the whole handler surface.
pub const EVENTSIM_PRESET: &str = "all";

/// Command-line options of the `eventsim` binary.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct EventSimArgs {
    /// VMs in the simulated workload.
    pub vms: usize,
    /// Virtual horizon, seconds (events scale with `horizon / scan`).
    pub horizon_s: u64,
    /// Timed repeats; the fastest is reported (microbench convention:
    /// the minimum is the least noisy estimator of the true cost).
    pub repeats: usize,
    /// Workload seed.
    pub seed: u64,
    /// When set, merge the report into this JSON file under
    /// [`EVENTSIM_KEY`] (typically `BENCH_PRVM.json`).
    pub out: Option<PathBuf>,
}

impl Default for EventSimArgs {
    fn default() -> Self {
        Self {
            vms: 200,
            horizon_s: 24 * 3600,
            repeats: 5,
            seed: 42,
            out: None,
        }
    }
}

impl EventSimArgs {
    /// Parse `--vms N`, `--horizon-s N`, `--repeats N`, `--seed N`,
    /// `--out FILE`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags, missing values or
    /// non-positive counts.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let usage = "usage: eventsim [--vms N] [--horizon-s N] [--repeats N] [--seed N] \
                     [--out FILE]";
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .ok_or_else(|| format!("{name} needs a value; {usage}"))
            };
            let count = |name: &str, text: String| -> Result<usize, String> {
                let n: usize = text
                    .parse()
                    .map_err(|_| format!("{name} wants an integer; {usage}"))?;
                if n == 0 {
                    return Err(format!("{name} must be positive; {usage}"));
                }
                Ok(n)
            };
            match flag.as_str() {
                "--vms" => out.vms = count("--vms", value("--vms")?)?,
                "--horizon-s" => {
                    out.horizon_s = count("--horizon-s", value("--horizon-s")?)? as u64;
                }
                "--repeats" => out.repeats = count("--repeats", value("--repeats")?)?,
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|_| format!("--seed wants an integer; {usage}"))?;
                }
                "--out" => out.out = Some(PathBuf::from(value("--out")?)),
                other => return Err(format!("unknown flag {other}; {usage}")),
            }
        }
        Ok(out)
    }

    /// Parse the process arguments (skipping argv\[0\]), exiting with
    /// the usage message on malformed flags.
    pub fn from_env() -> Self {
        Self::try_parse(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    }
}

/// The event-throughput report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventSimReport {
    /// Always [`EVENTSIM_SCHEMA`] for reports this module writes.
    pub schema: String,
    /// VMs simulated.
    pub vms: usize,
    /// Scan intervals in the horizon (events scale linearly with this).
    pub scans: usize,
    /// Workload seed.
    pub seed: u64,
    /// Timed repeats behind the fastest-run numbers.
    pub repeats: usize,
    /// Fault preset the scenario ran under ([`EVENTSIM_PRESET`]).
    pub preset: String,
    /// Events scheduled per run (identical across repeats — the kernel
    /// is deterministic, so a mismatch would mean a broken build).
    pub events_scheduled: u64,
    /// Events dispatched per run.
    pub events_dispatched: u64,
    /// Largest event-queue length observed.
    pub peak_queue: usize,
    /// Wall-clock of the fastest repeat, milliseconds.
    pub best_elapsed_ms: f64,
    /// Dispatched events per wall-clock second, fastest repeat.
    pub events_per_sec: f64,
}

impl EventSimReport {
    /// Structural validation used by tests and the CI smoke job.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a message.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != EVENTSIM_SCHEMA {
            return Err(format!(
                "schema {:?} != expected {EVENTSIM_SCHEMA:?}",
                self.schema
            ));
        }
        if self.vms == 0 || self.scans == 0 || self.repeats == 0 {
            return Err("vms, scans and repeats must be positive".into());
        }
        if self.events_dispatched == 0 {
            return Err("no events dispatched — the kernel ran nothing".into());
        }
        if self.events_scheduled < self.events_dispatched {
            return Err("dispatched more events than were scheduled".into());
        }
        if !(self.best_elapsed_ms.is_finite() && self.best_elapsed_ms >= 0.0) {
            return Err("best_elapsed_ms must be finite and non-negative".into());
        }
        if !(self.events_per_sec.is_finite() && self.events_per_sec > 0.0) {
            return Err("events_per_sec must be finite and positive".into());
        }
        Ok(())
    }

    /// Merge this report into the JSON document at `path` under
    /// [`EVENTSIM_KEY`]: an existing perf report keeps all its fields
    /// (its loader ignores unknown keys), an absent file gets a fresh
    /// object.
    ///
    /// # Errors
    ///
    /// Reports filesystem or JSON failures as a message.
    pub fn merge_into(&self, path: &Path) -> Result<(), String> {
        crate::merge_json_keys(
            path,
            vec![(EVENTSIM_KEY.to_string(), serde::Serialize::to_value(self))],
        )
    }
}

/// Run the bench described by `args` and assemble the report.
///
/// # Errors
///
/// Reports an invalid configuration (zero scan interval) as a message.
pub fn run(args: &EventSimArgs) -> Result<EventSimReport, String> {
    let sim = SimConfig {
        horizon_s: args.horizon_s,
        ..SimConfig::default()
    };
    let wl = WorkloadConfig::sized_for(args.vms, TraceKind::PlanetLab);
    let scans = sim.scans();
    let plan = FaultPlan::preset(EVENTSIM_PRESET, scans, 77)
        .ok_or_else(|| format!("unknown fault preset {EVENTSIM_PRESET:?}"))?;
    let workload = Workload::generate(&wl, scans, args.seed);
    let scenario = Scenario {
        faults: plan,
        ..Scenario::default()
    };
    let mut best_elapsed_ms = f64::INFINITY;
    let mut stats = None;
    for _ in 0..args.repeats {
        let t = Instant::now();
        let s = scenario
            .run(
                &sim,
                build_cluster(&wl),
                &workload,
                &mut FirstFit::new(),
                &mut MinimumMigrationTime::new(),
            )
            .map_err(|e| e.to_string())?
            .stats;
        let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(prev) = &stats {
            if prev != &s {
                return Err(format!(
                    "kernel stats diverged across repeats: {prev:?} vs {s:?}"
                ));
            }
        }
        stats = Some(s);
        best_elapsed_ms = best_elapsed_ms.min(elapsed_ms);
    }
    let stats = stats.ok_or("no repeats ran")?;
    let report = EventSimReport {
        schema: EVENTSIM_SCHEMA.to_string(),
        vms: args.vms,
        scans,
        seed: args.seed,
        repeats: args.repeats,
        preset: EVENTSIM_PRESET.to_string(),
        events_scheduled: stats.scheduled,
        events_dispatched: stats.dispatched,
        peak_queue: stats.peak_queue,
        best_elapsed_ms,
        events_per_sec: stats.dispatched as f64 / (best_elapsed_ms / 1e3),
    };
    report.validate()?;
    Ok(report)
}

/// Run, print the summary, and merge into `--out` when requested.
///
/// # Errors
///
/// Propagates run, validation and merge failures as messages.
pub fn main_with(args: &EventSimArgs) -> Result<(), String> {
    let report = run(args)?;
    crate::report_line(format_args!(
        "event-sim: {} VMs, {} scans, preset {} — {} events dispatched \
         (peak queue {}) in {:.1} ms best-of-{} = {:.0} events/s",
        report.vms,
        report.scans,
        report.preset,
        report.events_dispatched,
        report.peak_queue,
        report.best_elapsed_ms,
        report.repeats,
        report.events_per_sec,
    ))?;
    if let Some(path) = &args.out {
        report.merge_into(path)?;
        crate::report_line(format_args!(
            "merged under {EVENTSIM_KEY:?} into {}",
            path.display()
        ))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EventSimArgs {
        EventSimArgs {
            vms: 10,
            horizon_s: 1800,
            repeats: 2,
            seed: 7,
            out: None,
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a = EventSimArgs::try_parse(
            [
                "--vms",
                "50",
                "--horizon-s",
                "3600",
                "--repeats",
                "3",
                "--seed",
                "9",
                "--out",
                "x.json",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(a.vms, 50);
        assert_eq!(a.horizon_s, 3600);
        assert_eq!(a.repeats, 3);
        assert_eq!(a.seed, 9);
        assert_eq!(a.out, Some(PathBuf::from("x.json")));
        let err = EventSimArgs::try_parse(["--bogus".to_string()]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        let err = EventSimArgs::try_parse(["--vms".to_string(), "0".to_string()]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn tiny_run_produces_a_valid_report() {
        let report = run(&tiny()).unwrap();
        report.validate().unwrap();
        assert_eq!(report.scans, 6);
        // Compat scenario schedules everything upfront and drains fully.
        assert_eq!(report.events_scheduled, report.events_dispatched);
        assert!(report.events_dispatched >= 2 * report.scans as u64);
    }

    #[test]
    fn validate_rejects_broken_reports() {
        let good = run(&tiny()).unwrap();
        let mut bad = good.clone();
        bad.schema = "wrong/v0".into();
        assert!(bad.validate().unwrap_err().contains("schema"));
        let mut bad = good.clone();
        bad.events_dispatched = 0;
        assert!(bad.validate().unwrap_err().contains("no events"));
        let mut bad = good.clone();
        bad.events_scheduled = bad.events_dispatched - 1;
        assert!(bad.validate().unwrap_err().contains("more events"));
        let mut bad = good;
        bad.events_per_sec = f64::NAN;
        assert!(bad.validate().unwrap_err().contains("events_per_sec"));
    }

    #[test]
    fn merge_into_a_fresh_file_creates_it() {
        let dir = std::env::temp_dir().join(format!("prvm-eventsim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fresh.json");
        let _ = std::fs::remove_file(&path);
        let report = run(&tiny()).unwrap();
        report.merge_into(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc: serde::Value = serde_json::from_str(&text).unwrap();
        let cell = doc.field(EVENTSIM_KEY).expect("event_sim key");
        let back: EventSimReport = serde::Deserialize::from_value(cell).unwrap();
        assert_eq!(back, report);
        // Re-merging replaces the cell rather than duplicating the key.
        report.merge_into(&path).unwrap();
        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let serde::Value::Object(pairs) = &doc else {
            panic!("not an object")
        };
        assert_eq!(pairs.iter().filter(|(k, _)| k == EVENTSIM_KEY).count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_preserves_other_top_level_keys() {
        let dir = std::env::temp_dir().join(format!("prvm-eventsim-keep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("existing.json");
        std::fs::write(&path, r#"{"schema": "prvm-bench-perf/v1", "seed": 42}"#).unwrap();
        let report = run(&tiny()).unwrap();
        report.merge_into(&path).unwrap();
        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(doc.field("schema").is_ok(), "existing keys preserved");
        assert!(doc.field("seed").is_ok());
        assert!(doc.field(EVENTSIM_KEY).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
