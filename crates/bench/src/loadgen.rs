//! The `pagerankvm loadgen` harness: a deterministic closed-loop load
//! generator for the `prvm-serve` daemon. Each connection thread runs a
//! seeded place/evict/migrate/stats mix through the framed-TCP
//! [`Client`], honours the daemon's typed shed/backoff guidance, and
//! records client-observed request latencies. The merged report
//! (throughput + nearest-rank latency percentiles, schema
//! [`LOADGEN_SCHEMA`]) lands under the `serve_loadgen` key of
//! `BENCH_PRVM.json` — alongside, not replacing, the perf sweep.

use prvm_faults::splitmix64;
use prvm_serve::{Client, ClientError};
use prvm_traces::stats::percentile;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Schema tag stamped into every loadgen report.
pub const LOADGEN_SCHEMA: &str = "prvm-serve-loadgen/v1";

/// The key the report occupies inside `BENCH_PRVM.json`.
pub const LOADGEN_KEY: &str = "serve_loadgen";

/// Give up on a request after this many consecutive shed replies.
pub const MAX_SHED_RETRIES: u32 = 8;

/// Command-line options of the `loadgen` binary.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct LoadGenArgs {
    /// Daemon address to drive.
    pub addr: String,
    /// Total requests across all connections.
    pub requests: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Base seed; each connection derives its own stream from it.
    pub seed: u64,
    /// Per-request deadline forwarded to the daemon (0 = server default).
    pub deadline_ms: u64,
    /// When set, merge the report into this JSON file under
    /// [`LOADGEN_KEY`] (typically `BENCH_PRVM.json`).
    pub out: Option<PathBuf>,
}

impl Default for LoadGenArgs {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7791".to_string(),
            requests: 500,
            connections: 4,
            seed: 42,
            deadline_ms: 1000,
            out: None,
        }
    }
}

impl LoadGenArgs {
    /// Parse `--addr HOST:PORT`, `--requests N`, `--connections N`,
    /// `--seed N`, `--deadline-ms N`, `--out FILE`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags, missing values or
    /// non-positive counts.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let usage = "usage: loadgen [--addr HOST:PORT] [--requests N] [--connections N] \
                     [--seed N] [--deadline-ms N] [--out FILE]";
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .ok_or_else(|| format!("{name} needs a value; {usage}"))
            };
            match flag.as_str() {
                "--addr" => out.addr = value("--addr")?,
                "--requests" => out.requests = crate::parse_count(&value("--requests")?, usage)?,
                "--connections" => {
                    out.connections = crate::parse_count(&value("--connections")?, usage)?;
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|_| format!("--seed wants an integer; {usage}"))?;
                }
                "--deadline-ms" => {
                    out.deadline_ms = value("--deadline-ms")?
                        .parse()
                        .map_err(|_| format!("--deadline-ms wants an integer; {usage}"))?;
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

/// Nearest-rank latency percentiles over the completed requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Worst observed, milliseconds.
    pub max_ms: f64,
}

/// The full loadgen report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadGenReport {
    /// Always [`LOADGEN_SCHEMA`] for reports this module writes.
    pub schema: String,
    /// Requests attempted (the `--requests` budget).
    pub requests: usize,
    /// Concurrent connections used.
    pub connections: usize,
    /// Base seed of the workload.
    pub seed: u64,
    /// Wall-clock for the whole run, milliseconds.
    pub elapsed_ms: f64,
    /// Completed requests per second over the whole run.
    pub throughput_rps: f64,
    /// Successful placements.
    pub placed: u64,
    /// Successful evictions.
    pub evicted: u64,
    /// Successful migrations.
    pub migrated: u64,
    /// Successful stats reads.
    pub stats_reads: u64,
    /// Shed replies observed (each is a typed retry-later, not a drop).
    pub shed: u64,
    /// Requests abandoned after [`MAX_SHED_RETRIES`] consecutive sheds.
    pub shed_giveups: u64,
    /// Typed deadline-timeout replies.
    pub timeouts: u64,
    /// Typed server rejections (no capacity, unknown VM, …).
    pub rejected: u64,
    /// Latency samples collected (one per completed round-trip).
    pub samples: usize,
    /// Client-observed round-trip latency percentiles.
    pub latency: LatencySummary,
}

impl LoadGenReport {
    /// Structural validation used by tests and the CI smoke job.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a message.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != LOADGEN_SCHEMA {
            return Err(format!(
                "schema {:?} != expected {LOADGEN_SCHEMA:?}",
                self.schema
            ));
        }
        if self.requests == 0 || self.connections == 0 {
            return Err("requests and connections must be positive".into());
        }
        if !(self.elapsed_ms.is_finite() && self.elapsed_ms >= 0.0) {
            return Err("elapsed_ms must be finite and non-negative".into());
        }
        if !(self.throughput_rps.is_finite() && self.throughput_rps >= 0.0) {
            return Err("throughput_rps must be finite and non-negative".into());
        }
        let completed = self.placed + self.evicted + self.migrated + self.stats_reads;
        if completed == 0 {
            return Err("no requests completed — the daemon served nothing".into());
        }
        let l = &self.latency;
        for (name, v) in [
            ("p50_ms", l.p50_ms),
            ("p90_ms", l.p90_ms),
            ("p99_ms", l.p99_ms),
            ("max_ms", l.max_ms),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("latency.{name} must be finite and non-negative"));
            }
        }
        if l.p50_ms > l.p90_ms || l.p90_ms > l.p99_ms || l.p99_ms > l.max_ms {
            return Err("latency percentiles must be non-decreasing".into());
        }
        Ok(())
    }

    /// Merge this report into the JSON document at `path` under
    /// [`LOADGEN_KEY`]: an existing perf report keeps all its fields (its
    /// loader ignores unknown keys), an absent file gets a fresh object.
    ///
    /// # Errors
    ///
    /// Reports filesystem or JSON failures as a message.
    pub fn merge_into(&self, path: &Path) -> Result<(), String> {
        crate::merge_json_keys(
            path,
            vec![(LOADGEN_KEY.to_string(), serde::Serialize::to_value(self))],
        )
    }
}

/// Per-connection tallies, merged into the report after the joins.
#[derive(Default)]
struct ConnTally {
    placed: u64,
    evicted: u64,
    migrated: u64,
    stats_reads: u64,
    shed: u64,
    shed_giveups: u64,
    timeouts: u64,
    rejected: u64,
    latencies_ms: Vec<f64>,
}

/// The VM types the scripted mix requests, cycled by the seed stream.
const VM_TYPES: [&str; 4] = ["m3.medium", "m3.large", "m3.xlarge", "c3.large"];

/// One request slot: run `call` with shed-retry handling, tally the
/// outcome. Returns the successful value when the daemon answered.
fn drive<T>(
    tally: &mut ConnTally,
    mut call: impl FnMut(&mut Client) -> Result<T, ClientError>,
    client: &mut Client,
) -> Result<Option<T>, String> {
    let mut shed_streak = 0u32;
    loop {
        let started = Instant::now();
        match call(client) {
            Ok(value) => {
                tally
                    .latencies_ms
                    .push(started.elapsed().as_secs_f64() * 1e3);
                return Ok(Some(value));
            }
            Err(ClientError::Shed { retry_after_ms, .. }) => {
                tally.shed += 1;
                shed_streak += 1;
                if shed_streak > MAX_SHED_RETRIES {
                    tally.shed_giveups += 1;
                    return Ok(None);
                }
                // Honour the daemon's capped deterministic guidance.
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(3200)));
            }
            Err(ClientError::Timeout { .. }) => {
                tally.timeouts += 1;
                return Ok(None);
            }
            Err(ClientError::Server { .. }) => {
                tally.rejected += 1;
                return Ok(None);
            }
            Err(fatal) => return Err(format!("connection failed: {fatal:?}")),
        }
    }
}

fn run_connection(
    addr: &str,
    deadline_ms: u64,
    seed: u64,
    requests: usize,
) -> Result<ConnTally, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e:?}"))?;
    client.deadline_ms = deadline_ms;
    let mut tally = ConnTally::default();
    // VMs this connection placed and still believes are resident: the
    // evict/migrate mix only touches its own, so connections never race
    // over a VM id.
    let mut mine: Vec<u64> = Vec::new();
    for i in 0..requests {
        let roll = splitmix64(seed ^ splitmix64(i as u64));
        match roll % 10 {
            6 | 7 if !mine.is_empty() => {
                let at = (roll >> 8) as usize % mine.len();
                let vm = mine[at];
                if drive(&mut tally, |c| c.evict(vm), &mut client)?.is_some() {
                    tally.evicted += 1;
                    mine.swap_remove(at);
                }
            }
            8 if !mine.is_empty() => {
                let vm = mine[(roll >> 8) as usize % mine.len()];
                if drive(&mut tally, |c| c.migrate(vm), &mut client)?.is_some() {
                    tally.migrated += 1;
                }
            }
            9 => {
                if drive(&mut tally, Client::stats, &mut client)?.is_some() {
                    tally.stats_reads += 1;
                }
            }
            _ => {
                let ty = VM_TYPES[(roll >> 16) as usize % VM_TYPES.len()];
                if let Some(placed) = drive(&mut tally, |c| c.place(ty), &mut client)? {
                    tally.placed += 1;
                    mine.push(placed.vm);
                }
            }
        }
    }
    Ok(tally)
}

/// Run the load against a daemon at `args.addr` and assemble the report
/// (without writing it).
///
/// # Errors
///
/// Fails when a connection cannot be established or dies mid-run —
/// typed shed/timeout/rejection replies are tallied, not failures.
pub fn run(args: &LoadGenArgs) -> Result<LoadGenReport, String> {
    let per_conn = args.requests.div_ceil(args.connections);
    let started = Instant::now();
    let tallies: Vec<Result<ConnTally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.connections)
            .map(|c| {
                let addr = args.addr.as_str();
                let seed = splitmix64(args.seed ^ (c as u64).wrapping_mul(0x9e37));
                let budget = per_conn.min(args.requests.saturating_sub(c * per_conn));
                scope.spawn(move || run_connection(addr, args.deadline_ms, seed, budget))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".to_string()))
            })
            .collect()
    });
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut merged = ConnTally::default();
    for tally in tallies {
        let t = tally?;
        merged.placed += t.placed;
        merged.evicted += t.evicted;
        merged.migrated += t.migrated;
        merged.stats_reads += t.stats_reads;
        merged.shed += t.shed;
        merged.shed_giveups += t.shed_giveups;
        merged.timeouts += t.timeouts;
        merged.rejected += t.rejected;
        merged.latencies_ms.extend(t.latencies_ms);
    }
    merged.latencies_ms.sort_by(f64::total_cmp);
    let completed = merged.placed + merged.evicted + merged.migrated + merged.stats_reads;

    Ok(LoadGenReport {
        schema: LOADGEN_SCHEMA.to_string(),
        requests: args.requests,
        connections: args.connections,
        seed: args.seed,
        elapsed_ms,
        throughput_rps: if elapsed_ms > 0.0 {
            completed as f64 / (elapsed_ms / 1e3)
        } else {
            0.0
        },
        placed: merged.placed,
        evicted: merged.evicted,
        migrated: merged.migrated,
        stats_reads: merged.stats_reads,
        shed: merged.shed,
        shed_giveups: merged.shed_giveups,
        timeouts: merged.timeouts,
        rejected: merged.rejected,
        samples: merged.latencies_ms.len(),
        latency: LatencySummary {
            p50_ms: percentile(&merged.latencies_ms, 0.5),
            p90_ms: percentile(&merged.latencies_ms, 0.9),
            p99_ms: percentile(&merged.latencies_ms, 0.99),
            max_ms: merged.latencies_ms.last().copied().unwrap_or(0.0),
        },
    })
}

/// Full CLI entry: run, validate, print a summary, and merge into
/// `--out` when asked.
///
/// # Errors
///
/// Propagates connection, validation and I/O failures as messages (the
/// CLI turns them into a non-zero exit).
pub fn main_with(args: &LoadGenArgs) -> Result<(), String> {
    let report = run(args)?;
    report.validate()?;
    crate::report_line(format_args!(
        "[loadgen] {} request(s) over {} connection(s) in {:.0}ms: {:.0} req/s, \
         p50={:.2}ms p90={:.2}ms p99={:.2}ms max={:.2}ms \
         (placed={} evicted={} migrated={} stats={} shed={} timeouts={} rejected={})",
        report.requests,
        report.connections,
        report.elapsed_ms,
        report.throughput_rps,
        report.latency.p50_ms,
        report.latency.p90_ms,
        report.latency.p99_ms,
        report.latency.max_ms,
        report.placed,
        report.evicted,
        report.migrated,
        report.stats_reads,
        report.shed,
        report.timeouts,
        report.rejected,
    ))?;
    if let Some(path) = &args.out {
        report.merge_into(path)?;
        crate::report_line(format_args!(
            "[loadgen] merged under {:?} in {}",
            LOADGEN_KEY,
            path.display()
        ))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_model::Quantizer;
    use prvm_serve::{CatalogSpec, Server, ServerConfig, Store};

    fn tiny_report() -> LoadGenReport {
        LoadGenReport {
            schema: LOADGEN_SCHEMA.to_string(),
            requests: 10,
            connections: 2,
            seed: 42,
            elapsed_ms: 12.5,
            throughput_rps: 800.0,
            placed: 6,
            evicted: 2,
            migrated: 1,
            stats_reads: 1,
            shed: 0,
            shed_giveups: 0,
            timeouts: 0,
            rejected: 0,
            samples: 10,
            latency: LatencySummary {
                p50_ms: 1.0,
                p90_ms: 2.0,
                p99_ms: 3.0,
                max_ms: 4.0,
            },
        }
    }

    #[test]
    fn args_defaults_and_flags() {
        let d = LoadGenArgs::try_parse(std::iter::empty()).unwrap();
        assert_eq!(d, LoadGenArgs::default());
        let a = LoadGenArgs::try_parse(
            [
                "--addr",
                "127.0.0.1:9000",
                "--requests",
                "100",
                "--connections",
                "2",
                "--seed",
                "7",
                "--deadline-ms",
                "250",
                "--out",
                "x.json",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(a.addr, "127.0.0.1:9000");
        assert_eq!(a.requests, 100);
        assert_eq!(a.connections, 2);
        assert_eq!(a.seed, 7);
        assert_eq!(a.deadline_ms, 250);
        assert_eq!(a.out, Some(PathBuf::from("x.json")));
    }

    #[test]
    fn args_reject_malformed() {
        assert!(LoadGenArgs::try_parse(["--bogus".to_string()]).is_err());
        assert!(LoadGenArgs::try_parse(["--requests".to_string()]).is_err());
        assert!(LoadGenArgs::try_parse(["--requests".to_string(), "0".to_string()]).is_err());
        assert!(LoadGenArgs::try_parse(["--connections".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn validate_accepts_well_formed_and_rejects_corruption() {
        tiny_report().validate().unwrap();
        let mut bad = tiny_report();
        bad.schema = "other/v9".into();
        assert!(bad.validate().is_err());
        let mut bad = tiny_report();
        bad.latency.p90_ms = 0.5; // below p50
        assert!(bad.validate().is_err());
        let mut bad = tiny_report();
        bad.placed = 0;
        bad.evicted = 0;
        bad.migrated = 0;
        bad.stats_reads = 0;
        assert!(bad.validate().is_err(), "all-failure runs are invalid");
        let mut bad = tiny_report();
        bad.throughput_rps = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn merge_preserves_an_existing_perf_report() {
        let dir = std::env::temp_dir().join("prvm-loadgen-merge-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_PRVM.json");

        // A minimal valid perf report occupies the file first.
        let perf = crate::perf::PerfReport {
            schema: crate::perf::PERF_SCHEMA.to_string(),
            seed: 42,
            repeats: 1,
            host_threads: 1,
            thread_counts: vec![1],
            rows: crate::perf::STAGES
                .iter()
                .map(|stage| crate::perf::StageRow {
                    stage: (*stage).to_string(),
                    vms: usize::from(!crate::perf::is_graph_stage(stage)) * 5,
                    threads: 1,
                    median_ms: 2.0,
                    p95_ms: 3.0,
                    speedup_vs_1t: 1.0,
                    graph_nodes: 10,
                    graph_edges: 20,
                })
                .collect(),
        };
        perf.write(&path).unwrap();

        tiny_report().merge_into(&path).unwrap();
        // The perf loader still validates the merged document (unknown
        // keys are ignored), and the loadgen section reads back intact.
        let reloaded = crate::perf::PerfReport::load(&path).unwrap();
        assert_eq!(reloaded.rows.len(), perf.rows.len());
        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let section = doc.field(LOADGEN_KEY).expect("loadgen key present");
        let back: LoadGenReport = serde::Deserialize::from_value(section).unwrap();
        assert_eq!(back, tiny_report());

        // Merging again replaces, not duplicates.
        tiny_report().merge_into(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches(LOADGEN_KEY).count(), 1);
    }

    #[test]
    fn merge_into_a_fresh_file_creates_it() {
        let dir = std::env::temp_dir().join("prvm-loadgen-fresh-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("new.json");
        tiny_report().merge_into(&path).unwrap();
        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(doc.field(LOADGEN_KEY).is_ok());
    }

    /// End-to-end smoke: a real daemon on a loopback port, driven by the
    /// full loadgen path, merged into a fresh report file.
    #[test]
    fn loadgen_drives_a_live_daemon() {
        let dir = std::env::temp_dir().join("prvm-loadgen-e2e-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let catalog = CatalogSpec::ec2(6).with_quantizer(Quantizer {
            core_slots: 2,
            mem_levels: 4,
            disk_levels: 2,
        });
        let store = Store::open(dir.join("store")).unwrap();
        let handle =
            Server::start(&catalog, store, ServerConfig::default(), "127.0.0.1:0").unwrap();

        let out = dir.join("BENCH_PRVM.json");
        let args = LoadGenArgs {
            addr: handle.addr().to_string(),
            requests: 40,
            connections: 2,
            seed: 7,
            deadline_ms: 5000,
            out: Some(out.clone()),
        };
        main_with(&args).unwrap();
        let _ = handle.shutdown();

        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let report: LoadGenReport =
            serde::Deserialize::from_value(doc.field(LOADGEN_KEY).unwrap()).unwrap();
        report.validate().unwrap();
        assert!(report.placed > 0, "the mix must place VMs");
        assert!(report.samples > 0, "latency samples recorded");
        assert!(report.latency.max_ms >= report.latency.p50_ms);
    }
}
