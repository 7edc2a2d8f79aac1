//! `place-churn`: Algorithm 2's per-VM scan under arrive-and-leave churn.
//!
//! In-process `PageRankVmPlacer::choose` plus `Cluster::place`/`remove`
//! on the full-resolution EC2 score book, loaded from its PVSB artifact.
//! An m3/c3 pool is filled (untimed) to `USED_PMS` used PMs, each left
//! with room, so `choose` scans nearly all used PMs: no I/O and no wire.
//! Every op removes a seeded random resident VM and places a VM of a
//! seeded type, then rolls both back. Without the rollback the cluster
//! drifts during a run and the cost per op doubles within 20 s, so a
//! faster host would measure a costlier state.

use crate::trace::Tracer;
use crate::util::{ms, Report, Rng, Samples, Speed, Stopwatch};
use crate::Args;
use pagerankvm::{audit, PageRankVmPlacer, ScoreBook};
use prvm_model::{catalog, Cluster, PlacementAlgorithm, VmId, VmSpec};
use prvm_sim::{build_cluster, WorkloadConfig};
use prvm_traces::TraceKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Used PMs after the fill.
const USED_PMS: usize = 1000;
/// Fill each PM up to this share of its CPU and memory, leaving room.
const FILL_SHARE: f64 = 0.8;
/// Untimed churn ops before timing starts.
const WARMUP_OPS: usize = 100;
/// Wall-time slice of the timed phase. The host's speed moves from one
/// second to the next, and single ops cost several-fold different
/// amounts by VM type, so the typical cost per op is the median over
/// slices of the slice's mean, each scaled to the reference host speed
/// (`Speed`).
const SLICE: Duration = Duration::from_secs(1);
/// Ops per window of the tail: its p99 has ten samples beyond it.
const TAIL_WINDOW: usize = 1000;
/// PVSB loads timed for `setup_s`; the median is reported.
const SETUP_REPEATS: usize = 7;
/// Key for the benchmark's own PVSB artifact.
const CATALOG_HASH: u64 = 0x7072_766d_6368_726e;

/// The PVSB artifact of the full-resolution book, written by this very
/// binary: the file name carries the executable's size and mtime, so a
/// rebuilt benchmark never reads an artifact an older build wrote. The
/// build runs in a child process, off the clock and outside this
/// process's peak RSS.
fn book_artifact(work: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let path = work.join(format!("book-full-{}-{mtime}.pvsb", meta.len()));
    if !path.exists() {
        // Artifacts of earlier builds are stale: remove them.
        if let Ok(entries) = std::fs::read_dir(work) {
            for entry in entries.flatten() {
                if entry
                    .file_name()
                    .to_string_lossy()
                    .starts_with("book-full-")
                {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let status = std::process::Command::new(&exe)
            .arg("--prepare-book")
            .arg(&path)
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("preparing {} failed: {status}", path.display()));
        }
    }
    Ok(path)
}

/// Build the full-resolution book and write it to `path` (the
/// `--prepare-book` mode).
pub fn prepare_book(path: &Path) -> Result<(), String> {
    let book = crate::book_refresh::cold_book(&catalog::ec2_vm_types())?;
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    book.save(&mut f, CATALOG_HASH)
        .map_err(|e| format!("save book: {e}"))?;
    f.sync_all().map_err(|e| format!("sync book: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_book(path: &Path) -> Result<ScoreBook, String> {
    let mut f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ScoreBook::load(&mut f, CATALOG_HASH).map_err(|e| format!("load {}: {e}", path.display()))
}

/// The filled pool and the ids of its residents.
fn fill(rng: &mut Rng, types: &[VmSpec]) -> Result<(Cluster, Vec<VmId>), String> {
    let mut cluster = build_cluster(&WorkloadConfig {
        n_vms: 0,
        trace_kind: TraceKind::PlanetLab,
        m3_pms: USED_PMS,
        c3_pms: USED_PMS / 2,
    });
    let mut residents = Vec::new();
    let mut next = types[rng.below(types.len())].clone();
    for pm_id in cluster.unused_pms().collect::<Vec<_>>() {
        if cluster.active_pm_count() >= USED_PMS {
            break;
        }
        loop {
            let pm = cluster.pm(pm_id);
            let fits = pm.first_feasible(&next).filter(|_| {
                let cpu = (pm.total_cpu_used().as_f64() + next.total_cpu().as_f64())
                    / pm.spec().total_cpu().as_f64();
                let mem = pm.mem_utilization() + next.memory.as_f64() / pm.spec().memory.as_f64();
                cpu <= FILL_SHARE && mem <= FILL_SHARE
            });
            let Some(assignment) = fits else { break };
            let id = cluster
                .place(pm_id, next.clone(), assignment)
                .map_err(|e| format!("fill: {e}"))?;
            residents.push(id);
            next = types[rng.below(types.len())].clone();
        }
    }
    if cluster.active_pm_count() < USED_PMS {
        return Err(format!(
            "fill reached only {} used PMs",
            cluster.active_pm_count()
        ));
    }
    Ok((cluster, residents))
}

struct Churn {
    cluster: Cluster,
    residents: Vec<VmId>,
    placer: PageRankVmPlacer,
    types: Vec<VmSpec>,
    rng: Rng,
    failed: u64,
}

impl Churn {
    /// One op: remove a random resident, place a VM of a random type,
    /// then roll both back, so every op sees the filled cluster.
    fn op(&mut self, tracer: &mut Tracer, req: u64) -> Result<(), String> {
        let slot = self.rng.below(self.residents.len());
        let victim = self.residents[slot];
        let spec = self.types[self.rng.below(self.types.len())].clone();
        let op = tracer.begin("churn.op", req);
        let removed = tracer.span("cluster.remove", req, || self.cluster.remove(victim));
        let (from, old_spec, old_assignment) =
            removed.map_err(|e| format!("remove {victim:?}: {e}"))?;
        let decision = tracer.span("placer.choose", req, || {
            self.placer.choose(&self.cluster, &spec, &|_| false)
        });
        let placed = match decision {
            Some(d) => Some(
                tracer
                    .span("cluster.place", req, || {
                        self.cluster.place(d.pm, spec, d.assignment)
                    })
                    .map_err(|e| format!("place on {:?}: {e}", d.pm))?,
            ),
            None => {
                self.failed += 1;
                None
            }
        };
        tracer.end(op);
        if let Some(id) = placed {
            self.cluster
                .remove(id)
                .map_err(|e| format!("roll back {id:?}: {e}"))?;
        }
        self.cluster
            .place_as(victim, from, old_spec, old_assignment)
            .map_err(|e| format!("restore {victim:?}: {e}"))?;
        Ok(())
    }

    /// Run ops for `budget` of wall time, pushing each op's on-CPU ms
    /// to `lat`.
    fn timed(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        lat: &mut Samples,
    ) -> Result<Phase, String> {
        let mut speed = Speed::start()?;
        let start = Stopwatch::start()?;
        let mut ops = 0u64;
        let mut used_sum = 0.0;
        let mut slices = Samples::default();
        let mut raw_slices = Samples::default();
        let (mut scaled_ms, mut scaled_ops) = (0.0, 0u64);
        let (mut slice_ms, mut slice_ops, mut slice_end) = (0.0, 0u32, SLICE);
        while start.read()?.0 < budget {
            let t = Stopwatch::start()?;
            self.op(tracer, ops)?;
            let op_ms = ms(t.read()?.1);
            lat.push(op_ms);
            used_sum += self.cluster.active_pm_count() as f64;
            ops += 1;
            slice_ms += op_ms;
            slice_ops += 1;
            if start.read()?.0 >= slice_end {
                let scale = speed.scale()?;
                slices.push(slice_ms * scale / f64::from(slice_ops));
                raw_slices.push(slice_ms / f64::from(slice_ops));
                scaled_ms += slice_ms * scale;
                scaled_ops += u64::from(slice_ops);
                (slice_ms, slice_ops, slice_end) = (0.0, 0, slice_end + SLICE);
            }
        }
        let (wall, cpu) = start.read()?;
        Ok(Phase {
            ops,
            wall,
            cpu,
            slices,
            raw_slices,
            scaled_rate: scaled_ops as f64 * 1e3 / scaled_ms,
            used: used_sum / ops.max(1) as f64,
        })
    }
}

/// What a timed phase did.
struct Phase {
    ops: u64,
    wall: Duration,
    cpu: Duration,
    /// Mean on-CPU ms per op in each whole `SLICE` of wall time, scaled
    /// to the reference host speed.
    slices: Samples,
    /// The same, unscaled.
    raw_slices: Samples,
    /// Ops per scaled on-CPU second over the whole slices.
    scaled_rate: f64,
    /// Mean used PMs over the phase.
    used: f64,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let artifact = book_artifact(&args.work)?;

    let mut loads = Samples::default();
    let mut raw_loads = Samples::default();
    let mut book = None;
    let mut speed = Speed::start()?;
    for _ in 0..SETUP_REPEATS {
        drop(book.take());
        let t = Stopwatch::start()?;
        let b = load_book(&artifact)?;
        let cpu = t.read()?.1.as_secs_f64();
        loads.push(cpu * speed.scale()?);
        raw_loads.push(cpu);
        book = Some(b);
    }
    let book = Arc::new(book.ok_or("no book loaded")?);
    let setup_s = loads.median();

    let types = catalog::ec2_vm_types();
    let mut rng = Rng::new(args.seed);
    let (cluster, residents) = fill(&mut rng, &types)?;
    let mut churn = Churn {
        cluster,
        residents,
        placer: PageRankVmPlacer::new(Arc::clone(&book)),
        types,
        rng,
        failed: 0,
    };
    let mut off = Tracer::new(false);
    for i in 0..WARMUP_OPS {
        churn.op(&mut off, i as u64)?;
    }
    churn.failed = 0;

    let total = Duration::from_secs_f64(args.seconds);
    let mut lat = Samples::default();
    if args.trace {
        // Untraced half, then traced half: the ratio is the overhead.
        let plain = churn.timed(total / 2, &mut off, &mut Samples::default())?;
        let reg = prvm_obs::Registry::replace_global();
        let mut tracer = Tracer::new(true);
        let traced_phase = churn.timed(total / 2, &mut tracer, &mut lat)?;
        let (ops0, ops, used) = (plain.ops, traced_phase.ops, traced_phase.used);
        let untraced = ops0 as f64 / plain.cpu.as_secs_f64();
        let traced = ops as f64 / traced_phase.cpu.as_secs_f64();
        report.metric(
            "bench.trace_overhead_pct",
            (untraced / traced - 1.0) * 100.0,
            "%",
            (ops0 + ops) as usize,
        );
        let mut choose = tracer.durations_us("placer.choose");
        let chooses = choose.len().max(1) as f64;
        let scanned = reg.counter("placer.used_pms_scanned").get() as f64;
        let perms = reg.counter("placer.permutations_evaluated").get() as f64;
        let fallbacks = reg.counter("placer.quantized_fallbacks").get() as f64;
        let n = choose.len();
        report.metric("placer.choose_us.p50", choose.median(), "us", n);
        report.metric_p99("placer.choose_us.p99", &mut choose, "us");
        report.metric("placer.scanned_per_choose", scanned / chooses, "PMs", n);
        report.metric(
            "placer.permutations_per_choose",
            perms / chooses,
            "count",
            n,
        );
        report.metric(
            "placer.ns_per_scanned_pm",
            choose.sum() * 1e3 / scanned.max(1.0),
            "ns",
            n,
        );
        report.metric("placer.fallback_ratio", fallbacks / chooses, "ratio", n);
        let mut place = tracer.durations_us("cluster.place");
        let mut remove = tracer.durations_us("cluster.remove");
        report.metric("cluster.place_us.p50", place.median(), "us", place.len());
        report.metric("cluster.remove_us.p50", remove.median(), "us", remove.len());
        report.metric("quality.pms_used", used, "PMs", ops as usize);
        report.metric("cache.load_ms", raw_loads.median() * 1e3, "ms", loads.len());
        let save_path = args.work.join(format!("save-{}.pvsb", std::process::id()));
        let t = Instant::now();
        let mut f = std::fs::File::create(&save_path)
            .map_err(|e| format!("{}: {e}", save_path.display()))?;
        book.save(&mut f, CATALOG_HASH)
            .map_err(|e| format!("save book: {e}"))?;
        f.sync_all().map_err(|e| format!("sync: {e}"))?;
        report.metric("cache.save_ms", ms(t.elapsed()), "ms", 1);
        drop(f);
        let _ = std::fs::remove_file(&save_path);
        report.metric("bench.spans", tracer.len() as f64, "count", 1);
        let trace_path = args
            .work
            .join(format!("trace-place-churn-{}.json", args.seed));
        tracer.write_chrome(&trace_path)?;
        report.info(format!("chrome trace: {}", trace_path.display()));
        report.attempted = ops0 + ops;
    } else {
        let phase = churn.timed(total, &mut off, &mut lat)?;
        let ops = phase.ops;
        report.attempted = ops;
        report.metric_note(
            "setup_s",
            setup_s,
            "s",
            loads.len(),
            format!("scaled on-CPU s; unscaled {:.4}", raw_loads.median()),
        );
        let mut slices = phase.slices;
        let typical = slices.median();
        report.metric_note(
            "ops_per_s",
            phase.scaled_rate,
            "1/s",
            ops as usize,
            format!(
                "whole phase per scaled on-CPU second; unscaled {:.1} per on-CPU second, \
                 {:.1} per wall second",
                ops as f64 / phase.cpu.as_secs_f64(),
                ops as f64 / phase.wall.as_secs_f64()
            ),
        );
        report.metric_note(
            "lat_p50_ms",
            typical,
            "ms",
            slices.len(),
            format!(
                "median over {} one-second slices of the mean scaled on-CPU ms per op; \
                 unscaled {:.3}, per-op p50 {:.3}",
                slices.len(),
                phase.raw_slices.clone().median(),
                lat.median()
            ),
        );
        let (tail, windows) = lat.windowed_p99(TAIL_WINDOW);
        let (q, whole) = lat.tail();
        report.info(format!(
            "op on-CPU ms: p{:.0} {whole:.3}, median p99 of {windows} windows of {TAIL_WINDOW} \
             ops {tail:.3}; mean used PMs {:.1}",
            q * 100.0,
            phase.used
        ));
    }
    report.failed = churn.failed;
    report.metric(
        "ok_pct",
        100.0 * (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        "%",
        report.attempted as usize,
    );
    report.metric("peak_rss_mb", crate::util::peak_rss_mb(None)?, "MiB", 1);

    let audit = audit::check_cluster(&churn.cluster);
    report.check(audit.is_clean(), || {
        format!("cluster audit after churn: {audit}")
    });
    report.check(churn.failed == 0, || {
        format!("{} placements found no PM", churn.failed)
    });
    report.check(churn.cluster.vm_count() == churn.residents.len(), || {
        format!(
            "cluster holds {} VMs, the benchmark tracks {}",
            churn.cluster.vm_count(),
            churn.residents.len()
        )
    });
    Ok(report)
}
