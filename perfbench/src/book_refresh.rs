//! `book-refresh`: the incremental graph and PageRank path.
//!
//! Setup is a cold `ScoreBook::build` of the base catalog: the EC2 VM
//! types without `c3.xlarge`. Each op is one `ScoreBook::extend` of the
//! base book by one VM type, cycling through `deltas()`: same-footprint
//! refreshes take the identity fast path, new footprints take a real
//! delta re-BFS plus a warm PageRank.

use crate::trace::Tracer;
use crate::util::{ms, Report, Samples, Speed, Stopwatch};
use crate::Args;
use pagerankvm::{
    audit, compute_bpru, pagerank, pagerank_warm, GraphLimits, PageRankConfig, ProfileGraph,
    ProfileSpace, ProfileVm, ScoreBook,
};
use prvm_model::{catalog, PmSpec, Quantizer, VmSpec};
use std::time::Duration;

/// Cold builds timed for `setup_s`; the median is reported.
const SETUP_REPEATS: usize = 3;

/// The base catalog: every EC2 VM type except `c3.xlarge`.
fn base_vms() -> Vec<VmSpec> {
    catalog::ec2_vm_types()
        .into_iter()
        .filter(|v| v.name != "c3.xlarge")
        .collect()
}

/// The refresh cycle, with `true` marking a structural delta. Two
/// identity refreshes to one structural delta keeps the median op on
/// the identity path; runs stop at cycle boundaries, so every run
/// measures the same mix.
fn deltas() -> Vec<(VmSpec, bool)> {
    let renamed = |v: VmSpec, name: &str| {
        VmSpec::new(name, v.vcpus, v.vcpu_mhz, v.memory, v.disks().to_vec())
    };
    vec![
        // Next-generation m3.2xlarge: same quantized footprint.
        (renamed(catalog::vm_m3_2xlarge(), "m3.2xlarge.g2"), false),
        // Next-generation m3.medium: same quantized footprint.
        (renamed(catalog::vm_m3_medium(), "m3.medium.g2"), false),
        // c3.xlarge joins the catalog: new edges, new profiles.
        (catalog::vm_c3_xlarge(), true),
    ]
}

fn quantized(q: &Quantizer, space: &ProfileSpace, pm: &PmSpec, vms: &[VmSpec]) -> Vec<ProfileVm> {
    vms.iter()
        .filter_map(|v| space.vm_demand(&q.quantize_vm(v, pm)))
        .collect()
}

/// Cold `ScoreBook::build` of the EC2 PM types against `vms`.
pub fn cold_book(vms: &[VmSpec]) -> Result<ScoreBook, String> {
    ScoreBook::build(
        Quantizer::default(),
        &catalog::ec2_pm_types(),
        vms,
        &PageRankConfig::default(),
        GraphLimits::default(),
    )
    .map_err(|e| format!("score book: {e}"))
}

fn scores(graph: &ProfileGraph, pr: &[f64]) -> Vec<f64> {
    pr.iter()
        .zip(compute_bpru(graph))
        .map(|(&p, b)| p * b)
        .collect()
}

/// The cold build decomposed into its layers, one span each per PM
/// type: graph build, cold PageRank, BPRU. Adds the cold-path
/// per-layer metrics to `report`.
pub fn cold_layers(report: &mut Report, tracer: &mut Tracer, vms: &[VmSpec]) -> Result<(), String> {
    let q = Quantizer::default();
    let config = PageRankConfig::default();
    let mut seen: Vec<PmSpec> = Vec::new();
    let (mut nodes, mut edges, mut sweeps) = (0usize, 0usize, 0usize);
    for pm in catalog::ec2_pm_types() {
        if seen.contains(&pm) {
            continue;
        }
        let space = ProfileSpace::from_quantized_pm(&q.quantize_pm(&pm));
        let demands = quantized(&q, &space, &pm, vms);
        let graph = tracer
            .span("graph.build", 0, || {
                ProfileGraph::build(space, demands, GraphLimits::default())
            })
            .map_err(|e| format!("graph build: {e}"))?;
        let pr = tracer.span("pagerank.cold", 0, || pagerank(&graph, &config));
        let bpru = tracer.span("bpru", 0, || compute_bpru(&graph));
        std::hint::black_box(bpru);
        nodes += graph.node_count();
        edges += graph.edge_count();
        sweeps += pr.iterations;
        seen.push(pm);
    }
    let sum_ms = |name: &str| tracer.durations_us(name).sum() / 1e3;
    report.metric("graph.build_ms", sum_ms("graph.build"), "ms", seen.len());
    report.metric("graph.nodes", nodes as f64, "count", seen.len());
    report.metric("graph.edges", edges as f64, "count", seen.len());
    report.metric(
        "pagerank.cold_ms",
        sum_ms("pagerank.cold"),
        "ms",
        seen.len(),
    );
    report.metric("pagerank.sweeps", sweeps as f64, "count", seen.len());
    report.metric(
        "pagerank.ms_per_sweep",
        sum_ms("pagerank.cold") / sweeps.max(1) as f64,
        "ms",
        sweeps,
    );
    report.metric("bpru.ms", sum_ms("bpru"), "ms", seen.len());
    Ok(())
}

/// Correctness, once per invocation and off the clock: every delta's
/// extended book equals a fresh build of the merged catalog's graph
/// with PageRank warm-started from the base scores (what
/// `ScoreBook::build_seeded` computes), score for score by `to_bits`,
/// and passes `audit::check_book`.
fn check_deltas(report: &mut Report, base: &ScoreBook) -> Result<(), String> {
    let config = PageRankConfig::default();
    let limits = GraphLimits::default();
    for (delta, _) in deltas() {
        let extended = base
            .extend(std::slice::from_ref(&delta), &config, limits)
            .map_err(|e| format!("extend {}: {e}", delta.name))?;
        let book_audit = audit::check_book(&extended);
        report.check(book_audit.is_clean(), || {
            format!("audit of the book extended by {}: {book_audit}", delta.name)
        });
        for ((pm, table), (_, ext)) in base.tables().zip(extended.tables()) {
            let space = table.space().clone();
            let merged: Vec<ProfileVm> = table
                .graph()
                .vm_types()
                .iter()
                .cloned()
                .chain(quantized(
                    base.quantizer(),
                    &space,
                    pm,
                    std::slice::from_ref(&delta),
                ))
                .collect();
            let fresh = ProfileGraph::build(space, merged, limits)
                .map_err(|e| format!("fresh merged graph: {e}"))?;
            let same_graph = fresh.node_count() == ext.graph().node_count()
                && fresh.node_ids().all(|id| {
                    fresh.profile(id) == ext.graph().profile(id)
                        && fresh.successors(id) == ext.graph().successors(id)
                });
            report.check(same_graph, || {
                format!(
                    "{} + {}: extended graph differs from a fresh build",
                    pm.name, delta.name
                )
            });
            let pr = pagerank_warm(&fresh, &config, table.graph(), &table.pagerank().scores);
            let want = scores(&fresh, &pr.scores);
            let same_scores = want.len() == ext.len()
                && ext
                    .iter()
                    .zip(&want)
                    .all(|((_, got), w)| got.to_bits() == w.to_bits());
            report.check(same_scores, || {
                format!(
                    "{} + {}: extended scores differ in bits",
                    pm.name, delta.name
                )
            });
        }
    }
    Ok(())
}

/// One refresh decomposed into its layers, under spans.
fn traced_refresh(
    base: &ScoreBook,
    delta: &VmSpec,
    structural: bool,
    tracer: &mut Tracer,
    req: u64,
    warm_sweeps: &mut Samples,
) -> Result<(), String> {
    let config = PageRankConfig::default();
    let open = tracer.begin("refresh", req);
    for (pm, table) in base.tables() {
        let demand = quantized(
            base.quantizer(),
            table.space(),
            pm,
            std::slice::from_ref(delta),
        );
        let name = if structural {
            "graph.extend.structural"
        } else {
            "graph.extend.identity"
        };
        let graph = tracer
            .span(name, req, || {
                table.graph().extend(demand, GraphLimits::default())
            })
            .map_err(|e| format!("extend: {e}"))?;
        let pr = tracer.span("pagerank.warm", req, || {
            pagerank_warm(&graph, &config, table.graph(), &table.pagerank().scores)
        });
        warm_sweeps.push(pr.iterations as f64);
        let s = tracer.span("bpru", req, || scores(&graph, &pr.scores));
        std::hint::black_box(s);
    }
    tracer.end(open);
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let base_types = base_vms();
    let mut setups = Samples::default();
    let mut raw_setups = Samples::default();
    let mut book = None;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut speed = Speed::start()?;
    for _ in 0..repeats {
        drop(book.take());
        let t = Stopwatch::start()?;
        let b = cold_book(&base_types)?;
        let cpu = t.read()?.1.as_secs_f64();
        setups.push(cpu * speed.scale()?);
        raw_setups.push(cpu);
        book = Some(b);
    }
    let base = book.ok_or("no book built")?;
    check_deltas(&mut report, &base)?;

    let config = PageRankConfig::default();
    let cycle = deltas();
    // The seed picks where in the cycle the run starts.
    let offset = (args.seed % cycle.len() as u64) as usize;
    let extend = |i: usize| -> Result<(), String> {
        let (delta, _) = &cycle[(offset + i) % cycle.len()];
        let b = base
            .extend(std::slice::from_ref(delta), &config, GraphLimits::default())
            .map_err(|e| format!("extend {}: {e}", delta.name))?;
        let _ = std::hint::black_box(b);
        Ok(())
    };
    // Warm-up: one pass over the cycle.
    for i in 0..cycle.len() {
        extend(i)?;
    }

    let total = Duration::from_secs_f64(args.seconds);
    // On-CPU ms per refresh, averaged over each whole cycle and scaled
    // to the reference host speed: the three refreshes of a cycle cost
    // very different amounts, and a median over single refreshes would
    // sit on the edge between two of them.
    let mut lat = Samples::default();
    let mut raw_lat = Samples::default();
    let mut speed = Speed::start()?;
    let start = Stopwatch::start()?;
    let budget = if args.trace { total / 2 } else { total };
    let mut ops = 0usize;
    let mut cycle_start = Stopwatch::start()?;
    while start.read()?.0 < budget || !ops.is_multiple_of(cycle.len()) {
        extend(ops)?;
        ops += 1;
        if ops.is_multiple_of(cycle.len()) {
            let per_op = ms(cycle_start.read()?.1) / cycle.len() as f64;
            lat.push(per_op * speed.scale()?);
            raw_lat.push(per_op);
            cycle_start = Stopwatch::start()?;
        }
    }
    let (wall, cpu) = start.read()?;
    report.attempted = ops as u64;

    if args.trace {
        let mut tracer = Tracer::new(true);
        let mut warm_sweeps = Samples::default();
        let start = Stopwatch::start()?;
        let mut traced_ops = 0usize;
        while start.read()?.0 < budget || !traced_ops.is_multiple_of(cycle.len()) {
            let (delta, structural) = &cycle[(offset + traced_ops) % cycle.len()];
            traced_refresh(
                &base,
                delta,
                *structural,
                &mut tracer,
                traced_ops as u64,
                &mut warm_sweeps,
            )?;
            traced_ops += 1;
        }
        let traced_cpu = start.read()?.1;
        report.attempted += traced_ops as u64;
        report.metric(
            "bench.trace_overhead_pct",
            (ops as f64 / cpu.as_secs_f64()) / (traced_ops as f64 / traced_cpu.as_secs_f64())
                * 100.0
                - 100.0,
            "%",
            ops + traced_ops,
        );
        // Per refresh: the sum over the book's tables.
        let per_op = |name: &str, ops: usize| {
            (
                tracer.durations_us(name).sum() / 1e3 / ops.max(1) as f64,
                ops,
            )
        };
        let structural_ops = (0..traced_ops)
            .filter(|i| cycle[(offset + i) % cycle.len()].1)
            .count();
        let (id_ms, id_n) = per_op("graph.extend.identity", traced_ops - structural_ops);
        let (st_ms, st_n) = per_op("graph.extend.structural", structural_ops);
        report.metric("graph.extend_ms.identity", id_ms, "ms", id_n);
        report.metric("graph.extend_ms.structural", st_ms, "ms", st_n);
        let (warm_ms, warm_n) = per_op("pagerank.warm", traced_ops);
        report.metric("pagerank.warm_ms", warm_ms, "ms", warm_n);
        report.metric(
            "pagerank.warm_sweeps",
            warm_sweeps.mean(),
            "count",
            warm_sweeps.len(),
        );
        report.metric("bench.spans", tracer.len() as f64, "count", 1);
        let trace_path = args
            .work
            .join(format!("trace-book-refresh-{}.json", args.seed));
        tracer.write_chrome(&trace_path)?;
        report.info(format!("chrome trace: {}", trace_path.display()));
        let mut cold = Tracer::new(true);
        cold_layers(&mut report, &mut cold, &base_types)?;
    } else {
        report.metric_note(
            "setup_s",
            setups.median(),
            "s",
            setups.len(),
            format!("scaled on-CPU s; unscaled {:.4}", raw_setups.median()),
        );
        let n = lat.len();
        let typical = lat.median();
        report.metric_note(
            "ops_per_s",
            1e3 / lat.mean(),
            "1/s",
            ops,
            format!(
                "whole phase, refreshes per scaled on-CPU second; unscaled {:.3} per on-CPU \
                 second, {:.3} per wall second",
                ops as f64 / cpu.as_secs_f64(),
                ops as f64 / wall.as_secs_f64()
            ),
        );
        report.metric_note(
            "lat_p50_ms",
            typical,
            "ms",
            n,
            format!(
                "scaled on-CPU, median over cycles of the mean refresh; unscaled {:.3}",
                raw_lat.median()
            ),
        );
    }
    report.metric("ok_pct", 100.0, "%", report.attempted as usize);
    report.metric("peak_rss_mb", crate::util::peak_rss_mb(None)?, "MiB", 1);
    Ok(report)
}
