//! Ablation: PageRank vote orientation (DESIGN.md §5).
//!
//! The paper's pseudocode pushes rank **toward fuller** profiles; its
//! worked examples require rank flowing **toward emptier** profiles (see
//! `pagerankvm::pagerank` docs). This binary runs the full simulation with
//! both orientations — and with the BPRU discount switched off — to show
//! which combination actually delivers the paper's experimental claims.

use pagerankvm::{
    GraphLimits, Orientation, PageRankConfig, PageRankEviction, PageRankVmPlacer, ScoreBook,
};
use prvm_bench::{report_line, CliArgs};
use prvm_model::{catalog, Quantizer};
use prvm_sim::{build_cluster, simulate, SimConfig, Workload, WorkloadConfig};
use prvm_traces::TraceKind;
use std::sync::Arc;

fn book(orientation: Orientation) -> Arc<ScoreBook> {
    Arc::new(
        ScoreBook::build(
            Quantizer::default(),
            &catalog::ec2_pm_types(),
            &catalog::ec2_vm_types(),
            &PageRankConfig {
                orientation,
                ..PageRankConfig::default()
            },
            GraphLimits::default(),
        )
        .expect("EC2 graph builds"),
    )
}

fn main() -> Result<(), String> {
    let args = CliArgs::from_env();
    let sim = SimConfig::default();

    report_line(format_args!(
        "{:<16} {:>6} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "orientation", "#VMs", "PMs used", "PMs initial", "energy kWh", "migr", "SLO %"
    ))?;
    for orientation in [Orientation::TowardEmptier, Orientation::TowardFuller] {
        let book = book(orientation);
        for &n in &args.vms {
            let wl = WorkloadConfig::sized_for(n, TraceKind::PlanetLab);
            let mut pms = Vec::new();
            let mut initial = Vec::new();
            let mut energy = Vec::new();
            let mut migr = Vec::new();
            let mut slo = Vec::new();
            for r in 0..args.repeats {
                let seed = args.seed.wrapping_add(r as u64);
                let workload = Workload::generate(&wl, sim.scans(), seed);
                let mut placer = PageRankVmPlacer::new(book.clone());
                let mut evictor = PageRankEviction::new(book.clone());
                let o = simulate(
                    &sim,
                    build_cluster(&wl),
                    &workload,
                    &mut placer,
                    &mut evictor,
                );
                pms.push(o.pms_used as f64);
                initial.push(o.pms_used_initial as f64);
                energy.push(o.energy_kwh);
                migr.push(o.migrations as f64);
                slo.push(o.slo_violation_pct);
            }
            let med = |v: &[f64]| prvm_traces::stats::Percentiles::of(v).median;
            report_line(format_args!(
                "{:<16} {:>6} {:>10.1} {:>12.1} {:>12.1} {:>10.1} {:>8.2}",
                format!("{orientation:?}"),
                n,
                med(&pms),
                med(&initial),
                med(&energy),
                med(&migr),
                med(&slo)
            ))?;
        }
    }
    Ok(())
}
