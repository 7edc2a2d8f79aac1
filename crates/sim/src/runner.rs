//! Repeated-run experiment harness: the paper repeats every configuration
//! (it uses 100 repetitions) and reports the median with 1st/99th
//! percentile error bars.

use crate::config::{SimConfig, WorkloadConfig};
use crate::engine::{simulate, SimOutcome};
use crate::workload::{build_cluster, Workload};
use pagerankvm::{PageRankEviction, PageRankVmPlacer, ScoreBook, TwoChoicePlacer};
use prvm_baselines::{BestFit, CompVm, FfdSum, FirstFit, MinimumMigrationTime, WorstFit};
use prvm_model::{catalog, EvictionPolicy, PlacementAlgorithm};
use prvm_traces::stats::Percentiles;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The placement algorithms the experiments compare (§VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// PageRankVM with its own eviction rule.
    PageRankVm,
    /// The 2-choice sampled variant of PageRankVM (§V-C).
    TwoChoice,
    /// First Fit with CloudSim's MMT eviction.
    FirstFit,
    /// FFDSum with MMT eviction.
    FfdSum,
    /// CompVM with MMT eviction.
    CompVm,
    /// Best fit (ablation extra).
    BestFit,
    /// Worst fit (ablation extra).
    WorstFit,
}

impl Algorithm {
    /// The four algorithms of the paper's figures, in plot order.
    pub const PAPER_SET: [Algorithm; 4] = [
        Algorithm::PageRankVm,
        Algorithm::CompVm,
        Algorithm::FfdSum,
        Algorithm::FirstFit,
    ];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::PageRankVm => "PageRankVM",
            Self::TwoChoice => "PageRankVM-2choice",
            Self::FirstFit => "FF",
            Self::FfdSum => "FFDSum",
            Self::CompVm => "CompVM",
            Self::BestFit => "BestFit",
            Self::WorstFit => "WorstFit",
        }
    }

    /// Build the placer and eviction policy for one run.
    ///
    /// `book` carries the Profile–PageRank score tables; only the
    /// PageRank-based algorithms use it.
    #[must_use]
    pub fn build(
        self,
        book: &Arc<ScoreBook>,
        seed: u64,
    ) -> (Box<dyn PlacementAlgorithm>, Box<dyn EvictionPolicy>) {
        match self {
            Self::PageRankVm => (
                Box::new(PageRankVmPlacer::new(book.clone())),
                Box::new(PageRankEviction::new(book.clone())),
            ),
            Self::TwoChoice => (
                Box::new(TwoChoicePlacer::new(book.clone(), seed)),
                Box::new(PageRankEviction::new(book.clone())),
            ),
            Self::FirstFit => (
                Box::new(FirstFit::new()),
                Box::new(MinimumMigrationTime::new()),
            ),
            Self::FfdSum => (
                Box::new(FfdSum::new(catalog::pm_m3())),
                Box::new(MinimumMigrationTime::new()),
            ),
            Self::CompVm => (
                Box::new(CompVm::new()),
                Box::new(MinimumMigrationTime::new()),
            ),
            Self::BestFit => (
                Box::new(BestFit::new()),
                Box::new(MinimumMigrationTime::new()),
            ),
            Self::WorstFit => (
                Box::new(WorstFit::new()),
                Box::new(MinimumMigrationTime::new()),
            ),
        }
    }
}

/// Median/p1/p99 summaries of every metric across the repeats of one
/// configuration — one "error bar" of the paper's figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Algorithm display name.
    pub algorithm: String,
    /// Number of VM requests.
    pub n_vms: usize,
    /// Trace family label.
    pub trace: String,
    /// Repeats aggregated.
    pub repeats: usize,
    /// Distinct PMs ever used over the run.
    pub pms_used: Percentiles,
    /// PMs active right after initial allocation (before any migration).
    pub pms_used_initial: Percentiles,
    /// Peak simultaneously-active PMs — the Fig. 3 / Fig. 4(a) metric.
    pub pms_used_max_active: Percentiles,
    /// Energy in kWh (Fig. 5).
    pub energy_kwh: Percentiles,
    /// Migrations (Fig. 6 / Fig. 4(b)).
    pub migrations: Percentiles,
    /// SLO violation percentage (Fig. 7 / Fig. 8).
    pub slo_pct: Percentiles,
    /// Mean rejected requests (should be 0).
    pub mean_rejected: f64,
}

/// Run `algorithm` `repeats` times on fresh seeded workloads and summarise.
///
/// Repeats are independent (each builds its own workload, cluster and
/// placer from its own seed), so they run in parallel on the global
/// [`prvm_par::Pool`]; outcomes are collected in repeat order, keeping
/// every percentile summary identical to a sequential run at any
/// worker count (DESIGN.md §10).
#[must_use]
pub fn run_repeats(
    algorithm: Algorithm,
    book: &Arc<ScoreBook>,
    sim: &SimConfig,
    wl: &WorkloadConfig,
    repeats: usize,
    base_seed: u64,
) -> MetricSummary {
    let outcomes: Vec<SimOutcome> = prvm_par::Pool::global().map_index(repeats, |r| {
        let seed = base_seed.wrapping_add(r as u64);
        let workload = Workload::generate(wl, sim.scans(), seed);
        let cluster = build_cluster(wl);
        let (mut placer, mut evictor) = algorithm.build(book, seed);
        simulate(sim, cluster, &workload, placer.as_mut(), evictor.as_mut())
    });

    let collect = |f: &dyn Fn(&SimOutcome) -> f64| -> Percentiles {
        Percentiles::of(&outcomes.iter().map(f).collect::<Vec<_>>())
    };
    MetricSummary {
        algorithm: algorithm.name().to_string(),
        n_vms: wl.n_vms,
        trace: wl.trace_kind.label().to_string(),
        repeats,
        pms_used: collect(&|o| o.pms_used as f64),
        pms_used_initial: collect(&|o| o.pms_used_initial as f64),
        pms_used_max_active: collect(&|o| o.pms_used_max_active as f64),
        energy_kwh: collect(&|o| o.energy_kwh),
        migrations: collect(&|o| o.migrations as f64),
        slo_pct: collect(&|o| o.slo_violation_pct),
        mean_rejected: outcomes.iter().map(|o| o.rejected_vms as f64).sum::<f64>()
            / repeats.max(1) as f64,
    }
}

/// Build the score book for the EC2 catalog — the shared preprocessing
/// step of every PageRankVM experiment.
///
/// # Errors
///
/// Propagates [`pagerankvm::GraphError`] if the profile graph cannot be
/// built with the default quantizer (cannot happen for the Table I/II
/// catalog).
pub fn ec2_score_book() -> Result<Arc<ScoreBook>, pagerankvm::GraphError> {
    Ok(Arc::new(ScoreBook::build(
        prvm_model::Quantizer::default(),
        &catalog::ec2_pm_types(),
        &catalog::ec2_vm_types(),
        &pagerankvm::PageRankConfig::default(),
        pagerankvm::GraphLimits::default(),
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_model::Quantizer;
    use prvm_traces::TraceKind;

    fn coarse_book() -> Result<Arc<ScoreBook>, pagerankvm::GraphError> {
        Ok(Arc::new(ScoreBook::build(
            Quantizer {
                core_slots: 2,
                mem_levels: 4,
                disk_levels: 2,
            },
            &catalog::ec2_pm_types(),
            &catalog::ec2_vm_types(),
            &pagerankvm::PageRankConfig::default(),
            pagerankvm::GraphLimits::default(),
        )?))
    }

    #[test]
    fn every_algorithm_constructs() -> Result<(), pagerankvm::GraphError> {
        let book = coarse_book()?;
        for algo in [
            Algorithm::PageRankVm,
            Algorithm::TwoChoice,
            Algorithm::FirstFit,
            Algorithm::FfdSum,
            Algorithm::CompVm,
            Algorithm::BestFit,
            Algorithm::WorstFit,
        ] {
            let (p, e) = algo.build(&book, 1);
            assert!(!p.name().is_empty());
            assert!(!e.name().is_empty());
        }
        Ok(())
    }

    #[test]
    fn run_repeats_aggregates() -> Result<(), pagerankvm::GraphError> {
        let book = coarse_book()?;
        let sim = SimConfig {
            horizon_s: 1800,
            ..SimConfig::default()
        };
        let wl = WorkloadConfig {
            n_vms: 30,
            trace_kind: TraceKind::PlanetLab,
            m3_pms: 30,
            c3_pms: 15,
        };
        let s = run_repeats(Algorithm::FirstFit, &book, &sim, &wl, 3, 11);
        assert_eq!(s.repeats, 3);
        assert_eq!(s.algorithm, "FF");
        assert!(s.pms_used.median >= 1.0);
        assert_eq!(s.mean_rejected, 0.0);
        assert!(s.pms_used.p1 <= s.pms_used.median);
        assert!(s.pms_used.median <= s.pms_used.p99);
        Ok(())
    }

    #[test]
    fn pagerankvm_uses_fewer_or_equal_pms_than_ff_on_small_runs(
    ) -> Result<(), pagerankvm::GraphError> {
        // Smoke-scale version of the paper's headline: on a modest
        // workload PageRankVM should not need more PMs than FF.
        let book = coarse_book()?;
        let sim = SimConfig {
            horizon_s: 900,
            ..SimConfig::default()
        };
        let wl = WorkloadConfig {
            n_vms: 60,
            trace_kind: TraceKind::PlanetLab,
            m3_pms: 60,
            c3_pms: 30,
        };
        let pr = run_repeats(Algorithm::PageRankVm, &book, &sim, &wl, 3, 21);
        let ff = run_repeats(Algorithm::FirstFit, &book, &sim, &wl, 3, 21);
        assert!(
            pr.pms_used.median <= ff.pms_used.median,
            "PageRankVM {} vs FF {}",
            pr.pms_used.median,
            ff.pms_used.median
        );
        Ok(())
    }
}
