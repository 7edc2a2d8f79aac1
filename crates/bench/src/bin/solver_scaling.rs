//! The paper's intractability claim (§IV): exact branch-and-bound on the
//! MIP model blows up quickly, while the heuristics stay fast — and on
//! instances the solver *can* finish, the heuristics' optimality gap is
//! measured.

use pagerankvm::PageRankVmPlacer;
use prvm_baselines::FirstFit;
use prvm_bench::report_line;
use prvm_model::{catalog, place_batch, Cluster, PlacementAlgorithm};
use prvm_sim::ec2_score_book;
use prvm_solver::{solve_min_pms, SolverConfig};
use std::time::{Duration, Instant};

fn main() -> Result<(), String> {
    let book = ec2_score_book().expect("EC2 catalog graph builds");
    let types = catalog::ec2_vm_types();

    for (family, pick) in [
        (
            // Memory-dominant: the aggregate bound is tight, B&B closes at
            // the root — easy even exactly.
            "memory-bound mix (Table I uniform)",
            Box::new(|i: usize| types[(i * 5) % types.len()].clone())
                as Box<dyn Fn(usize) -> prvm_model::VmSpec>,
        ),
        (
            // Anti-collocation-dominant: a 2600 MHz core holds only three
            // 700 MHz vCPUs, so 12 c3.large fill an M3's slots while the
            // aggregate CPU bound still says one PM — B&B must actually
            // search, and the space explodes (the paper's intractability
            // story).
            "cpu-slot-bound (all c3.large)",
            Box::new(|_| catalog::vm_c3_large()) as Box<dyn Fn(usize) -> prvm_model::VmSpec>,
        ),
    ] {
        report_line(format_args!("\n--- {family} ---"))?;
        report_line(format_args!(
            "{:>5} {:>9} {:>9} {:>10} {:>12} {:>10} {:>8}",
            "#VMs", "optimum", "proven", "B&B nodes", "B&B time", "PageRank", "FF"
        ))?;
        for n in [2usize, 4, 6, 8, 10, 12, 13, 14, 16] {
            let vms: Vec<_> = (0..n).map(&pick).collect();
            let pms = vec![catalog::pm_m3(); n];

            let t0 = Instant::now();
            let exact = solve_min_pms(
                &pms,
                &vms,
                &SolverConfig {
                    max_nodes: 2_000_000,
                    time_limit: Duration::from_secs(5),
                },
            )
            .expect("feasible");
            let elapsed = t0.elapsed();

            let heuristic = |mut algo: Box<dyn PlacementAlgorithm>| -> usize {
                let mut cluster = Cluster::from_specs(pms.clone());
                place_batch(algo.as_mut(), &mut cluster, vms.clone()).expect("fits");
                cluster.active_pm_count()
            };
            let pr = heuristic(Box::new(PageRankVmPlacer::new(book.clone())));
            let ff = heuristic(Box::new(FirstFit::new()));

            report_line(format_args!(
                "{:>5} {:>9} {:>9} {:>10} {:>12.1?} {:>10} {:>8}",
                n, exact.pm_count, exact.optimal, exact.nodes_explored, elapsed, pr, ff
            ))?;
        }
    }
    report_line(format_args!(
        "\n(B&B node counts grow combinatorially — the paper's argument for a\n\
         low-complexity heuristic; the heuristics stay within the optimum shown)"
    ))?;
    Ok(())
}
