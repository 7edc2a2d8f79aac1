//! Ablation: the 2-choice sampled placer (§V-C) versus the exhaustive
//! Algorithm 2 scan — packing quality and placement latency.
//!
//! The paper cites the power-of-two-choices results to argue that polling
//! two random PMs captures most of the benefit at O(1) cost; this bench
//! quantifies the claim, including larger poll sizes.

use pagerankvm::{PageRankVmPlacer, TwoChoicePlacer};
use prvm_bench::{report_line, CliArgs};
use prvm_model::{catalog, place_batch, Cluster, PlacementAlgorithm};
use prvm_sim::ec2_score_book;
use std::num::NonZeroUsize;
use std::time::Instant;

fn main() -> Result<(), String> {
    let args = CliArgs::from_env();
    let book = ec2_score_book().expect("EC2 catalog graph builds");
    let types = catalog::ec2_vm_types();

    report_line(format_args!(
        "{:<22} {:>6} {:>10} {:>14}",
        "placer", "#VMs", "PMs used", "time/placement"
    ))?;
    for &n in &args.vms {
        let vms: Vec<_> = (0..n)
            .map(|i| types[(i * 7) % types.len()].clone())
            .collect();
        let run = |name: &str, placer: &mut dyn PlacementAlgorithm| {
            let mut cluster = Cluster::from_specs((0..n).map(|i| {
                if i % 3 == 2 {
                    catalog::pm_c3()
                } else {
                    catalog::pm_m3()
                }
            }));
            let t0 = Instant::now();
            place_batch(placer, &mut cluster, vms.clone()).expect("pool sized");
            let per = t0.elapsed() / n as u32;
            report_line(format_args!(
                "{:<22} {:>6} {:>10} {:>14.1?}",
                name,
                n,
                cluster.active_pm_count(),
                per
            ))
        };
        run(
            "exhaustive (Alg. 2)",
            &mut PageRankVmPlacer::new(book.clone()),
        )?;
        for poll in [2, 4, 8].into_iter().filter_map(NonZeroUsize::new) {
            run(
                &format!("{poll}-choice"),
                &mut TwoChoicePlacer::with_poll_size(book.clone(), args.seed, poll),
            )?;
        }
    }
    report_line(format_args!(
        "\n(2-choice trades a few extra PMs for near-constant placement cost)"
    ))?;
    Ok(())
}
