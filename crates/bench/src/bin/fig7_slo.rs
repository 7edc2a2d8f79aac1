//! Fig. 7(a)/(b): SLO violations (% of time active hosts sat at 100 % CPU)
//! over the 24 h simulation, both traces.
//!
//! Expected shape (paper): PageRankVM < CompVM < FFDSum < FF.

use prvm_bench::{print_metric_table, sim_sweep, CliArgs};

fn main() -> Result<(), String> {
    let args = CliArgs::from_env();
    let sweep = sim_sweep(&args);
    print_metric_table(
        "Fig. 7(a): SLO violations (%)",
        &sweep.rows,
        "PlanetLab",
        |r| r.slo_pct,
    )?;
    print_metric_table(
        "Fig. 7(b): SLO violations (%)",
        &sweep.rows,
        "GoogleCluster",
        |r| r.slo_pct,
    )?;
    Ok(())
}
