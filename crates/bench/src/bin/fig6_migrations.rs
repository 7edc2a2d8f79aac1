//! Fig. 6(a)/(b): number of VM migrations over the 24 h simulation, both
//! traces.
//!
//! Expected shape (paper): PageRankVM < CompVM < FFDSum < FF.

use prvm_bench::{print_metric_table, sim_sweep, CliArgs};

fn main() -> Result<(), String> {
    let args = CliArgs::from_env();
    let sweep = sim_sweep(&args);
    print_metric_table(
        "Fig. 6(a): number of VM migrations",
        &sweep.rows,
        "PlanetLab",
        |r| r.migrations,
    )?;
    print_metric_table(
        "Fig. 6(b): number of VM migrations",
        &sweep.rows,
        "GoogleCluster",
        |r| r.migrations,
    )?;
    Ok(())
}
