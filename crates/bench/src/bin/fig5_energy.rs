//! Fig. 5(a)/(b): cumulative energy consumption (kWh) over the 24 h
//! simulation, both traces.
//!
//! Expected shape (paper): PageRankVM < CompVM < FFDSum < FF.

use prvm_bench::{print_metric_table, sim_sweep, CliArgs};

fn main() -> Result<(), String> {
    let args = CliArgs::from_env();
    let sweep = sim_sweep(&args);
    print_metric_table(
        "Fig. 5(a): energy consumption (kWh)",
        &sweep.rows,
        "PlanetLab",
        |r| r.energy_kwh,
    )?;
    print_metric_table(
        "Fig. 5(b): energy consumption (kWh)",
        &sweep.rows,
        "GoogleCluster",
        |r| r.energy_kwh,
    )?;
    Ok(())
}
