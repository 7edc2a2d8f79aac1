//! Fig. 3(a)/(b): the number of PMs used in the simulation, PlanetLab and
//! Google traces, median with p1–p99 bars.
//!
//! Expected shape (paper): PageRankVM < CompVM < FFDSum < FF.

use prvm_bench::{print_metric_table, report_line, sim_sweep, CliArgs};

fn main() -> Result<(), String> {
    let args = CliArgs::from_env();
    let sweep = sim_sweep(&args);
    print_metric_table(
        "Fig. 3(a): number of PMs used by the allocation",
        &sweep.rows,
        "PlanetLab",
        |r| r.pms_used_initial,
    )?;
    print_metric_table(
        "Fig. 3(b): number of PMs used by the allocation",
        &sweep.rows,
        "GoogleCluster",
        |r| r.pms_used_initial,
    )?;
    print_metric_table(
        "Fig. 3 supplement: distinct PMs ever used over 24 h (incl. migration targets)",
        &sweep.rows,
        "PlanetLab",
        |r| r.pms_used,
    )?;
    print_metric_table(
        "Fig. 3 supplement: distinct PMs ever used over 24 h (incl. migration targets)",
        &sweep.rows,
        "GoogleCluster",
        |r| r.pms_used,
    )?;
    report_line(format_args!(
        "\n(repeats = {}; paper uses 100 — pass --repeats 100 to match)",
        sweep.repeats
    ))?;
    Ok(())
}
