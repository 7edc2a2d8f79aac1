//! Fig. 4(a)/(b): number of PMs used and number of migrations in the GENI
//! testbed emulation (Google trace).
//!
//! Expected shape (paper): PageRankVM uses the fewest nodes and migrates
//! least, with smaller margins than in simulation (fewer PMs, fewer
//! dimensions).

use prvm_bench::{print_testbed_table, report_line, testbed_sweep, CliArgs};

fn main() -> Result<(), String> {
    let args = CliArgs::from_env();
    let sweep = testbed_sweep(&args);
    print_testbed_table(
        "Fig. 4(a): number of PMs used by the allocation",
        &sweep.rows,
        |r| r.pms_used_initial,
    )?;
    print_testbed_table("Fig. 4(b): number of VM migrations", &sweep.rows, |r| {
        r.migrations
    })?;
    report_line(format_args!("\n(repeats = {})", sweep.repeats))?;
    Ok(())
}
