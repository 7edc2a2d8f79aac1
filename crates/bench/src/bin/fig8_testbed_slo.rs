//! Fig. 8: SLO violations in the GENI testbed emulation (Google trace).
//!
//! Expected shape (paper): PageRankVM < CompVM < FFDSum < FF.

use prvm_bench::{print_testbed_table, testbed_sweep, CliArgs};

fn main() -> Result<(), String> {
    let args = CliArgs::from_env();
    let sweep = testbed_sweep(&args);
    print_testbed_table("Fig. 8: SLO violations (%)", &sweep.rows, |r| r.slo_pct)?;
    Ok(())
}
