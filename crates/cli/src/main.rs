//! `pagerankvm` — command-line front end for the reproduction.
//!
//! ```text
//! pagerankvm rank  [--profile 3,3,2,2] [--cap 4] [--dims 4]
//! pagerankvm place --vms 200 [--algo pagerankvm|ff|ffdsum|compvm] [--seed N]
//! pagerankvm simulate --vms 200 [--algo …] [--seed N] [--hours H] [--csv FILE]
//! pagerankvm testbed --jobs 150 [--algo …] [--seed N]
//! pagerankvm chaos [--target sim|serve] [--vms N] [--seed N] [--scans N]
//! pagerankvm serve --store DIR [--addr HOST:PORT] [--pms N] [--coarse]
//! pagerankvm serve-req OP [ARG] [--addr HOST:PORT]
//! pagerankvm report FILE.jsonl [--format text|json]
//! pagerankvm audit [--vms N] [--algo …] [--seed N] [--hours H] [--self-test]
//! pagerankvm bench [--vms a,b,c] [--threads a,b,c] [--repeats N] [--out FILE]
//!                  [--trace FILE.json] [--gate FILE] [--gate-threshold F]
//! ```
//!
//! `place`, `simulate` and `testbed` also take `--threads N`,
//! `--log off|pretty|json`, `--events FILE.jsonl` and
//! `--metrics FILE.json`; `place` and `simulate` additionally take
//! `--trace FILE.json` to record a Chrome trace of the per-worker span
//! timelines (see `--help`).

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "rank" => commands::rank(rest),
        "place" => commands::place(rest),
        "simulate" => commands::simulate(rest),
        "testbed" => commands::testbed(rest),
        "chaos" => commands::chaos(rest),
        "serve" => commands::serve(rest),
        "serve-req" => commands::serve_req(rest),
        "report" => commands::report(rest),
        "audit" => commands::audit(rest),
        "bench" => commands::bench(rest),
        "help" | "--help" | "-h" => prvm_bench::report_line(format_args!("{}", commands::USAGE)),
        other => Err(format!("unknown command `{other}`\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
