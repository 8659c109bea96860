//! Command line of `loopbench`. See `README.md`.

use loopbench::report::{self, Invocation};
use std::process::ExitCode;

const USAGE: &str = "\
usage: loopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       loopbench run       [--workload <name>] [--seed <n>] [--measure-s <s>] [--smoke]
       loopbench trace     [--workload <name>] [--seed <n>] [--measure-s <s>] [--smoke]
       loopbench selfcheck [--workload <name>] [--seed <n>] [--measure-s <s>] [--smoke]

The first form is the driver's: one workload, one JSON result as the last
line of standard output. `run` measures end to end, `trace` adds the staged
replay, `selfcheck` runs the set twice and compares the two against the
bounds. Workloads: read_point read_cold read_join read_scan write_small
write_bulk mixed.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match Invocation::parse(&args) {
        Ok(invocation) => invocation,
        Err(message) => {
            eprintln!("loopbench: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match report::execute(&invocation) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("loopbench: {message}");
            ExitCode::from(3)
        }
    }
}
