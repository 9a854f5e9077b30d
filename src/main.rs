//! The `passflow` command: one binary for the paper's experiments, the
//! scoring service, the breach-digest and guess-archive tools, and the
//! `PFTRACE` workload-trace tools.
//!
//! ```text
//! passflow report  [--scale smoke|default|paper] [--threads N] [NAME…]
//! passflow serve   [--addr ADDR] [--digest FILE] [--quantized] …
//! passflow digest  build|merge|query|verify|hash …
//! passflow archive build|merge|query|extract|verify …
//! passflow loadgen --mode synth|record|replay [--trace PATH] …
//! ```
//!
//! Every subcommand rejects an unknown flag or a malformed value with a
//! message naming the flag and a non-zero exit status, before it trains,
//! binds or writes anything.

use std::process::ExitCode;

mod cli {
    pub mod args;
    pub mod loadgen;
    pub mod report;
    pub mod serve;
    pub mod store;
}

const USAGE: &str = "usage: passflow <report|serve|digest|archive|loadgen> [options]\n\
     \x20 report  [--scale smoke|default|paper] [--threads N] [table1…table6 figure2…figure5 strength]\n\
     \x20 serve   [--addr ADDR] [--checkpoint FILE] [--digest FILE] [--quantized] …\n\
     \x20 digest  build|merge|query|verify|hash …\n\
     \x20 archive build|merge|query|extract|verify …\n\
     \x20 loadgen --mode synth|record|replay [--trace PATH] …";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    let result = match command.as_str() {
        "report" => cli::report::run(args),
        "serve" => cli::serve::run(args),
        "digest" => cli::store::digest(args),
        "archive" => cli::store::archive(args),
        "loadgen" => cli::loadgen::run(args),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("passflow {command}: {message}");
            ExitCode::FAILURE
        }
    }
}
