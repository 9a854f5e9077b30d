//! Runs one benchmark workload and prints its result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload guess --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every output check passed.

use std::process::ExitCode;

use perfbench::report::Report;
use perfbench::{guess, serve, train};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required (guess, train or serve)")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# host: nproc={} simd_tile_available={} rustc=\"{}\"",
        passflow_nn::host_threads(),
        passflow_nn::kernels::simd_tile_available(),
        env!("PERFBENCH_RUSTC"),
    );
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut report = Report::new();
    let run = match (args.workload.as_str(), args.trace) {
        ("guess", false) => guess::run,
        ("guess", true) => guess::run_traced,
        ("train", false) => train::run,
        ("train", true) => train::run_traced,
        ("serve", false) => serve::run,
        ("serve", true) => serve::run_traced,
        (other, _) => {
            eprintln!("perfbench: unknown workload {other} (guess, train or serve)");
            return ExitCode::from(2);
        }
    };
    run(args.seed, args.seconds, &mut report);
    if !args.trace {
        report.set("peak_rss_mb", perfbench::stats::peak_rss_mb());
    }
    let (correct, line) = report.finish(args.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
