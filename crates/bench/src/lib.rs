//! # passflow-bench
//!
//! The experiment binaries and serving load generator of the PassFlow
//! reproduction:
//!
//! * **Experiment binaries** (`src/bin/table1.rs` … `src/bin/figure5.rs`,
//!   plus `all_experiments` and `strength_report`): each regenerates one
//!   table or figure of the paper and writes both the rendered table and a
//!   CSV file under `target/experiments/`. Run them with
//!   `cargo run --release -p passflow-bench --bin table2 -- --scale default`.
//! * **`loadgen`**: the serving load generator and the `PFTRACE`
//!   synth/record/replay tools.
//!
//! Performance is measured by the `perfbench` package at the repository
//! root, not by this crate:
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload <w>`.
//!
//! This library provides the small amount of shared plumbing: command-line
//! scale selection and result emission.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fs;
use std::path::PathBuf;

use passflow_eval::{EvalScale, Table, Workbench};

/// Where experiment outputs (rendered tables and CSV files) are written.
pub const OUTPUT_DIR: &str = "target/experiments";

/// The scale selected on an experiment binary's command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScaleChoice {
    /// `--scale smoke`: seconds-long sanity run.
    Smoke,
    /// `--scale default` (the default): CPU-scale run preserving the paper's
    /// relative comparisons.
    Default,
    /// `--scale paper`: the paper's original sizes; only for long offline
    /// runs.
    Paper,
}

impl ScaleChoice {
    /// Builds the corresponding [`EvalScale`].
    pub fn to_scale(&self) -> EvalScale {
        match self {
            ScaleChoice::Smoke => EvalScale::smoke(),
            ScaleChoice::Default => EvalScale::default_scale(),
            ScaleChoice::Paper => EvalScale::paper(),
        }
    }
}

/// Parses `--scale <smoke|default|paper>` from an argument list.
///
/// Unknown values fall back to the default scale with a warning on stderr,
/// so harness runs never die on a typo after minutes of training.
pub fn parse_scale_args<I: IntoIterator<Item = String>>(args: I) -> ScaleChoice {
    let args: Vec<String> = args.into_iter().collect();
    for window in args.windows(2) {
        if window[0] == "--scale" {
            return match window[1].as_str() {
                "smoke" => ScaleChoice::Smoke,
                "default" => ScaleChoice::Default,
                "paper" => ScaleChoice::Paper,
                other => {
                    eprintln!("unknown scale {other:?}, using default");
                    ScaleChoice::Default
                }
            };
        }
    }
    ScaleChoice::Default
}

/// Parses the scale from the process arguments.
pub fn scale_from_env() -> EvalScale {
    parse_scale_args(std::env::args().skip(1)).to_scale()
}

/// Prepares a workbench, printing progress to stderr.
///
/// # Errors
///
/// Propagates configuration/training errors from the core crate.
pub fn prepare(scale: EvalScale) -> passflow_core::Result<Workbench> {
    eprintln!(
        "preparing workbench: corpus={}, train subsample={}, budgets={:?}",
        scale.corpus_size, scale.train_subsample, scale.budgets
    );
    let workbench = Workbench::prepare(scale)?;
    eprintln!(
        "trained flow: {} parameters, best epoch {}, final NLL {:.3}",
        workbench.flow.num_parameters(),
        workbench.training.best_epoch,
        workbench.training.final_nll().unwrap_or(f32::NAN)
    );
    Ok(workbench)
}

/// Prints a result table and writes its CSV under [`OUTPUT_DIR`].
///
/// The CSV write is best-effort: failures (e.g. read-only checkouts) are
/// reported on stderr but do not abort the experiment.
pub fn emit(table: &Table, name: &str) {
    println!("{table}");
    let dir = PathBuf::from(OUTPUT_DIR);
    let path = dir.join(format!("{name}.csv"));
    let result = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, table.to_csv()));
    match result {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scale_parsing_recognizes_all_choices() {
        assert_eq!(
            parse_scale_args(args(&["--scale", "smoke"])),
            ScaleChoice::Smoke
        );
        assert_eq!(
            parse_scale_args(args(&["--scale", "default"])),
            ScaleChoice::Default
        );
        assert_eq!(
            parse_scale_args(args(&["--scale", "paper"])),
            ScaleChoice::Paper
        );
        assert_eq!(parse_scale_args(args(&[])), ScaleChoice::Default);
        assert_eq!(
            parse_scale_args(args(&["--scale", "bogus"])),
            ScaleChoice::Default
        );
    }

    #[test]
    fn scale_choice_maps_to_eval_scale() {
        assert_eq!(ScaleChoice::Smoke.to_scale(), EvalScale::smoke());
        assert_eq!(ScaleChoice::Default.to_scale(), EvalScale::default_scale());
        assert_eq!(ScaleChoice::Paper.to_scale(), EvalScale::paper());
    }

    #[test]
    fn emit_writes_csv() {
        let mut table = Table::new("t", vec!["a".to_string()]);
        table.push_row(vec!["1".to_string()]);
        emit(&table, "unit_test_emit");
        let path = PathBuf::from(OUTPUT_DIR).join("unit_test_emit.csv");
        if path.exists() {
            let contents = fs::read_to_string(&path).unwrap();
            assert!(contents.starts_with("a\n"));
            let _ = fs::remove_file(path);
        }
    }
}
