//! `passflow report`: regenerates the paper's tables and figures, and the
//! strength-meter report, on one shared workbench.
//!
//! ```text
//! passflow report [--scale smoke|default|paper] [--threads N] [NAME…]
//! ```
//!
//! `NAME` is one of `table1`…`table6`, `figure2`…`figure5` or `strength`.
//! With no names the ten paper artifacts run; `strength` runs only when
//! named. Each artifact is printed and written as a CSV under
//! [`OUTPUT_DIR`]. The workbench (corpus, split, trained flow) is built
//! once, and only if a named artifact needs it: `table1` needs only the
//! scale's budgets.
//!
//! `--threads` sets the strength report's worker threads. It wins over the
//! `PASSFLOW_THREADS` environment variable, which wins over the scale
//! preset's shard count; all are clamped to the host. Thread counts only
//! change wall-clock, never a reported number.

use std::fs;
use std::path::PathBuf;

use passflow_baselines::{MarkovModel, PcfgModel};
use passflow_core::{FlowError, ProbabilityModel};
use passflow_eval::strength::{
    guess_number_distribution, model_agreement, sample_tables, ModelEntry,
};
use passflow_eval::{figures, tables, EvalScale, Table, Workbench};
use passflow_store::{DigestConfig, DigestStore, DigestStoreBuilder};

use super::args::Flags;

/// Where experiment outputs (rendered tables and CSV files) are written.
pub const OUTPUT_DIR: &str = "target/experiments";

/// What an artifact builder reads: the scale, and the workbench built from
/// it on first use.
struct Context {
    scale: EvalScale,
    workbench: Option<Workbench>,
}

impl Context {
    fn workbench(&mut self) -> passflow_core::Result<&Workbench> {
        if self.workbench.is_none() {
            self.workbench = Some(prepare(self.scale.clone())?);
        }
        Ok(self.workbench.as_ref().expect("prepared above"))
    }
}

type Build = fn(&mut Context) -> passflow_core::Result<Table>;

/// The paper's artifacts, in the order a bare `passflow report` runs them.
const ARTIFACTS: [(&str, Build); 10] = [
    ("table1", |cx| Ok(tables::table1(&cx.scale.budgets))),
    ("table2", |cx| tables::table2(cx.workbench()?)),
    ("table3", |cx| tables::table3(cx.workbench()?)),
    ("table4", |cx| Ok(tables::table4(cx.workbench()?, 36))),
    ("table5", |cx| tables::table5(cx.workbench()?, "jimmy91")),
    ("table6", |cx| tables::table6(cx.workbench()?)),
    ("figure2", |cx| {
        figures::figure2(cx.workbench()?, &["jaram", "royal"], 40, 200)
    }),
    ("figure3", |cx| {
        figures::figure3(cx.workbench()?, "jimmy91", "123456", 12)
    }),
    ("figure4", |cx| {
        // Training-set sizes mirroring the paper's sweep (50K baseline up
        // to the full subsample), scaled to the workbench's training split.
        let workbench = cx.workbench()?;
        let full = workbench.split.train.len();
        let sizes = [full / 6, full / 3, (2 * full) / 3, full];
        let budget = workbench.scale.max_budget().clamp(1_000, 10_000);
        figures::figure4(workbench, &sizes, budget)
    }),
    ("figure5", |cx| Ok(figures::figure5(cx.workbench()?))),
];

/// Runs `passflow report`.
pub fn run(args: Vec<String>) -> Result<(), String> {
    let flags = Flags::parse(args, &["--scale", "--threads"], &[])?;
    let scale = match flags.value("--scale") {
        Some(name) => parse_scale(name)?,
        None => EvalScale::default_scale(),
    };
    let threads = flags.parsed("--threads")?;
    let names: Vec<&str> = if flags.positional.is_empty() {
        ARTIFACTS.iter().map(|(name, _)| *name).collect()
    } else {
        flags.positional.iter().map(String::as_str).collect()
    };
    for name in &names {
        if *name != "strength" && !ARTIFACTS.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "unknown artifact {name:?} (table1…table6, figure2…figure5, strength)"
            ));
        }
    }

    let mut cx = Context {
        scale,
        workbench: None,
    };
    for name in names {
        let built = match ARTIFACTS.iter().find(|(n, _)| *n == name) {
            Some((_, build)) => build(&mut cx).map(|table| emit(&table, name)),
            None => strength(&mut cx, threads),
        };
        built.map_err(|e| format!("{name}: {e}"))?;
    }
    eprintln!("report complete; CSVs are under {OUTPUT_DIR}/");
    Ok(())
}

/// Parses a `--scale` value.
fn parse_scale(name: &str) -> Result<EvalScale, String> {
    EvalScale::from_name(name).ok_or_else(|| {
        format!(
            "--scale: invalid value {name:?} ({})",
            EvalScale::NAMES.join("|")
        )
    })
}

/// Prepares a workbench, printing progress to stderr.
fn prepare(scale: EvalScale) -> passflow_core::Result<Workbench> {
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
/// reported on stderr but do not abort the run.
fn emit(table: &Table, name: &str) {
    println!("{table}");
    let dir = PathBuf::from(OUTPUT_DIR);
    let path = dir.join(format!("{name}.csv"));
    let result = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, table.to_csv()));
    match result {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

/// The strength-meter report: per-dataset guess-number distributions and
/// model-vs-model agreement, over the workbench's trained flow and the
/// Markov/PCFG baselines.
fn strength(cx: &mut Context, threads: Option<usize>) -> passflow_core::Result<()> {
    let shards = if threads.is_some() || std::env::var_os("PASSFLOW_THREADS").is_some() {
        passflow_nn::resolve_threads(threads)
    } else {
        passflow_nn::clamp_threads(cx.scale.attack_shards)
    };
    let workbench = cx.workbench()?;

    let max_len = workbench.flow.encoder().max_len();
    let markov = MarkovModel::train(&workbench.split.train, 2, max_len);
    let pcfg = PcfgModel::train(&workbench.split.train, max_len);
    let models: Vec<&dyn ProbabilityModel> = vec![&workbench.flow, &markov, &pcfg];

    // One sample table per model; size scales with the corpus so smoke runs
    // stay fast while larger scales tighten the confidence intervals.
    let samples = workbench.split.train.len().clamp(2_000, 50_000);
    eprintln!(
        "building {} sample tables of {samples} samples",
        models.len()
    );
    let tables = sample_tables(&models, samples, workbench.scale.seed, shards);
    let entries: Vec<ModelEntry<'_>> = models
        .iter()
        .zip(tables.iter())
        .map(|(m, t)| (*m, t))
        .collect();

    let train_slice = &workbench.split.train[..workbench.split.train.len().min(2_000)];
    let datasets: Vec<(&str, &[String])> = vec![
        ("train", train_slice),
        ("test (unique)", &workbench.split.test_unique),
    ];

    // Treat the training corpus as the "breached" set: every training
    // password lands in a digest store, so the report's Breached % column
    // shows how much of each dataset an attacker gets by pure replay.
    let digest_path = std::env::temp_dir().join(format!(
        "passflow-strength-breach-{}.pfd",
        std::process::id()
    ));
    let digest_error = |e| FlowError::InvalidConfig(format!("breach digest: {e}"));
    let mut digest_builder = DigestStoreBuilder::new(DigestConfig::default());
    for pw in &workbench.split.train {
        digest_builder.add_password(pw).map_err(digest_error)?;
    }
    digest_builder.finish(&digest_path).map_err(digest_error)?;
    let digest = DigestStore::open(&digest_path).map_err(digest_error)?;
    // The open handle keeps the records readable; drop the name now so no
    // exit path leaves the file behind.
    let _ = fs::remove_file(&digest_path);

    emit(
        &guess_number_distribution(&entries, &datasets, shards, Some(&digest)),
        "strength_distribution",
    );
    emit(
        &model_agreement(&entries, &workbench.split.test_unique, shards),
        "strength_agreement",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scale_rejects_unknown_names() {
        assert_eq!(parse_scale("paper"), Ok(EvalScale::paper()));
        let err = parse_scale("bogus").unwrap_err();
        assert!(err.contains("--scale") && err.contains("smoke|default|paper"));
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
