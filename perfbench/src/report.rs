//! The metric tables, output checks and the result line every run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, printed by every workload with
/// `--trace 0`. Their meaning per workload is in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, printed by every workload with
/// `--trace 1`. A workload that does not load a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // guess
    ("prior.sample_s.static", "s"),
    ("fastpath.inverse_s.static", "s"),
    ("fastpath.inverse_s.dynamic_gs", "s"),
    ("encoding.decode_s.static", "s"),
    ("encoding.decode_s.dynamic_gs", "s"),
    ("engine.self_s.static", "s"),
    ("engine.self_s.dynamic_gs", "s"),
    ("engine.unique_ratio.static", "ratio"),
    ("engine.unique_ratio.dynamic_gs", "ratio"),
    ("engine.match_ratio.static", "ratio"),
    ("engine.match_ratio.dynamic_gs", "ratio"),
    ("sample.decodes_per_guess.dynamic_gs", "ratio"),
    ("store.bytes_written.dynamic_gs", "bytes"),
    ("kernels.gemm_macs_per_guess", "count"),
    // train
    ("encoding.encode_s", "s"),
    ("autograd.nll_grad_s", "s"),
    ("train.reduce_s", "s"),
    ("optim.step_s", "s"),
    ("train.layer_coverage", "ratio"),
    ("kernels.gemm_macs_per_example", "count"),
    // serve
    ("serve.conn_wait_ms.p50", "ms"),
    ("serve.conn_wait_ms.p99", "ms"),
    ("serve.server_ms.p50", "ms"),
    ("serve.server_ms.p99", "ms"),
    ("batcher.ticks", "count"),
    ("batcher.rows_per_tick", "rows"),
    ("batcher.shed", "count"),
    ("batcher.expired", "count"),
    ("http.read_request_us", "us"),
    ("json.parse_us", "us"),
    ("fastpath.logprob_us_per_row", "us"),
    ("quant.logprob_us_per_row", "us"),
    ("strength.estimate_us", "us"),
    ("store.contains_us", "us"),
    ("http.write_response_us", "us"),
    ("kernels.gemm_macs_per_scored_row", "count"),
    // every workload
    ("trace.overhead_s", "s"),
];

/// Prints one named measurement for people reading the run.
pub fn say(name: &str, value: f64, unit: &str) {
    println!("{name} = {value} {unit}");
}

/// What one run measured and whether its outputs were correct.
#[derive(Default)]
pub struct Report {
    checks: Vec<(String, bool)>,
    /// Operations attempted (attacks, training runs, requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records an output check; any failed check makes the run incorrect.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Sets a metric from [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on a name in neither table, which is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Whether every check so far passed.
    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Prints the checks, then returns whether every check passed and the
    /// result line: end-to-end metrics with `trace == false`, per-layer
    /// metrics otherwise.
    pub fn finish(mut self, trace: bool) -> (bool, String) {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    self.checks.push((format!("{name} is finite"), false));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.checks.push((format!("{name} was measured"), false));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        for (what, ok) in &self.checks {
            println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
        }
        let correct = self.correct();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        (correct, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_match_the_benchmark_file() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");

        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(spec.matches("\"unit\":").count(), names.len());
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut report = Report::new();
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let (correct, line) = report.finish(false);
        assert!(correct);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());

        let (_, traced) = Report::new().finish(true);
        assert_eq!(traced.matches("\"value\": 0,").count(), PER_LAYER.len());
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let (correct, line) = Report::new().finish(false);
        assert!(!correct);
        assert!(line.starts_with("{\"correct\": false"));
    }
}
