//! A detached, `Send + Sync` batch-scoring handle over a flow snapshot.
//!
//! [`FlowScorer`] is the serving-side entry point into the fused
//! log-probability path: it owns an immutable [`FlowSnapshot`], a clone of
//! the flow's encoder and the quantization-cell volume, so any thread can
//! score password batches without borrowing the [`PassFlow`] it came from —
//! and without observing later weight mutations. A trainer can keep
//! updating the live flow while a server keeps answering from the exported
//! snapshot; swapping in new weights is just building a fresh scorer.
//!
//! Scores are **bit-identical** to
//! [`ProbabilityModel::password_log_prob`](super::ProbabilityModel) on the
//! flow the snapshot was exported from: every fused kernel is row-
//! independent, so batching requests together never changes a result
//! (asserted by `tests/strength.rs` and the serving suite in
//! `tests/serve.rs`).
//!
//! The handle is generic over the weight format: [`FlowScorer`] reads f32
//! weights and [`QuantizedScorer`] the opt-in int8 tier, through the same
//! encode-chunk-score walk.

use std::sync::Arc;

use passflow_nn::{LinearSnapshot, LinearWeights, QuantizedLinearSnapshot, Tensor};
use passflow_passwords::PasswordEncoder;

use crate::fastpath::{FlowSnapshot, FlowWorkspace};
use crate::flow::PassFlow;

/// Rows scored per fused call; bounds scratch memory without affecting
/// results (row-independent kernels).
const CHUNK_ROWS: usize = 1024;

/// An owned, immutable scoring handle: snapshot + encoder + cell volume,
/// generic over the snapshot's weight format. Use it through the
/// [`FlowScorer`] (f32) and [`QuantizedScorer`] (int8) aliases.
///
/// Cheap to clone (the snapshot is shared behind an [`Arc`]); `Send + Sync`,
/// so one scorer can be shared by any number of serving threads.
#[derive(Clone, Debug)]
pub struct Scorer<L> {
    snapshot: Arc<FlowSnapshot<L>>,
    encoder: PasswordEncoder,
    log_cell_volume: f64,
}

/// The exact scoring handle: bit-identical to the flow it was exported from.
pub type FlowScorer = Scorer<LinearSnapshot>;

/// The opt-in int8 scoring handle: same contract as [`FlowScorer`], ~4×
/// smaller weights, **approximate** scores.
///
/// Build one with [`QuantizedScorer::new`] and measure its error with
/// [`probe_quantization`] before serving from it — the bound is a property
/// of the weights, not a universal constant. Scores remain deterministic,
/// batching-invariant and thread-count invariant.
pub type QuantizedScorer = Scorer<QuantizedLinearSnapshot>;

impl FlowScorer {
    /// Exports a scorer from the flow's current weights (reusing the flow's
    /// cached snapshot when it is current).
    ///
    /// The scorer is detached: later weight mutations on `flow` do not
    /// affect it.
    pub fn new(flow: &PassFlow) -> FlowScorer {
        Scorer {
            snapshot: flow.snapshot(),
            encoder: flow.encoder().clone(),
            log_cell_volume: flow.log_cell_volume(),
        }
    }
}

impl QuantizedScorer {
    /// Quantizes the flow's current weights into a detached scoring handle.
    pub fn new(flow: &PassFlow) -> QuantizedScorer {
        QuantizedScorer::from_scorer(&FlowScorer::new(flow))
    }

    /// Quantizes the snapshot behind an existing exact scorer (inheriting
    /// its encoder and cell volume).
    pub fn from_scorer(scorer: &FlowScorer) -> QuantizedScorer {
        Scorer {
            snapshot: Arc::new(scorer.snapshot.quantize()),
            encoder: scorer.encoder.clone(),
            log_cell_volume: scorer.log_cell_volume,
        }
    }
}

impl<L> Scorer<L> {
    /// The flow snapshot this scorer reads.
    pub fn snapshot(&self) -> &Arc<FlowSnapshot<L>> {
        &self.snapshot
    }

    /// The log-volume of one quantization cell (added to every score).
    pub fn log_cell_volume(&self) -> f64 {
        self.log_cell_volume
    }

    /// Dimensionality of the underlying flow.
    pub fn dim(&self) -> usize {
        self.snapshot.dim()
    }

    /// The encoder the scorer canonicalizes passwords with.
    pub fn encoder(&self) -> &PasswordEncoder {
        &self.encoder
    }
}

impl<L: LinearWeights> Scorer<L> {
    /// Bytes held by the coupling-network weights.
    pub fn memory_bytes(&self) -> usize {
        self.snapshot.memory_bytes()
    }

    /// Scores one password; `None` if it cannot be encoded. Bit-identical
    /// to scoring it inside any batch.
    pub fn log_prob(&self, password: &str) -> Option<f64> {
        let mut ws = FlowWorkspace::new();
        let mut out = vec![None];
        self.log_probs_with(
            std::slice::from_ref(&password.to_string()),
            &mut ws,
            &mut out,
        );
        out[0]
    }

    /// Scores a batch of passwords, allocating a fresh workspace.
    ///
    /// Returns exactly one entry per input password, in input order;
    /// unencodable passwords score `None`.
    pub fn log_probs(&self, passwords: &[String]) -> Vec<Option<f64>> {
        let mut ws = FlowWorkspace::new();
        let mut out = Vec::new();
        self.log_probs_with(passwords, &mut ws, &mut out);
        out
    }

    /// Scores a batch of passwords into `out` through a caller-managed
    /// workspace — the allocation-free steady-state form used by the
    /// serving batcher, which keeps one workspace alive across ticks.
    ///
    /// `out` is cleared and refilled with one entry per input password, in
    /// input order; unencodable passwords score `None`. Results are
    /// bit-identical for any chunking of the same passwords (each output
    /// row depends only on its own input row) and at any thread count: the
    /// GEMMs run on the pool installed in `ws`
    /// ([`FlowWorkspace::set_thread_pool`]), serially if there is none.
    pub fn log_probs_with(
        &self,
        passwords: &[String],
        ws: &mut FlowWorkspace,
        out: &mut Vec<Option<f64>>,
    ) {
        out.clear();
        out.resize(passwords.len(), None);

        let mut lp = Tensor::default();
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(CHUNK_ROWS.min(passwords.len()));
        let mut row_indices: Vec<usize> = Vec::with_capacity(CHUNK_ROWS.min(passwords.len()));

        let mut flush =
            |rows: &mut Vec<Vec<f32>>, row_indices: &mut Vec<usize>, out: &mut Vec<Option<f64>>| {
                if rows.is_empty() {
                    return;
                }
                let x = Tensor::from_rows(rows);
                self.snapshot.log_prob_into(&x, ws, &mut lp);
                for (slot, &idx) in lp.as_slice().iter().zip(row_indices.iter()) {
                    out[idx] = Some(f64::from(*slot) + self.log_cell_volume);
                }
                rows.clear();
                row_indices.clear();
            };

        for (i, password) in passwords.iter().enumerate() {
            if let Some(features) = self.encoder.encode(password) {
                rows.push(features);
                row_indices.push(i);
                if rows.len() == CHUNK_ROWS {
                    flush(&mut rows, &mut row_indices, out);
                }
            }
        }
        flush(&mut rows, &mut row_indices, out);
    }
}

/// The measured quantization error of a model over a probe wordlist —
/// the per-model report the issue requires before anyone serves from the
/// int8 tier.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizationReport {
    /// Passwords that encoded and were scored by both tiers.
    pub samples: usize,
    /// Passwords the encoder rejected (scored by neither tier).
    pub skipped: usize,
    /// max |log p_exact − log p_quantized| over the probe set.
    pub max_abs_delta: f64,
    /// mean |log p_exact − log p_quantized| over the probe set.
    pub mean_abs_delta: f64,
    /// Bytes of f32 coupling-network weights in the exact snapshot.
    pub exact_bytes: usize,
    /// Bytes of int8 weights + scales in the quantized snapshot.
    pub quantized_bytes: usize,
}

impl QuantizationReport {
    /// Weight-memory compression ratio (exact ÷ quantized).
    pub fn compression(&self) -> f64 {
        if self.quantized_bytes == 0 {
            return 0.0;
        }
        self.exact_bytes as f64 / self.quantized_bytes as f64
    }
}

/// Measures the quantized tier's scoring error against the exact tier over
/// a probe wordlist.
///
/// The exact tier is bit-identical to `PassFlow::log_prob_reference` (the
/// conformance suite's oracle), so the deltas here are exactly the deltas
/// against the reference implementation. Callers assert
/// `report.max_abs_delta` against their documented bound before opting in.
pub fn probe_quantization(
    exact: &FlowScorer,
    quantized: &QuantizedScorer,
    passwords: &[String],
) -> QuantizationReport {
    let exact_scores = exact.log_probs(passwords);
    let quant_scores = quantized.log_probs(passwords);
    let mut samples = 0usize;
    let mut skipped = 0usize;
    let mut max_abs_delta = 0.0f64;
    let mut sum_abs_delta = 0.0f64;
    for (e, q) in exact_scores.iter().zip(quant_scores.iter()) {
        match (e, q) {
            (Some(e), Some(q)) => {
                let delta = (e - q).abs();
                max_abs_delta = max_abs_delta.max(delta);
                sum_abs_delta += delta;
                samples += 1;
            }
            (None, None) => skipped += 1,
            _ => unreachable!("both tiers share one encoder"),
        }
    }
    QuantizationReport {
        samples,
        skipped,
        max_abs_delta,
        mean_abs_delta: if samples > 0 {
            sum_abs_delta / samples as f64
        } else {
            0.0
        },
        exact_bytes: exact.snapshot.memory_bytes(),
        quantized_bytes: quantized.snapshot.memory_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use crate::strength::ProbabilityModel;
    use passflow_nn::rng as nnrng;

    fn tiny_flow(seed: u64) -> PassFlow {
        let mut rng = nnrng::seeded(seed);
        PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap()
    }

    #[test]
    fn scorer_matches_the_flow_bit_for_bit() {
        let flow = tiny_flow(71);
        let scorer = FlowScorer::new(&flow);
        for pw in ["jimmy91", "123456", "", "dragon"] {
            match (flow.password_log_prob(pw), scorer.log_prob(pw)) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{pw:?}"),
                (None, None) => {}
                other => panic!("flow/scorer disagree for {pw:?}: {other:?}"),
            }
        }
        assert!(scorer.log_prob("waytoolongtoencode").is_none());
    }

    #[test]
    fn scorer_is_detached_from_later_weight_mutations() {
        let flow = tiny_flow(72);
        let scorer = FlowScorer::new(&flow);
        let before = scorer.log_prob("monkey12").unwrap();
        for p in flow.parameters() {
            p.set_value(p.value().add_scalar(0.125));
        }
        // The live flow moved; the detached scorer did not.
        let after_live = flow.password_log_prob("monkey12").unwrap();
        let after_scorer = scorer.log_prob("monkey12").unwrap();
        assert_ne!(before.to_bits(), after_live.to_bits());
        assert_eq!(before.to_bits(), after_scorer.to_bits());
    }

    #[test]
    fn workspace_reuse_and_chunking_do_not_change_scores() {
        let flow = tiny_flow(73);
        let scorer = FlowScorer::new(&flow);
        let passwords: Vec<String> = (0..50).map(|i| format!("pw{i}")).collect();
        let whole = scorer.log_probs(&passwords);
        let mut ws = FlowWorkspace::new();
        let mut out = Vec::new();
        let mut pieced = Vec::new();
        for chunk in passwords.chunks(7) {
            scorer.log_probs_with(chunk, &mut ws, &mut out);
            pieced.extend(out.iter().copied());
        }
        assert_eq!(whole.len(), pieced.len());
        for (a, b) in whole.iter().zip(pieced.iter()) {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
    }

    #[test]
    fn scorer_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowScorer>();
        assert_send_sync::<QuantizedScorer>();
    }

    /// Scores `passwords` through a workspace running its GEMMs on a pool
    /// of `threads` threads.
    fn log_probs_on_threads<L: LinearWeights>(
        scorer: &Scorer<L>,
        passwords: &[String],
        threads: usize,
    ) -> Vec<Option<f64>> {
        let mut ws = FlowWorkspace::new();
        ws.set_thread_pool(Some(Arc::new(passflow_nn::ThreadPool::new(threads))));
        let mut out = Vec::new();
        scorer.log_probs_with(passwords, &mut ws, &mut out);
        out
    }

    #[test]
    fn threaded_scorer_is_bit_identical_to_serial() {
        let flow = tiny_flow(74);
        let scorer = FlowScorer::new(&flow);
        let passwords: Vec<String> = (0..40).map(|i| format!("secret{i}")).collect();
        let a = scorer.log_probs(&passwords);
        let b = log_probs_on_threads(&scorer, &passwords, 3);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits));
        }
    }

    #[test]
    fn quantized_scorer_tracks_exact_and_reports_error() {
        let flow = tiny_flow(75);
        let exact = FlowScorer::new(&flow);
        let quantized = QuantizedScorer::from_scorer(&exact);
        let passwords: Vec<String> = (0..60)
            .map(|i| format!("pw{i}"))
            .chain(["waytoolongtoencode".to_string()])
            .collect();
        let report = probe_quantization(&exact, &quantized, &passwords);
        assert_eq!(report.samples, 60);
        assert_eq!(report.skipped, 1);
        assert!(report.max_abs_delta.is_finite());
        assert!(report.mean_abs_delta <= report.max_abs_delta);
        // The tiny test flow's layers are narrow, so per-row scales and the
        // f32 bias eat into the 4× weight compression; production-width
        // layers approach 4×.
        assert!(
            report.compression() > 2.0,
            "int8 weights must be markedly smaller, got {:.2}×",
            report.compression()
        );
        // Unencodable passwords score None on both tiers.
        assert!(quantized.log_prob("waytoolongtoencode").is_none());
    }

    #[test]
    fn quantized_scores_are_deterministic_and_thread_invariant() {
        let flow = tiny_flow(76);
        let quantized = QuantizedScorer::new(&flow);
        let passwords: Vec<String> = (0..30).map(|i| format!("hunter{i}")).collect();
        let once = quantized.log_probs(&passwords);
        let twice = quantized.log_probs(&passwords);
        let threaded = log_probs_on_threads(&quantized, &passwords, 4);
        for ((a, b), c) in once.iter().zip(twice.iter()).zip(threaded.iter()) {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
            assert_eq!(a.map(f64::to_bits), c.map(f64::to_bits));
        }
    }
}
