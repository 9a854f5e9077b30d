//! Password-strength estimation from exact model log-likelihoods.
//!
//! The paper evaluates a guessing model by *how many guesses* it needs to
//! crack a password. Enumerating those guesses through the
//! [`Attack`](crate::Attack) engine answers that exactly but costs the whole
//! budget per query; this subsystem turns the flow's exact densities (and
//! the baselines' exact probabilities) into **instant** per-password
//! strength estimates — the "strength meter" workload suggested for exact-
//! inference models by Dell'Amico & Filippone (CCS 2015) and enabled "for
//! free" by the flow:
//!
//! * [`ProbabilityModel`] — exact per-password log-probability on top of
//!   the PR 1 [`Guesser`] abstraction. Implemented by `PassFlow`
//!   (change-of-variables through the cached
//!   [`FlowSnapshot`](crate::FlowSnapshot), batched through
//!   [`FlowWorkspace`](crate::FlowWorkspace)) and by the Markov/PCFG
//!   baselines in
//!   `passflow-baselines`.
//! * [`SampleTable`] — a persisted, versioned Monte-Carlo sample table:
//!   sample N passwords from the model, score them, sort by log-probability
//!   and precompute cumulative importance weights. A query is then one
//!   binary search plus a rank interpolation — microseconds, no guess
//!   enumeration.
//! * [`StrengthEstimate`] / [`SamplingRankEstimate`] — the two rank
//!   notions with confidence intervals: the *optimal-attacker* guess number
//!   (position in a descending-probability enumeration) and the *sampling-
//!   attack* rank (expected unique guesses of the engine's own static
//!   attacker before the password falls — directly comparable to an
//!   [`Attack`](crate::Attack) run, see [`attack_unique_rank`]).
//! * [`score_wordlist`] — parallel sharded batch scoring with the engine's
//!   shard-invariance guarantee: the shard count changes wall-clock, never
//!   a result.
//!
//! The estimator math and its error bounds are documented in DESIGN.md
//! ("Strength estimation").

mod estimator;
mod score;
mod scorer;

pub use estimator::{SampleTable, SamplingRankEstimate, StrengthEstimate};
pub use score::{attack_unique_rank, score_wordlist, PasswordStrength};
pub use scorer::{probe_quantization, FlowScorer, QuantizationReport, QuantizedScorer, Scorer};

use crate::engine::Guesser;
use crate::flow::PassFlow;

/// A generative password model with an exact (or proxy) per-password
/// log-probability, on top of its [`Guesser`] sampling interface.
///
/// The contract backing the Monte-Carlo estimator is *consistency*:
/// [`generate_batch`](Guesser::generate_batch) draws from (approximately)
/// the distribution that [`password_log_prob`](Self::password_log_prob)
/// scores. For the Markov and PCFG baselines both sides are the same exact
/// discrete distribution (up to boundary truncation at the maximum length);
/// for the flow, the continuous density at the canonical encoding stands in
/// for the discrete mass — the standard proxy for continuous generative
/// models, discussed in DESIGN.md ("Strength estimation").
pub trait ProbabilityModel: Guesser {
    /// Exact natural-log probability of `password` under the model, or
    /// `None` if the model cannot score it (unencodable, outside the
    /// model's support, or longer than the model generates).
    fn password_log_prob(&self, password: &str) -> Option<f64>;

    /// Scores a batch of passwords. The default maps
    /// [`password_log_prob`](Self::password_log_prob) over the slice;
    /// models with a batched fast path (the flow) override it.
    ///
    /// Implementations must return exactly one entry per input password, in
    /// input order, bit-identical to the scalar method.
    fn password_log_probs(&self, passwords: &[String]) -> Vec<Option<f64>> {
        passwords
            .iter()
            .map(|p| self.password_log_prob(p))
            .collect()
    }
}

impl PassFlow {
    /// Natural log of the encoder's quantization-cell volume: each of the
    /// `max_len` feature dimensions quantizes to one of `num_symbols`
    /// levels spaced `1/num_symbols` apart, so the cell around a canonical
    /// encoding has volume `num_symbols^{-max_len}`.
    ///
    /// `density × volume` is the midpoint-quadrature mass of the cell — the
    /// discrete-probability proxy the strength estimator needs (without it,
    /// continuous densities carry an arbitrary scale and guess-number
    /// weights `1/p` are off by a constant `num_symbols^{max_len}` factor).
    fn log_cell_volume(&self) -> f64 {
        -(self.dim() as f64) * f64::from(self.encoder().num_symbols() as u32).ln()
    }
}

impl ProbabilityModel for PassFlow {
    /// The flow's exact density at the password's canonical encoding,
    /// scaled by the quantization-cell volume so it approximates the
    /// discrete probability mass the sampler actually assigns to the
    /// password (see DESIGN.md, "Strength estimation").
    fn password_log_prob(&self, password: &str) -> Option<f64> {
        self.log_prob_password(password)
            .map(|lp| f64::from(lp) + self.log_cell_volume())
    }

    /// Batched scoring through the snapshot fast path: delegates to a
    /// [`FlowScorer`] exported from the cached snapshot, which gathers
    /// encodable passwords into one tensor per chunk and scores them with
    /// the fused
    /// [`FlowSnapshot::log_prob_into`](crate::FlowSnapshot::log_prob_into)
    /// kernel (one snapshot export, one workspace, no per-password
    /// allocation). Each output row depends only on its input row, so the
    /// batch result is bit-identical to scalar scoring.
    fn password_log_probs(&self, passwords: &[String]) -> Vec<Option<f64>> {
        FlowScorer::new(self).log_probs(passwords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use passflow_nn::rng as nnrng;

    fn tiny_flow(seed: u64) -> PassFlow {
        let mut rng = nnrng::seeded(seed);
        PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap()
    }

    #[test]
    fn flow_batch_scoring_is_bit_identical_to_scalar() {
        let flow = tiny_flow(91);
        let passwords: Vec<String> = vec![
            "jimmy91".into(),
            "123456".into(),
            "waytoolongtoencode".into(),
            "iloveyou".into(),
            "".into(),
        ];
        let batch = flow.password_log_probs(&passwords);
        for (p, b) in passwords.iter().zip(batch.iter()) {
            let scalar = flow.password_log_prob(p);
            match (scalar, b) {
                (Some(s), Some(b)) => assert_eq!(s.to_bits(), b.to_bits(), "{p:?}"),
                (None, None) => {}
                other => panic!("scalar/batch disagree for {p:?}: {other:?}"),
            }
        }
        assert!(batch[2].is_none(), "unencodable password must score None");
    }

    #[test]
    fn flow_scores_are_density_plus_cell_volume() {
        let flow = tiny_flow(92);
        let lp = flow.password_log_prob("dragon").unwrap();
        let density = f64::from(flow.log_prob_password("dragon").unwrap());
        let cell = -(flow.dim() as f64) * f64::from(flow.encoder().num_symbols() as u32).ln();
        assert_eq!(lp.to_bits(), (density + cell).to_bits());
    }

    #[test]
    fn trait_is_object_safe() {
        let flow = tiny_flow(93);
        let model: &dyn ProbabilityModel = &flow;
        assert_eq!(model.name(), "PassFlow");
        assert!(model.password_log_prob("abc").is_some());
    }
}
