//! # passflow
//!
//! Umbrella crate for the PassFlow reproduction — password guessing with
//! generative normalizing flows (Pagnotta, Hitaj, De Gaspari, Mancini,
//! DSN 2022).
//!
//! This crate re-exports the workspace members under stable module names so
//! applications can depend on a single crate:
//!
//! * [`nn`] — tensor / autodiff / layers / optimizers substrate,
//! * [`passwords`] — alphabet, encoding, synthetic corpus, dataset pipeline,
//! * [`core`] (also re-exported at the root) — the flow model, training,
//!   dynamic sampling, Gaussian smoothing, interpolation, the unified
//!   guessing-attack engine ([`Guesser`] / [`Attack`]), the
//!   strength-meter subsystem ([`ProbabilityModel`] / [`SampleTable`]),
//!   and the int8 quantized scoring tier ([`QuantizedScorer`]),
//! * [`baselines`] — Markov, PCFG, WGAN and CWAE comparators, all
//!   implementing [`Guesser`],
//! * [`eval`] — the experiment harness regenerating the paper's tables and
//!   figures through the same engine,
//! * [`serve`] — the online serving layer: an HTTP scoring service with
//!   adaptive micro-batching and hot-swappable models,
//! * [`store`] — the breach-screening store: packed sorted digest
//!   artifacts (`PFDIGEST v1`) with bounded-memory builds, shard merging
//!   and k-anonymity range queries, plus the `PFGUESS v1` sorted guess
//!   archives distributed attacks persist and merge.
//!
//! The package's `passflow` binary regenerates the paper's tables and
//! figures (`passflow report`) and drives the serving, screening and
//! archive tools (`serve`, `digest`, `archive`, `loadgen`). See the
//! `examples/` directory for runnable end-to-end programs and
//! `DESIGN.md` / `EXPERIMENTS.md` for the reproduction notes.
//!
//! ```rust
//! use passflow::{FlowConfig, PassFlow};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let flow = PassFlow::new(FlowConfig::tiny(), &mut rng)?;
//! println!("log p(\"123456\") = {:?}", flow.log_prob_password("123456"));
//! # Ok::<(), passflow::FlowError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use passflow_baselines as baselines;
pub use passflow_core as core;
pub use passflow_eval as eval;
pub use passflow_nn as nn;
pub use passflow_passwords as passwords;
pub use passflow_serve as serve;
pub use passflow_store as store;

// The most commonly used items, re-exported at the crate root.
pub use passflow_core::{
    attack_unique_rank, interpolate, interpolate_passwords, load_checkpoint, load_flow,
    probe_quantization, save_checkpoint, save_flow, score_wordlist, train, Attack, AttackEngine,
    AttackOutcome, CheckpointReport, DynamicParams, EarlyStopConfig, FlowConfig, FlowError,
    FlowScorer, FlowSnapshot, FlowWorkspace, GaussianSmoothing, GuessSession, Guesser,
    GuessingStrategy, LatentGuesser, LatentSession, MaskStrategy, PassFlow, PasswordStrength,
    Penalization, ProbabilityModel, QuantizationReport, QuantizedFlowSnapshot, QuantizedScorer,
    SampleTable, SamplingRankEstimate, Schedule, StrengthEstimate, TrainConfig, TrainLoop,
    TrainState, Trainer, TrainingReport,
};
pub use passflow_eval::{EvalScale, Workbench};
pub use passflow_passwords::{
    Alphabet, CorpusConfig, CorpusSplit, PasswordCorpus, PasswordEncoder, SyntheticCorpusGenerator,
};
pub use passflow_store::{
    merge_archives, merge_artifacts, DigestConfig, DigestStore, DigestStoreBuilder, GuessArchive,
    GuessArchiveBuilder, GuessConfig,
};

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_reachable() {
        // A compile-time smoke test that the façade exposes the main types.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::PassFlow>();
        assert_send_sync::<crate::FlowError>();
        let _ = crate::FlowConfig::tiny();
        let _ = crate::EvalScale::smoke();
    }

    #[test]
    fn scale_parsing_recognizes_all_choices() {
        for name in crate::EvalScale::NAMES {
            assert!(crate::EvalScale::from_name(name).is_some(), "{name}");
        }
        assert_eq!(crate::EvalScale::from_name("bogus"), None);
        assert_eq!(crate::EvalScale::from_name(""), None);
        assert_eq!(crate::EvalScale::from_name("Smoke"), None);
    }

    #[test]
    fn scale_choice_maps_to_eval_scale() {
        use crate::EvalScale;
        assert_eq!(EvalScale::from_name("smoke"), Some(EvalScale::smoke()));
        assert_eq!(
            EvalScale::from_name("default"),
            Some(EvalScale::default_scale())
        );
        assert_eq!(EvalScale::from_name("paper"), Some(EvalScale::paper()));
    }
}
