//! # passflow-core
//!
//! A Rust implementation of **PassFlow** (Pagnotta, Hitaj, De Gaspari,
//! Mancini — DSN 2022): password guessing with generative normalizing flows.
//!
//! The model is a RealNVP-style stack of affine [`coupling
//! layers`](CouplingLayer) mapping fixed-length password encodings to a
//! Gaussian latent space. Because the map is invertible with a tractable
//! Jacobian, the model offers exact log-likelihoods, exact latent inference,
//! and closed-form inversion for sampling — the properties the paper
//! leverages for its guessing strategies:
//!
//! * **static sampling** ([`PassFlow::sample_passwords`]),
//! * **Dynamic Sampling with penalization** ([`DynamicParams`],
//!   Algorithm 1),
//! * **data-space Gaussian smoothing** ([`GaussianSmoothing`],
//!   Section III-C),
//! * **latent-space operations**: neighbourhood sampling around a pivot
//!   ([`PassFlow::sample_near`], Table V) and interpolation
//!   ([`interpolate`], Algorithm 2 / Figure 3).
//!
//! All guessing experiments run through the unified [`engine`]: the
//! [`Guesser`] trait abstracts over guess generators (the flow and every
//! baseline), and the [`Attack`] builder executes the paper's evaluation
//! protocol — budgets, checkpoints, dedup, match counting — with parallel
//! sharded generation and streaming [`CheckpointReport`]s.
//!
//! The [`strength`] subsystem inverts the question: instead of enumerating
//! guesses to see when a password falls, it turns the models' exact
//! log-likelihoods ([`ProbabilityModel`]) into instant Monte-Carlo
//! guess-number estimates ([`SampleTable`]) — the strength-meter workload.
//!
//! ## Quickstart
//!
//! ```rust
//! use passflow_core::{Attack, FlowConfig, PassFlow, TrainConfig, train};
//! use passflow_passwords::{CorpusConfig, SyntheticCorpusGenerator};
//! use rand::SeedableRng;
//!
//! // A tiny corpus and model so the example runs in a moment; see
//! // `FlowConfig::paper()` / `TrainConfig::paper()` for the paper's setup.
//! let corpus = SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(3_000)).generate(1);
//! let split = corpus.paper_split(0.8, 1_000, 1);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let flow = PassFlow::new(FlowConfig::tiny(), &mut rng)?;
//! train(&flow, &split.train, &TrainConfig::tiny())?;
//!
//! let outcome = Attack::new(&split.test_set()).budget(2_000).shards(4).run(&flow)?;
//! println!("matched {}% of the test set", outcome.final_report().matched_percent);
//! # Ok::<(), passflow_core::FlowError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod conditional;
mod config;
mod coupling;
pub mod engine;
mod error;
mod fastpath;
mod flow;
mod interpolate;
mod mask;
mod persist;
mod prior;
mod sample;
pub mod strength;
pub mod train;

pub use conditional::{conditional_guess, ConditionalConfig, ConditionalGuess, PasswordTemplate};
pub use config::{FlowConfig, TrainConfig};
pub use coupling::CouplingLayer;
pub use engine::{
    Attack, AttackEngine, AttackOutcome, CheckpointReport, FlowSession, GuessSession, Guesser,
    LatentGuesser, LatentSession,
};
pub use error::{FlowError, Result};
pub use fastpath::{
    CouplingSnapshot, FlowSnapshot, FlowWorkspace, QuantizedCouplingSnapshot, QuantizedFlowSnapshot,
};
pub use flow::PassFlow;
pub use interpolate::{interpolate, interpolate_passwords, InterpolationPoint};
pub use mask::MaskStrategy;
pub use persist::{
    load_checkpoint, load_checkpoint_from_reader, load_flow, load_flow_from_reader,
    save_checkpoint, save_checkpoint_to_writer, save_flow, save_flow_to_writer,
};
pub use prior::{GaussianMixturePrior, Prior, StandardGaussianPrior};
pub use sample::{
    DynamicParams, GaussianSmoothing, GuessingStrategy, MatchedLatents, Penalization,
};
pub use strength::{
    attack_unique_rank, probe_quantization, score_wordlist, FlowScorer, PasswordStrength,
    ProbabilityModel, QuantizationReport, QuantizedScorer, SampleTable, SamplingRankEstimate,
    Scorer, StrengthEstimate,
};
pub use train::{
    train, EarlyStop, EarlyStopConfig, EpochDriver, EpochStats, EpochVerdict, LoopControl,
    Schedule, StepCtx, TrainLoop, TrainState, Trainer, TrainingReport,
};
