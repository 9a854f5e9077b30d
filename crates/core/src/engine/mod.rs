//! The unified guessing-attack engine.
//!
//! Every experiment in the paper — Tables II/III, the dynamic-sampling and
//! smoothing ablations, the baseline comparisons — is an instance of one
//! protocol: *generate guesses under a budget, count uniques and test-set
//! matches at checkpoints*. This module implements that protocol once,
//! behind two abstractions:
//!
//! * [`Guesser`] — anything that can generate batches of password guesses
//!   (the flow, the Markov / PCFG / GAN / CWAE baselines, user models), with
//!   the optional [`LatentGuesser`] extension exposing the latent-space
//!   operations that make Dynamic Sampling and Gaussian smoothing possible;
//! * [`Attack`] — a builder over the attack parameters that executes the
//!   protocol through [`AttackEngine`]: budget-aligned chunking, parallel
//!   sharded generation with per-chunk deterministic RNG streams (the same
//!   seed produces the same [`CheckpointReport`]s for *any* shard count),
//!   dedup of every guess with its emission count, and streaming checkpoint
//!   reports through an observer callback.
//!
//! Long-running distributed attacks persist their progress as `PFATTACK v1`
//! checkpoints ([`Attack::checkpoint_every`] / [`Attack::resume`]) and their
//! dedup'd guess streams as `PFGUESS v1` sorted archives
//! ([`Attack::archive_to`]); a killed attack resumed from any checkpoint
//! reproduces the byte-identical outcome and archive of an uninterrupted
//! run, and shard archives merge order-independently (DESIGN.md,
//! "Distributed attacks").
//!
//! ```rust
//! use passflow_core::{Attack, FlowConfig, GuessingStrategy, PassFlow};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let flow = PassFlow::new(FlowConfig::tiny(), &mut rng)?;
//! let targets = flow.sample_passwords(32, &mut rng).into_iter().collect();
//!
//! let outcome = Attack::new(&targets)
//!     .budget(2_000)
//!     .checkpoints(vec![500, 1_000])
//!     .strategy(GuessingStrategy::Static)
//!     .observer(|report| eprintln!("{} guesses in", report.guesses))
//!     .shards(4)
//!     .run(&flow)?;
//! assert_eq!(outcome.final_report().guesses, 2_000);
//! # Ok::<(), passflow_core::FlowError>(())
//! ```

mod attack;
mod checkpoint;
mod guesser;
mod sharded;

pub use attack::{Attack, AttackEngine, AttackOutcome, CheckpointReport};
pub use guesser::{
    FlowSession, GuessSession, Guesser, LatentGuesser, LatentSession, StatelessLatentSession,
    StatelessSession,
};
