//! # passflow-baselines
//!
//! Baseline password guessers the paper compares against, implemented on the
//! same substrates as PassFlow so every row of Tables II and III can be
//! regenerated:
//!
//! * [`MarkovModel`] — an order-n character-level Markov model (the classic
//!   JTR-Markov style guesser referenced in Related Work),
//! * [`PcfgModel`] — a Weir-style probabilistic context-free grammar over
//!   structure templates and terminals,
//! * [`PassGan`] — a Wasserstein-GAN password generator standing in for
//!   PassGAN / the improved GAN of Pasquini et al.,
//! * [`Cwae`] — a context autoencoder with moment-matching regularization
//!   standing in for the CWAE of Pasquini et al.
//!
//! All guessers implement [`passflow_core::Guesser`], so the unified
//! [`Attack`](passflow_core::Attack) engine drives them interchangeably —
//! and through the same protocol as `PassFlow` itself. The Markov and PCFG
//! models additionally expose their exact probabilities through
//! [`passflow_core::ProbabilityModel`], plugging them into the strength
//! subsystem (`passflow_core::strength`) as ground-truth-exact meters.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod cwae;
mod gan;
mod guesser;
mod markov;
mod pcfg;

pub use cwae::{Cwae, CwaeConfig};
pub use gan::{PassGan, PassGanConfig};
pub use guesser::Guesser;
pub use markov::MarkovModel;
pub use pcfg::PcfgModel;
