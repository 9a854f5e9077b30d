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

/// FNV-1a-64 digests of generated strings and float bits, for the
/// generation pins in the GAN and CWAE tests.
#[cfg(test)]
mod digest {
    fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

    pub(crate) fn strings<S: AsRef<str>>(strings: &[S]) -> u64 {
        let hash = fnv1a(FNV_SEED, &(strings.len() as u64).to_le_bytes());
        strings.iter().fold(hash, |h, s| {
            let s = s.as_ref();
            fnv1a(fnv1a(h, &(s.len() as u64).to_le_bytes()), s.as_bytes())
        })
    }

    pub(crate) fn floats(values: &[f32]) -> u64 {
        let hash = fnv1a(FNV_SEED, &(values.len() as u64).to_le_bytes());
        values
            .iter()
            .fold(hash, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
    }
}
