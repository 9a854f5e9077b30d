//! Data-space Gaussian smoothing (Section III-C).
//!
//! A flow maps the continuous latent space onto the discrete password space,
//! so distinct latent samples frequently decode to the same password
//! (collisions) — especially under dynamic sampling with small σ, where the
//! search concentrates in tiny latent neighbourhoods. Gaussian smoothing
//! perturbs the *decoded data-space point* with small Gaussian noise,
//! nudging collided samples onto neighbouring passwords while staying in the
//! same region of the data space.

use rand::Rng;
use serde::{Deserialize, Serialize};

use passflow_nn::rng as nnrng;

/// Configuration of the data-space Gaussian smoothing pass.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaussianSmoothing {
    /// Standard deviation of the data-space perturbation. The default is a
    /// little above one encoder quantization step for the default alphabet,
    /// so a perturbation can move a character to an adjacent symbol but
    /// rarely further.
    pub sigma: f32,
    /// Maximum number of incremental perturbation attempts applied to a
    /// colliding sample before giving up and keeping the duplicate.
    pub max_attempts: usize,
}

impl Default for GaussianSmoothing {
    fn default() -> Self {
        GaussianSmoothing {
            sigma: 0.01,
            max_attempts: 4,
        }
    }
}

impl GaussianSmoothing {
    /// Creates a smoothing configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive or `max_attempts` is zero.
    pub fn new(sigma: f32, max_attempts: usize) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        assert!(max_attempts > 0, "max_attempts must be positive");
        GaussianSmoothing {
            sigma,
            max_attempts,
        }
    }

    /// Returns a perturbed copy of a data-space feature vector:
    /// `x + ε, ε ~ N(0, σ² I)`.
    pub fn perturb<R: Rng + ?Sized>(&self, features: &[f32], rng: &mut R) -> Vec<f32> {
        let mut out = features.to_vec();
        self.perturb_in_place(&mut out, rng);
        out
    }

    /// Adds `ε ~ N(0, σ² I)` to `features` in place (the allocation-free
    /// step each [`perturb_until`](Self::perturb_until) attempt takes; RNG
    /// consumption is identical to [`perturb`](Self::perturb)).
    pub fn perturb_in_place<R: Rng + ?Sized>(&self, features: &mut [f32], rng: &mut R) {
        nnrng::add_normal_noise(features, self.sigma, rng);
    }

    /// Incrementally perturbs `features` in place until `accept` returns
    /// true or `max_attempts` is exhausted; returns whether an attempt was
    /// accepted, in which case `features` holds it. On `false`, `features`
    /// holds the last rejected attempt, not the original point.
    ///
    /// "Incrementally" follows the paper: each attempt adds noise to the
    /// *previous* attempt, drifting further from the original point the
    /// longer the collision persists.
    pub fn perturb_until<R: Rng + ?Sized>(
        &self,
        features: &mut [f32],
        rng: &mut R,
        mut accept: impl FnMut(&[f32]) -> bool,
    ) -> bool {
        (0..self.max_attempts).any(|_| {
            self.perturb_in_place(features, rng);
            accept(features)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use passflow_passwords::PasswordEncoder;

    #[test]
    fn perturbation_has_the_requested_scale() {
        let smoothing = GaussianSmoothing::new(0.05, 3);
        let mut rng = nnrng::seeded(1);
        let original = vec![0.5f32; 1000];
        let perturbed = smoothing.perturb(&original, &mut rng);
        let mean_abs_delta: f32 = original
            .iter()
            .zip(perturbed.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / original.len() as f32;
        // E|N(0, σ)| = σ·sqrt(2/π) ≈ 0.8·σ.
        assert!(
            (mean_abs_delta - 0.04).abs() < 0.01,
            "delta {mean_abs_delta}"
        );
    }

    #[test]
    fn default_sigma_can_flip_characters_but_keeps_structure() {
        let smoothing = GaussianSmoothing::default();
        let encoder = PasswordEncoder::default();
        let mut rng = nnrng::seeded(2);
        let features = encoder.encode("jimmy91").unwrap();
        let mut changed = 0;
        let trials = 200;
        for _ in 0..trials {
            let perturbed = smoothing.perturb(&features, &mut rng);
            let decoded = encoder.decode(&perturbed);
            if decoded != "jimmy91" {
                changed += 1;
            }
            // Perturbed passwords never change length by more than a char or
            // two and never become empty.
            assert!(!decoded.is_empty());
            assert!(decoded.chars().count() <= 10);
        }
        // The default sigma should produce variation.
        assert!(changed > 0, "no perturbation ever changed the password");

        // A sigma well below one quantization step should frequently leave
        // the password untouched (the smoothing strength is what controls
        // how aggressively collisions are broken).
        let gentle = GaussianSmoothing::new(0.001, 4);
        let unchanged_gentle = (0..trials)
            .filter(|_| encoder.decode(&gentle.perturb(&features, &mut rng)) == "jimmy91")
            .count();
        assert!(
            unchanged_gentle > 0,
            "even a tiny perturbation always changed the password"
        );
    }

    #[test]
    fn perturb_until_respects_the_acceptance_predicate() {
        let smoothing = GaussianSmoothing::new(0.05, 10);
        let mut rng = nnrng::seeded(3);
        let mut features = vec![0.3f32; 4];
        // Accept anything: the first attempt succeeds.
        let mut attempts = 0;
        assert!(smoothing.perturb_until(&mut features, &mut rng, |_| {
            attempts += 1;
            true
        }));
        assert_eq!(attempts, 1);
        // Accept nothing: exhausts every attempt.
        attempts = 0;
        assert!(!smoothing.perturb_until(&mut features, &mut rng, |_| {
            attempts += 1;
            false
        }));
        assert_eq!(attempts, 10);
    }

    #[test]
    fn perturb_until_drifts_incrementally() {
        let smoothing = GaussianSmoothing::new(0.05, 50);
        let mut rng = nnrng::seeded(4);
        let mut features = vec![0.0f32; 8];
        let mut attempts = 0;
        let drifted = |candidate: &[f32]| candidate.iter().map(|v| v.abs()).sum::<f32>() > 0.5;
        let accepted = smoothing.perturb_until(&mut features, &mut rng, |candidate| {
            attempts += 1;
            // Only accept once the point has drifted measurably, which
            // requires accumulating several increments.
            drifted(candidate)
        });
        assert!(accepted && drifted(&features), "the accepted point is kept");
        assert!(attempts > 1, "acceptance happened suspiciously early");
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn invalid_sigma_rejected() {
        let _ = GaussianSmoothing::new(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "max_attempts must be positive")]
    fn zero_attempts_rejected() {
        let _ = GaussianSmoothing::new(0.1, 0);
    }
}
