//! Latent-space prior distributions.
//!
//! The flow is trained against a factorized standard Gaussian prior
//! ([`StandardGaussianPrior`]). Dynamic Sampling (Section III-B) replaces the
//! prior at *sampling* time with a Gaussian mixture centred on the latent
//! images of already-matched passwords ([`GaussianMixturePrior`],
//! Equation 14), weighted by the penalization function φ.

use rand::Rng;

use passflow_nn::rng as nnrng;
use passflow_nn::Tensor;

const LN_2PI: f32 = 1.837_877_1; // ln(2π)

/// A distribution over the latent space that can be sampled and scored.
pub trait Prior {
    /// Dimensionality of the latent space.
    fn dim(&self) -> usize;

    /// Draws `n` samples as an `n × dim` tensor.
    fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Tensor;

    /// Log-density of each row of `z` (natural log).
    fn log_prob(&self, z: &Tensor) -> Vec<f32>;
}

// ---------------------------------------------------------------------------
// Standard Gaussian
// ---------------------------------------------------------------------------

/// The factorized standard normal prior `N(0, I)` used for training and
/// static sampling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StandardGaussianPrior {
    dim: usize,
}

impl StandardGaussianPrior {
    /// Creates a standard Gaussian prior over a `dim`-dimensional space.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "prior dimension must be positive");
        StandardGaussianPrior { dim }
    }
}

impl StandardGaussianPrior {
    /// Draws `n` samples into `out` (resized as needed), consuming the RNG
    /// identically to [`Prior::sample`], so reused buffers give bit-identical
    /// results to fresh allocations.
    pub fn sample_into<R: Rng + ?Sized>(&self, n: usize, rng: &mut R, out: &mut Tensor) {
        Tensor::randn_into(n, self.dim, rng, out);
    }
}

impl Prior for StandardGaussianPrior {
    fn dim(&self) -> usize {
        self.dim
    }

    fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Tensor {
        Tensor::randn(n, self.dim, rng)
    }

    fn log_prob(&self, z: &Tensor) -> Vec<f32> {
        assert_eq!(z.cols(), self.dim, "latent dimension mismatch");
        (0..z.rows())
            .map(|i| {
                let row = z.row_slice(i);
                let sq: f32 = row.iter().map(|v| v * v).sum();
                -0.5 * (sq + self.dim as f32 * LN_2PI)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Gaussian mixture (Equation 14)
// ---------------------------------------------------------------------------

/// A mixture of isotropic Gaussians centred on matched latent points, with
/// per-component weights supplied by the penalization function φ.
///
/// This is the sampling prior of Equation 14:
/// `p_z(z | M) = Σ_i φ(z_i) · N(z_i, σ_i)`.
#[derive(Clone, Debug, PartialEq)]
pub struct GaussianMixturePrior {
    dim: usize,
    centers: Vec<Vec<f32>>,
    sigmas: Vec<f32>,
    weights: Vec<f32>,
    /// `weights.iter().sum()`, the range each component pick draws from.
    total: f32,
    /// Indices of the nonzero-weight components, ascending.
    active: Vec<usize>,
}

impl GaussianMixturePrior {
    /// Creates a mixture from component centres, a shared standard deviation
    /// and per-component weights.
    ///
    /// Weights are normalized internally; components with zero weight are
    /// retained (they simply never get sampled), which keeps component
    /// indices stable for the caller.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are empty, have mismatched lengths, if `sigma`
    /// is not positive, or if all weights are zero.
    pub fn new(centers: Vec<Vec<f32>>, sigma: f32, weights: Vec<f32>) -> Self {
        assert!(!centers.is_empty(), "mixture needs at least one component");
        assert_eq!(
            centers.len(),
            weights.len(),
            "one weight per component required"
        );
        assert!(sigma > 0.0, "sigma must be positive");
        let dim = centers[0].len();
        assert!(dim > 0, "component dimension must be positive");
        assert!(
            centers.iter().all(|c| c.len() == dim),
            "all components must share the same dimension"
        );
        assert!(
            weights.iter().all(|w| *w >= 0.0),
            "weights must be non-negative"
        );
        let total: f32 = weights.iter().sum();
        assert!(
            total > 0.0,
            "at least one component must have positive weight"
        );
        let sigmas = vec![sigma; centers.len()];
        let weights: Vec<f32> = weights.into_iter().map(|w| w / total).collect();
        let active = (0..weights.len()).filter(|&k| weights[k] > 0.0).collect();
        GaussianMixturePrior {
            dim,
            centers,
            sigmas,
            total: weights.iter().sum(),
            weights,
            active,
        }
    }

    /// Draws one component index, consuming the RNG and returning exactly
    /// what [`nnrng::sample_discrete`] over the full weight list would, in
    /// O(active components): a zero weight never satisfies `target < w`
    /// and subtracting it leaves `target` unchanged, so skipping expired
    /// components cannot change the pick, and a fall-through still returns
    /// the full list's last index.
    fn pick_component<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut target = rng.gen_range(0.0..self.total);
        for &k in &self.active {
            let w = self.weights[k];
            if target < w {
                return k;
            }
            target -= w;
        }
        self.weights.len() - 1
    }

    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.centers.len()
    }

    /// Normalized component weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Per-component standard deviations.
    pub fn sigmas(&self) -> &[f32] {
        &self.sigmas
    }

    /// Draws `n` samples into `out` (resized as needed), consuming the RNG
    /// identically to [`Prior::sample`], so reused buffers give bit-identical
    /// results to fresh allocations.
    pub fn sample_into<R: Rng + ?Sized>(&self, n: usize, rng: &mut R, out: &mut Tensor) {
        out.resize(n, self.dim);
        for row in out.as_mut_slice().chunks_exact_mut(self.dim) {
            let k = self.pick_component(rng);
            row.copy_from_slice(&self.centers[k]);
            nnrng::add_normal_noise(row, self.sigmas[k], rng);
        }
    }
}

impl Prior for GaussianMixturePrior {
    fn dim(&self) -> usize {
        self.dim
    }

    fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Tensor {
        let mut out = Tensor::default();
        self.sample_into(n, rng, &mut out);
        out
    }

    fn log_prob(&self, z: &Tensor) -> Vec<f32> {
        assert_eq!(z.cols(), self.dim, "latent dimension mismatch");
        (0..z.rows())
            .map(|i| {
                let row = z.row_slice(i);
                // log Σ_k w_k N(row; c_k, σ_k² I) via log-sum-exp.
                let mut terms = Vec::with_capacity(self.centers.len());
                for &k in &self.active {
                    let center = &self.centers[k];
                    let sigma = self.sigmas[k];
                    let sq: f32 = row
                        .iter()
                        .zip(center.iter())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    let log_norm = -(self.dim as f32) * (sigma.ln() + 0.5 * LN_2PI)
                        - 0.5 * sq / (sigma * sigma);
                    terms.push(self.weights[k].ln() + log_norm);
                }
                // Explicit compare: `fold(…, f32::max)` miscompiles under
                // `-C target-cpu=native` on AVX-512 hosts (see Tensor::max).
                let mut max = f32::NEG_INFINITY;
                for &t in &terms {
                    if t > max {
                        max = t;
                    }
                }
                max + terms.iter().map(|t| (t - max).exp()).sum::<f32>().ln()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_gaussian_log_prob_matches_formula() {
        let prior = StandardGaussianPrior::new(2);
        let z = Tensor::from_rows(&[vec![0.0, 0.0], vec![1.0, -1.0]]);
        let lp = prior.log_prob(&z);
        // At the origin: -0.5 * 2 * ln(2π).
        assert!((lp[0] + LN_2PI).abs() < 1e-5);
        assert!((lp[1] + LN_2PI + 1.0).abs() < 1e-5);
        assert!(lp[0] > lp[1]);
    }

    #[test]
    fn standard_gaussian_samples_have_unit_moments() {
        let prior = StandardGaussianPrior::new(10);
        let mut rng = nnrng::seeded(3);
        let z = prior.sample(2_000, &mut rng);
        assert_eq!(z.shape(), (2_000, 10));
        assert!(z.mean().abs() < 0.05);
        let var = z.square().mean() - z.mean() * z.mean();
        assert!((var - 1.0).abs() < 0.1);
    }

    #[test]
    fn mixture_sampling_concentrates_near_centers() {
        let centers = vec![vec![5.0, 5.0], vec![-5.0, -5.0]];
        let prior = GaussianMixturePrior::new(centers, 0.1, vec![1.0, 1.0]);
        let mut rng = nnrng::seeded(4);
        let z = prior.sample(500, &mut rng);
        let mut near_pos = 0;
        let mut near_neg = 0;
        for i in 0..z.rows() {
            let row = z.row_slice(i);
            if row[0] > 4.0 && row[1] > 4.0 {
                near_pos += 1;
            } else if row[0] < -4.0 && row[1] < -4.0 {
                near_neg += 1;
            }
        }
        assert_eq!(near_pos + near_neg, 500);
        assert!(near_pos > 150 && near_neg > 150);
    }

    #[test]
    fn mixture_respects_zero_weights() {
        let centers = vec![vec![5.0, 5.0], vec![-5.0, -5.0]];
        let prior = GaussianMixturePrior::new(centers, 0.1, vec![1.0, 0.0]);
        let mut rng = nnrng::seeded(5);
        let z = prior.sample(200, &mut rng);
        for i in 0..z.rows() {
            assert!(z.get(i, 0) > 0.0, "sample drawn from zero-weight component");
        }
        assert_eq!(prior.num_components(), 2);
        assert_eq!(prior.weights(), &[1.0, 0.0]);
    }

    /// An RNG whose every draw is the largest it can return, so each
    /// component pick draws the top of its range.
    struct Topmost;

    impl rand::RngCore for Topmost {
        fn next_u32(&mut self) -> u32 {
            u32::MAX
        }
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn component_pick_matches_the_full_weight_scan() {
        let mut fell_through = 0;
        let mut weights_rng = nnrng::seeded(9);
        for case in 0..2_000u64 {
            // Mostly expired components, often trailing ones.
            let k = 1 + (case % 23) as usize;
            let weights: Vec<f32> = (0..k)
                .map(|_| {
                    let w: f32 = weights_rng.gen_range(0.0..1.0);
                    if w < 0.6 {
                        0.0
                    } else {
                        w
                    }
                })
                .collect();
            if weights.iter().all(|&w| w == 0.0) {
                continue;
            }
            let prior = GaussianMixturePrior::new(vec![vec![0.0]; k], 1.0, weights);
            let top = prior.pick_component(&mut Topmost);
            assert_eq!(top, nnrng::sample_discrete(prior.weights(), &mut Topmost));
            fell_through += usize::from(prior.weights()[top] == 0.0);
            let (mut a, mut b) = (nnrng::seeded(case), nnrng::seeded(case));
            for _ in 0..8 {
                assert_eq!(
                    prior.pick_component(&mut a),
                    nnrng::sample_discrete(prior.weights(), &mut b)
                );
            }
        }
        assert!(fell_through > 0, "no case reached the fall-through index");
    }

    #[test]
    fn mixture_log_prob_is_higher_near_centers() {
        let prior = GaussianMixturePrior::new(vec![vec![2.0, 0.0]], 0.5, vec![1.0]);
        let z = Tensor::from_rows(&[vec![2.0, 0.0], vec![0.0, 0.0]]);
        let lp = prior.log_prob(&z);
        assert!(lp[0] > lp[1]);
        assert_eq!(prior.sigmas(), &[0.5]);
    }

    #[test]
    fn mixture_log_prob_agrees_with_single_gaussian() {
        // A one-component mixture with σ=1 centred at the origin must equal
        // the standard Gaussian density.
        let mixture = GaussianMixturePrior::new(vec![vec![0.0; 3]], 1.0, vec![1.0]);
        let standard = StandardGaussianPrior::new(3);
        let z = Tensor::from_rows(&[vec![0.3, -0.2, 1.1], vec![0.0, 0.0, 0.0]]);
        let a = mixture.log_prob(&z);
        let b = standard.log_prob(&z);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn mixture_weights_are_normalized() {
        let prior = GaussianMixturePrior::new(vec![vec![0.0], vec![1.0]], 1.0, vec![2.0, 6.0]);
        assert!((prior.weights()[0] - 0.25).abs() < 1e-6);
        assert!((prior.weights()[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn all_zero_weights_rejected() {
        let _ = GaussianMixturePrior::new(vec![vec![0.0]], 1.0, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "same dimension")]
    fn mismatched_center_dims_rejected() {
        let _ = GaussianMixturePrior::new(vec![vec![0.0], vec![0.0, 1.0]], 1.0, vec![1.0, 1.0]);
    }
}
