//! The PassFlow model: a stack of affine coupling layers forming an
//! invertible map between password feature vectors and a Gaussian latent
//! space (Sections II and III of the paper).

use std::sync::Arc;

use parking_lot::RwLock;
use rand::Rng;

use passflow_nn::rng as nnrng;
use passflow_nn::{GradBatch, Parameter, Tape, Tensor, Var};
use passflow_passwords::PasswordEncoder;

use crate::config::FlowConfig;
use crate::coupling::CouplingLayer;
use crate::error::{FlowError, Result};
use crate::fastpath::{FlowSnapshot, FlowWorkspace};
use crate::prior::{Prior, StandardGaussianPrior};

const LN_2PI: f32 = 1.837_877_1;

/// A flow-based generative model over passwords.
///
/// The model is an invertible function `f_θ : X → Z` built from
/// [`CouplingLayer`]s with alternating masks. Training maximizes the exact
/// log-likelihood (Equation 8); sampling draws latent points from a prior
/// and applies the inverse flow.
///
/// # Example
///
/// ```rust
/// use passflow_core::{FlowConfig, PassFlow};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let flow = PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap();
/// // Untrained models already define an exact density over passwords.
/// let lp = flow.log_prob_password("jimmy91").unwrap();
/// assert!(lp.is_finite());
/// ```
#[derive(Clone, Debug)]
pub struct PassFlow {
    config: FlowConfig,
    encoder: PasswordEncoder,
    couplings: Vec<CouplingLayer>,
    snapshot_cache: SnapshotCache,
}

/// A lazily built, automatically invalidated cache of the flow's inference
/// snapshot. Cloning a `PassFlow` starts the clone with a cold cache (the
/// weights themselves are shared handles, so both caches converge to the
/// same snapshot on demand).
#[derive(Debug, Default)]
struct SnapshotCache(RwLock<Option<Arc<FlowSnapshot>>>);

impl Clone for SnapshotCache {
    fn clone(&self) -> Self {
        SnapshotCache::default()
    }
}

impl PassFlow {
    /// Creates a randomly initialized flow with the default password encoder
    /// (full printable alphabet, maximum length from the configuration).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] if the configuration does not
    /// validate.
    pub fn new<R: Rng + ?Sized>(config: FlowConfig, rng: &mut R) -> Result<Self> {
        let encoder = PasswordEncoder::new(passflow_passwords::Alphabet::default(), config.max_len);
        Self::with_encoder(config, encoder, rng)
    }

    /// Creates a randomly initialized flow with a custom encoder.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] if the configuration does not
    /// validate or if the encoder's length differs from `config.max_len`.
    pub fn with_encoder<R: Rng + ?Sized>(
        config: FlowConfig,
        encoder: PasswordEncoder,
        rng: &mut R,
    ) -> Result<Self> {
        config.validate()?;
        if encoder.max_len() != config.max_len {
            return Err(FlowError::InvalidConfig(format!(
                "encoder max_len {} does not match config max_len {}",
                encoder.max_len(),
                config.max_len
            )));
        }
        let couplings = (0..config.coupling_layers)
            .map(|i| {
                let mask = config.masking.mask_for_layer(i, config.max_len);
                CouplingLayer::new(
                    config.max_len,
                    config.hidden_size,
                    config.residual_blocks,
                    &mask,
                    rng,
                )
            })
            .collect();
        Ok(PassFlow {
            config,
            encoder,
            couplings,
            snapshot_cache: SnapshotCache::default(),
        })
    }

    /// The architecture configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The password encoder used by this flow.
    pub fn encoder(&self) -> &PasswordEncoder {
        &self.encoder
    }

    /// Dimensionality of the data and latent spaces.
    pub fn dim(&self) -> usize {
        self.config.max_len
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<Parameter> {
        self.couplings.iter().flat_map(|c| c.parameters()).collect()
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.parameters().iter().map(Parameter::len).sum()
    }

    /// The standard-normal prior this flow is trained against.
    pub fn prior(&self) -> StandardGaussianPrior {
        StandardGaussianPrior::new(self.dim())
    }

    // ------------------------------------------------------------------
    // Encoding helpers
    // ------------------------------------------------------------------

    /// Encodes a batch of passwords into a `n × dim` tensor, skipping any
    /// password the encoder cannot represent.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyTrainingSet`] if nothing could be encoded.
    pub fn encode_batch(&self, passwords: &[String]) -> Result<Tensor> {
        let (features, _) = self.encoder.encode_batch(passwords);
        if features.is_empty() {
            return Err(FlowError::EmptyTrainingSet);
        }
        let rows: Vec<Vec<f32>> = features;
        Ok(Tensor::from_rows(&rows))
    }

    /// Decodes each row of a data-space tensor back into a password string.
    pub fn decode_batch(&self, x: &Tensor) -> Vec<String> {
        (0..x.rows())
            .map(|i| self.encoder.decode(x.row_slice(i)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Forward / inverse / density
    // ------------------------------------------------------------------

    /// Applies the forward flow `z = f_θ(x)` through the inference fast
    /// path (cached weight snapshot + fused kernels).
    ///
    /// Returns the latent batch and the per-sample log-determinant of the
    /// Jacobian (a `batch × 1` tensor). Bit-exact with
    /// [`forward_reference`](Self::forward_reference).
    pub fn forward(&self, x: &Tensor) -> (Tensor, Tensor) {
        self.snapshot().forward(x)
    }

    /// Applies the inverse flow `x = f_θ⁻¹(z)` through the inference fast
    /// path (cached weight snapshot + fused kernels).
    ///
    /// Bit-exact with [`inverse_reference`](Self::inverse_reference).
    pub fn inverse(&self, z: &Tensor) -> Tensor {
        self.snapshot().inverse(z)
    }

    /// Reference forward implementation: chains [`CouplingLayer::forward`],
    /// the taped training forward of each layer. Kept as the oracle the
    /// fast path is tested against to 0 ULP.
    pub fn forward_reference(&self, x: &Tensor) -> (Tensor, Tensor) {
        assert_eq!(
            x.cols(),
            self.dim(),
            "input width must equal flow dimension"
        );
        let mut z = x.clone();
        let mut log_det = Tensor::zeros(x.rows(), 1);
        for coupling in &self.couplings {
            let (next, ld) = coupling.forward(&z);
            z = next;
            log_det.add_assign(&ld);
        }
        (z, log_det)
    }

    /// Reference inverse implementation: chains [`CouplingLayer::inverse`],
    /// whose `s`/`t` networks run their taped forward. Kept as the oracle
    /// the fast path is tested against to 0 ULP.
    pub fn inverse_reference(&self, z: &Tensor) -> Tensor {
        assert_eq!(
            z.cols(),
            self.dim(),
            "input width must equal flow dimension"
        );
        let mut x = z.clone();
        for coupling in self.couplings.iter().rev() {
            x = coupling.inverse(&x);
        }
        x
    }

    /// Exact log-density of each row of `x` under the model (Equation 5):
    /// `log p_θ(x) = log p_z(f_θ(x)) + log |det ∂f_θ/∂x|`.
    ///
    /// Routes through the fused fast path
    /// ([`FlowSnapshot::log_prob_into`]); bit-exact with
    /// [`log_prob_reference`](Self::log_prob_reference).
    pub fn log_prob(&self, x: &Tensor) -> Vec<f32> {
        let mut ws = FlowWorkspace::new();
        let mut out = Tensor::default();
        self.snapshot().log_prob_into(x, &mut ws, &mut out);
        out.as_slice().to_vec()
    }

    /// Reference log-density implementation: [`forward_reference`] plus the
    /// prior's per-row scoring. Kept as the oracle the fused
    /// [`log_prob`](Self::log_prob) path is tested against to 0 ULP.
    ///
    /// [`forward_reference`]: Self::forward_reference
    pub fn log_prob_reference(&self, x: &Tensor) -> Vec<f32> {
        let (z, log_det) = self.forward_reference(x);
        let prior = self.prior();
        prior
            .log_prob(&z)
            .into_iter()
            .enumerate()
            .map(|(i, lp)| lp + log_det.get(i, 0))
            .collect()
    }

    /// Exact log-density of a single password.
    ///
    /// Returns `None` if the password cannot be encoded.
    pub fn log_prob_password(&self, password: &str) -> Option<f32> {
        let features = self.encoder.encode(password)?;
        let x = Tensor::from_rows(&[features]);
        Some(self.log_prob(&x)[0])
    }

    /// Latent representation of a single password (`z = f_θ(x)`).
    ///
    /// Returns `None` if the password cannot be encoded.
    pub fn latent_of(&self, password: &str) -> Option<Vec<f32>> {
        let features = self.encoder.encode(password)?;
        let x = Tensor::from_rows(&[features]);
        let (z, _) = self.forward(&x);
        Some(z.row_slice(0).to_vec())
    }

    // ------------------------------------------------------------------
    // Sampling
    // ------------------------------------------------------------------

    /// Draws `n` latent samples from the standard-normal prior.
    pub fn sample_latent<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Tensor {
        self.prior().sample(n, rng)
    }

    /// Generates `n` password guesses by sampling the prior and inverting
    /// the flow (the paper's *static* sampling).
    pub fn sample_passwords<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<String> {
        let z = self.sample_latent(n, rng);
        let x = self.inverse(&z);
        self.decode_batch(&x)
    }

    /// Samples `n` passwords in the latent neighbourhood of `pivot`
    /// (Table V): latent points are drawn from `N(f_θ(pivot), σ² I)` and
    /// mapped back to the data space.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnencodablePassword`] if the pivot cannot be
    /// encoded.
    pub fn sample_near<R: Rng + ?Sized>(
        &self,
        pivot: &str,
        sigma: f32,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<String>> {
        let center = self
            .latent_of(pivot)
            .ok_or_else(|| FlowError::UnencodablePassword(pivot.to_string()))?;
        let mut z = Tensor::zeros(n, self.dim());
        for row in z.as_mut_slice().chunks_exact_mut(center.len()) {
            row.copy_from_slice(&center);
            nnrng::add_normal_noise(row, sigma, rng);
        }
        let x = self.inverse(&z);
        Ok(self.decode_batch(&x))
    }

    // ------------------------------------------------------------------
    // Training loss
    // ------------------------------------------------------------------

    /// Builds the negative log-likelihood loss (Equation 8) for a batch of
    /// encoded passwords on the given tape. The returned scalar [`Var`] can
    /// be backpropagated directly.
    pub fn nll_loss(&self, tape: &Tape, batch: &Tensor) -> Var {
        let n = batch.rows() as f32;
        self.nll_loss_sum(tape, batch).scale(1.0 / n)
    }

    /// Like [`nll_loss`](Self::nll_loss) but summed over the batch instead
    /// of averaged.
    ///
    /// This is the micro-batch form used by the data-parallel trainer:
    /// per-shard sums reduce by plain addition, and the trainer applies the
    /// `1/N` normalization once after its deterministic fixed-order
    /// reduction, so the normalization never depends on how the batch was
    /// sharded.
    pub fn nll_loss_sum(&self, tape: &Tape, batch: &Tensor) -> Var {
        assert_eq!(
            batch.cols(),
            self.dim(),
            "batch width must equal flow dimension"
        );
        let n = batch.rows() as f32;
        let mut z = tape.constant(batch.clone());
        let mut total_log_det: Option<Var> = None;
        for coupling in &self.couplings {
            let (next, log_det_elems) = coupling.forward_var(tape, &z);
            z = next;
            let ld_sum = log_det_elems.sum();
            total_log_det = Some(match total_log_det {
                Some(acc) => acc.add(&ld_sum),
                None => ld_sum,
            });
        }
        // -log p_z(z) summed over the batch: 0.5 * Σ z² + N·D/2 · ln(2π).
        let neg_log_prior = z
            .square()
            .sum()
            .scale(0.5)
            .add_scalar(n * self.dim() as f32 * 0.5 * LN_2PI);
        let total_log_det = total_log_det.expect("flow has at least one coupling layer");
        neg_log_prior.sub(&total_log_det)
    }

    /// Computes the summed NLL of `batch` and its parameter gradients on a
    /// private tape, detached from the shared gradient storage.
    ///
    /// One call is one gradient-worker work unit: workers call this
    /// concurrently on disjoint micro-batches and the trainer merges the
    /// returned batches in micro-batch order (see the `train` module docs).
    pub fn nll_grad_sum(&self, batch: &Tensor) -> (f32, GradBatch) {
        let tape = Tape::new();
        let loss = self.nll_loss_sum(&tape, batch);
        let value = loss.value().get(0, 0);
        (value, loss.backward_grads())
    }

    /// Average negative log-likelihood of a batch, computed without autograd
    /// (for validation/reporting).
    pub fn nll(&self, batch: &Tensor) -> f32 {
        let log_probs = self.log_prob(batch);
        -log_probs.iter().sum::<f32>() / log_probs.len() as f32
    }

    // ------------------------------------------------------------------
    // Weight snapshots
    // ------------------------------------------------------------------

    /// Returns the flow's inference snapshot (see [`FlowSnapshot`]),
    /// exporting the weights at most once between weight mutations.
    ///
    /// The snapshot is cached behind version stamps: any `set_value` /
    /// optimizer update to a parameter invalidates it, so callers always
    /// observe current weights while steady-state inference pays the export
    /// cost once per chunk/epoch instead of one lock + clone per layer call.
    pub fn snapshot(&self) -> Arc<FlowSnapshot> {
        {
            let cached = self.snapshot_cache.0.read();
            if let Some(snapshot) = cached.as_ref() {
                if snapshot.is_current() {
                    return Arc::clone(snapshot);
                }
            }
        }
        let fresh = Arc::new(FlowSnapshot::new(
            self.couplings.iter().map(CouplingLayer::snapshot).collect(),
            self.parameters(),
        ));
        *self.snapshot_cache.0.write() = Some(Arc::clone(&fresh));
        fresh
    }

    /// Applies the inverse flow into `out` using a caller-managed snapshot
    /// and workspace — the allocation-free form of [`inverse`](Self::inverse)
    /// used by the attack engine's chunk loop.
    pub fn inverse_into(&self, z: &Tensor, ws: &mut FlowWorkspace, out: &mut Tensor) {
        self.snapshot().inverse_into(z, ws, out);
    }

    /// Copies all parameter values into a flat list (for checkpointing).
    pub fn weight_snapshot(&self) -> Vec<Tensor> {
        self.parameters().iter().map(Parameter::value).collect()
    }

    /// Restores parameter values from a snapshot produced by
    /// [`weight_snapshot`](Self::weight_snapshot).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::IncompatibleWeights`] if the snapshot has the
    /// wrong number of tensors or mismatched shapes.
    pub fn load_weights(&self, snapshot: &[Tensor]) -> Result<()> {
        let params = self.parameters();
        if params.len() != snapshot.len() {
            return Err(FlowError::IncompatibleWeights(format!(
                "expected {} tensors, got {}",
                params.len(),
                snapshot.len()
            )));
        }
        for (p, w) in params.iter().zip(snapshot.iter()) {
            if p.value().shape() != w.shape() {
                return Err(FlowError::IncompatibleWeights(format!(
                    "shape mismatch for {}: {:?} vs {:?}",
                    p.name(),
                    p.value().shape(),
                    w.shape()
                )));
            }
            p.set_value(w.clone());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;

    fn tiny_flow(seed: u64) -> PassFlow {
        let mut rng = nnrng::seeded(seed);
        PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap()
    }

    #[test]
    fn construction_respects_config() {
        let flow = tiny_flow(1);
        assert_eq!(flow.dim(), 10);
        assert_eq!(flow.config().coupling_layers, 4);
        assert!(flow.num_parameters() > 0);
        assert_eq!(
            flow.parameters().len(),
            4 * flow.couplings[0].parameters().len()
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut rng = nnrng::seeded(1);
        let bad = FlowConfig::tiny().with_coupling_layers(3);
        assert!(matches!(
            PassFlow::new(bad, &mut rng),
            Err(FlowError::InvalidConfig(_))
        ));
    }

    #[test]
    fn mismatched_encoder_is_rejected() {
        let mut rng = nnrng::seeded(1);
        let encoder = PasswordEncoder::new(passflow_passwords::Alphabet::default(), 8);
        assert!(PassFlow::with_encoder(FlowConfig::tiny(), encoder, &mut rng).is_err());
    }

    #[test]
    fn forward_inverse_round_trip_on_passwords() {
        let flow = tiny_flow(2);
        let passwords = vec![
            "jimmy91".to_string(),
            "123456".to_string(),
            "iloveyou".to_string(),
        ];
        let x = flow.encode_batch(&passwords).unwrap();
        let (z, log_det) = flow.forward(&x);
        assert_eq!(z.shape(), (3, 10));
        assert_eq!(log_det.shape(), (3, 1));
        let recovered = flow.inverse(&z);
        assert!(
            recovered.approx_eq(&x, 1e-3),
            "max err {}",
            recovered.sub(&x).abs().max()
        );
        // Decoding the recovered features gives back the original passwords.
        assert_eq!(flow.decode_batch(&recovered), passwords);
    }

    #[test]
    fn latent_round_trip_from_prior_side() {
        let flow = tiny_flow(3);
        let mut rng = nnrng::seeded(4);
        let z = flow.sample_latent(5, &mut rng);
        let x = flow.inverse(&z);
        let (z2, _) = flow.forward(&x);
        assert!(z2.approx_eq(&z, 1e-3));
    }

    #[test]
    fn log_prob_is_finite_and_consistent_with_nll() {
        let flow = tiny_flow(5);
        let passwords = vec!["password".to_string(), "qwerty12".to_string()];
        let x = flow.encode_batch(&passwords).unwrap();
        let lps = flow.log_prob(&x);
        assert!(lps.iter().all(|v| v.is_finite()));
        let nll = flow.nll(&x);
        let mean_lp = lps.iter().sum::<f32>() / lps.len() as f32;
        assert!((nll + mean_lp).abs() < 1e-4);
    }

    #[test]
    fn log_prob_password_matches_batch_log_prob() {
        let flow = tiny_flow(6);
        let single = flow.log_prob_password("jimmy91").unwrap();
        let x = flow.encode_batch(&["jimmy91".to_string()]).unwrap();
        let batch = flow.log_prob(&x)[0];
        assert!((single - batch).abs() < 1e-5);
        assert!(flow.log_prob_password("waytoolongpassword").is_none());
    }

    #[test]
    fn nll_loss_var_matches_tensor_nll() {
        let flow = tiny_flow(7);
        let x = flow
            .encode_batch(&["monkey12".to_string(), "dragon".to_string()])
            .unwrap();
        let tape = Tape::new();
        let loss = flow.nll_loss(&tape, &x).value().get(0, 0);
        let reference = flow.nll(&x);
        assert!(
            (loss - reference).abs() < 1e-3,
            "taped {loss} vs tensor {reference}"
        );
    }

    #[test]
    fn nll_grad_sum_matches_taped_backward() {
        let flow = tiny_flow(21);
        let x = flow
            .encode_batch(&["monkey12".to_string(), "dragon".to_string()])
            .unwrap();

        // Reference: shared-accumulation backward through nll_loss_sum.
        let tape = Tape::new();
        let loss = flow.nll_loss_sum(&tape, &x);
        let reference_value = loss.value().get(0, 0);
        loss.backward();

        let (value, grads) = flow.nll_grad_sum(&x);
        assert_eq!(value.to_bits(), reference_value.to_bits());
        for p in flow.parameters() {
            let detached = grads.get(&p).expect("gradient for every parameter");
            assert_eq!(detached.as_slice(), p.grad().as_slice(), "{}", p.name());
            p.zero_grad();
        }
        // nll_loss is exactly the sum scaled by 1/n.
        let tape = Tape::new();
        let mean = flow.nll_loss(&tape, &x).value().get(0, 0);
        assert!((mean - value / 2.0).abs() < 1e-4);
    }

    #[test]
    fn sampling_produces_decodable_passwords() {
        let flow = tiny_flow(8);
        let mut rng = nnrng::seeded(9);
        let guesses = flow.sample_passwords(20, &mut rng);
        assert_eq!(guesses.len(), 20);
        // All guesses must be encodable strings over the alphabet with the
        // flow's maximum length.
        for g in &guesses {
            assert!(g.chars().count() <= 10);
            assert!(flow.encoder().can_encode(g), "unencodable guess {g:?}");
        }
    }

    #[test]
    fn sample_near_stays_close_for_small_sigma() {
        let flow = tiny_flow(10);
        let mut rng = nnrng::seeded(11);
        let near = flow.sample_near("jimmy91", 1e-4, 10, &mut rng).unwrap();
        // With a tiny sigma every neighbour decodes to the pivot itself.
        assert!(near.iter().all(|p| p == "jimmy91"), "{near:?}");
        assert!(flow
            .sample_near("waytoolongpassword", 0.1, 1, &mut rng)
            .is_err());
    }

    #[test]
    fn latent_of_is_deterministic() {
        let flow = tiny_flow(12);
        let a = flow.latent_of("sunshine1").unwrap();
        let b = flow.latent_of("sunshine1").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn weight_snapshot_round_trips() {
        let flow = tiny_flow(13);
        let snapshot = flow.weight_snapshot();
        let original_lp = flow.log_prob_password("charlie7").unwrap();

        // Perturb all weights, check the density changes, then restore.
        for p in flow.parameters() {
            p.set_value(p.value().add_scalar(0.05));
        }
        let perturbed_lp = flow.log_prob_password("charlie7").unwrap();
        assert!((original_lp - perturbed_lp).abs() > 1e-6);

        flow.load_weights(&snapshot).unwrap();
        let restored_lp = flow.log_prob_password("charlie7").unwrap();
        assert!((original_lp - restored_lp).abs() < 1e-6);
    }

    #[test]
    fn load_weights_validates_shapes() {
        let flow = tiny_flow(14);
        assert!(matches!(
            flow.load_weights(&[]),
            Err(FlowError::IncompatibleWeights(_))
        ));
        let mut wrong = flow.weight_snapshot();
        wrong[0] = Tensor::zeros(1, 1);
        assert!(flow.load_weights(&wrong).is_err());
    }

    #[test]
    fn encode_batch_skips_unencodable_and_errors_when_empty() {
        let flow = tiny_flow(15);
        let mixed = vec!["ok".to_string(), "definitelytoolong".to_string()];
        let x = flow.encode_batch(&mixed).unwrap();
        assert_eq!(x.rows(), 1);
        let all_bad = vec!["definitelytoolong".to_string()];
        assert!(matches!(
            flow.encode_batch(&all_bad),
            Err(FlowError::EmptyTrainingSet)
        ));
    }
}
