//! Context Wasserstein autoencoder (the CWAE stand-in, Section VI-C).
//!
//! Pasquini et al. [33] train a Wasserstein autoencoder as a *context*
//! autoencoder: the encoder sees a corrupted password (characters dropped
//! with probability `ε / |x|`) and the decoder must reconstruct the original,
//! which regularizes the latent space. Sampling draws latent points from the
//! prior and decodes them. Unlike a flow, the latent dimensionality is a free
//! hyper-parameter (the paper uses 128 and discusses how this affects unique
//! sample counts versus PassFlow's data-bound 10 dimensions).
//!
//! The Wasserstein regularizer is implemented as moment matching between the
//! batch of encoded latents and the Gaussian prior — the "moment matching
//! regularization" variant named in the paper.

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use passflow_nn::rng as nnrng;
use passflow_nn::{
    Activation, ActivationKind, Adam, Linear, Module, Optimizer, Sequential, Tape, Tensor,
};
use passflow_passwords::PasswordEncoder;

use passflow_core::{EpochDriver, Guesser, LoopControl, Schedule, StepCtx, TrainLoop};

/// Hyper-parameters of the CWAE baseline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CwaeConfig {
    /// Dimensionality of the latent space (128 in Pasquini et al.; smaller
    /// by default here to match the reproduction's CPU scale).
    pub latent_dim: usize,
    /// Hidden width of encoder and decoder.
    pub hidden_size: usize,
    /// Number of training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Expected number of characters dropped from each password to form the
    /// context input (the ε of Pasquini et al.; dropout probability is
    /// `ε / |x|`).
    pub context_epsilon: f32,
    /// Weight of the latent moment-matching regularizer.
    pub regularization: f32,
    /// RNG seed.
    pub seed: u64,
}

impl CwaeConfig {
    /// A reduced configuration for CPU-scale harness runs.
    pub fn evaluation() -> Self {
        CwaeConfig {
            latent_dim: 32,
            hidden_size: 64,
            epochs: 25,
            batch_size: 128,
            learning_rate: 1e-3,
            context_epsilon: 2.0,
            regularization: 0.5,
            seed: 0,
        }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny() -> Self {
        CwaeConfig {
            latent_dim: 16,
            hidden_size: 32,
            epochs: 6,
            batch_size: 64,
            learning_rate: 2e-3,
            context_epsilon: 1.0,
            regularization: 0.5,
            seed: 0,
        }
    }

    /// Sets the number of epochs (builder style).
    #[must_use]
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the latent dimensionality (builder style).
    #[must_use]
    pub fn with_latent_dim(mut self, latent_dim: usize) -> Self {
        self.latent_dim = latent_dim;
        self
    }

    /// Sets the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for CwaeConfig {
    fn default() -> Self {
        Self::evaluation()
    }
}

/// A trained context Wasserstein autoencoder.
pub struct Cwae {
    config: CwaeConfig,
    encoder_net: Sequential,
    decoder_net: Sequential,
    password_encoder: PasswordEncoder,
    /// Mean total loss per epoch, recorded during training.
    loss_history: Vec<f32>,
}

impl std::fmt::Debug for Cwae {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Cwae(latent_dim={}, hidden={}, epochs={})",
            self.config.latent_dim, self.config.hidden_size, self.config.epochs
        )
    }
}

fn build_mlp<R: Rng + ?Sized>(
    in_dim: usize,
    hidden: usize,
    out_dim: usize,
    sigmoid_out: bool,
    rng: &mut R,
) -> Sequential {
    let net = Sequential::new()
        .push(Linear::new_relu(in_dim, hidden, rng))
        .push(Activation::new(ActivationKind::Relu))
        .push(Linear::new_relu(hidden, hidden, rng))
        .push(Activation::new(ActivationKind::Relu))
        .push(Linear::new(hidden, out_dim, rng));
    if sigmoid_out {
        net.push(Activation::new(ActivationKind::Sigmoid))
    } else {
        net
    }
}

/// The CWAE's [`EpochDriver`] for the shared [`TrainLoop`]: one batch is a
/// corrupt→encode→decode→reconstruct step on a random row sample.
struct CwaeDriver<'a> {
    config: &'a CwaeConfig,
    data: &'a Tensor,
    encoder_net: &'a Sequential,
    decoder_net: &'a Sequential,
    optimizer: Adam,
    parameters: Vec<passflow_nn::Parameter>,
    rng: rand::rngs::StdRng,
    loss_history: Vec<f32>,
}

impl EpochDriver for CwaeDriver<'_> {
    type Error = std::convert::Infallible;

    fn on_batch(&mut self, ctx: &StepCtx) -> Result<f32, Self::Error> {
        let config = self.config;
        let indices: Vec<usize> = (0..config.batch_size)
            .map(|_| self.rng.gen_range(0..self.data.rows()))
            .collect();
        let clean = self.data.select_rows(&indices);
        let corrupted = corrupt_context(&clean, config.context_epsilon, &mut self.rng);

        let tape = Tape::new();
        let latent = self.encoder_net.forward(&tape, &tape.constant(corrupted));
        let reconstruction = self.decoder_net.forward(&tape, &latent);
        let target = tape.constant(clean);

        // Reconstruction loss + latent moment matching to N(0, I).
        let recon = reconstruction.sub(&target).square().mean();
        let latent_mean = latent.mean();
        let latent_second_moment = latent.square().mean();
        let reg = latent_mean
            .square()
            .add(&latent_second_moment.add_scalar(-1.0).square())
            .scale(config.regularization);
        let loss = recon.add(&reg);
        let loss_value = loss.value().get(0, 0);
        loss.backward();
        self.optimizer.set_learning_rate(ctx.lr);
        self.optimizer.step(&self.parameters);
        Ok(loss_value)
    }

    fn on_epoch_end(&mut self, _epoch: usize, mean_loss: f32) -> Result<LoopControl, Self::Error> {
        self.loss_history.push(mean_loss);
        Ok(LoopControl::Continue)
    }
}

impl Cwae {
    /// Trains the autoencoder on a password corpus.
    ///
    /// # Panics
    ///
    /// Panics if no training password can be encoded.
    pub fn train(
        passwords: &[String],
        password_encoder: PasswordEncoder,
        config: CwaeConfig,
    ) -> Self {
        let (features, _) = password_encoder.encode_batch(passwords);
        assert!(
            !features.is_empty(),
            "no training password could be encoded"
        );
        let data = Tensor::from_rows(&features);
        let dim = password_encoder.max_len();
        let mut rng = nnrng::seeded(config.seed);

        let encoder_net = build_mlp(dim, config.hidden_size, config.latent_dim, false, &mut rng);
        let decoder_net = build_mlp(config.latent_dim, config.hidden_size, dim, true, &mut rng);
        let mut parameters = encoder_net.parameters();
        parameters.extend(decoder_net.parameters());

        let num_batches = data.rows().div_ceil(config.batch_size);
        let mut driver = CwaeDriver {
            config: &config,
            data: &data,
            encoder_net: &encoder_net,
            decoder_net: &decoder_net,
            optimizer: Adam::new(config.learning_rate),
            parameters,
            rng,
            loss_history: Vec::with_capacity(config.epochs),
        };
        TrainLoop::new(
            config.epochs,
            num_batches,
            config.learning_rate,
            Schedule::Constant,
        )
        .run(0, &mut driver)
        .expect("CWAE training is infallible");
        let loss_history = driver.loss_history;

        Cwae {
            config,
            encoder_net,
            decoder_net,
            password_encoder,
            loss_history,
        }
    }

    /// The training configuration.
    pub fn config(&self) -> &CwaeConfig {
        &self.config
    }

    /// Per-epoch loss trajectory recorded during training.
    pub fn loss_history(&self) -> &[f32] {
        &self.loss_history
    }

    /// Encodes a password into its latent representation, or `None` if the
    /// password cannot be encoded.
    pub fn latent_of(&self, password: &str) -> Option<Vec<f32>> {
        let features = self.password_encoder.encode(password)?;
        let x = Tensor::from_rows(&[features]);
        let z = self.encoder_net.export_snapshot().forward(&x);
        Some(z.row_slice(0).to_vec())
    }

    /// Reconstructs a password through the autoencoder (encode then decode).
    pub fn reconstruct(&self, password: &str) -> Option<String> {
        let features = self.password_encoder.encode(password)?;
        let x = Tensor::from_rows(&[features]);
        let z = self.encoder_net.export_snapshot().forward(&x);
        let out = self.decoder_net.export_snapshot().forward(&z);
        Some(self.password_encoder.decode(out.row_slice(0)))
    }

    /// Generates `n` passwords by sampling the Gaussian prior and decoding.
    pub fn sample_passwords<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<String> {
        let z = Tensor::randn(n, self.config.latent_dim, rng);
        let features = self.decoder_net.export_snapshot().forward(&z);
        (0..features.rows())
            .map(|i| self.password_encoder.decode(features.row_slice(i)))
            .collect()
    }
}

impl Guesser for Cwae {
    fn name(&self) -> &str {
        "CWAE"
    }

    fn generate_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
        self.sample_passwords(n, rng)
    }
}

/// Drops characters from each encoded password with probability
/// `ε / length`, producing the "context" input of Pasquini et al. A dropped
/// position is set to the padding value 0.
fn corrupt_context<R: Rng + ?Sized>(batch: &Tensor, epsilon: f32, rng: &mut R) -> Tensor {
    let mut out = batch.clone();
    for i in 0..batch.rows() {
        let length = batch
            .row_slice(i)
            .iter()
            .filter(|&&v| v > 0.0)
            .count()
            .max(1);
        let drop_prob = (epsilon / length as f32).clamp(0.0, 0.9);
        for j in 0..batch.cols() {
            if batch.get(i, j) > 0.0 && rng.gen::<f32>() < drop_prob {
                out.set(i, j, 0.0);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use passflow_passwords::{CorpusConfig, SyntheticCorpusGenerator};

    fn corpus(n: usize) -> Vec<String> {
        SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(n))
            .generate(67)
            .into_passwords()
    }

    fn trained() -> Cwae {
        Cwae::train(
            &corpus(1_500),
            PasswordEncoder::default(),
            CwaeConfig::tiny(),
        )
    }

    #[test]
    fn training_reduces_the_loss() {
        let cwae = trained();
        let history = cwae.loss_history();
        assert_eq!(history.len(), 6);
        assert!(history.iter().all(|v| v.is_finite()));
        assert!(
            history.last().unwrap() < history.first().unwrap(),
            "loss did not decrease: {history:?}"
        );
    }

    #[test]
    fn corruption_only_drops_filled_positions() {
        let encoder = PasswordEncoder::default();
        let x = Tensor::from_rows(&[encoder.encode("abcdef").unwrap()]);
        let mut rng = nnrng::seeded(1);
        let corrupted = corrupt_context(&x, 3.0, &mut rng);
        for j in 0..x.cols() {
            if x.get(0, j) == 0.0 {
                assert_eq!(corrupted.get(0, j), 0.0);
            } else {
                assert!(corrupted.get(0, j) == 0.0 || corrupted.get(0, j) == x.get(0, j));
            }
        }
        // With ε=3 on a 6-character password roughly half the characters
        // drop; over many draws at least one drop must occur.
        let mut any_dropped = false;
        for _ in 0..20 {
            let c = corrupt_context(&x, 3.0, &mut rng);
            if (0..x.cols()).any(|j| c.get(0, j) != x.get(0, j)) {
                any_dropped = true;
                break;
            }
        }
        assert!(any_dropped);
    }

    #[test]
    fn reconstruction_is_close_to_the_input_after_training() {
        let cwae = trained();
        // The autoencoder should at least preserve password length
        // approximately for common training-like passwords.
        let reconstructed = cwae.reconstruct("jessica1").unwrap();
        assert!(!reconstructed.is_empty());
        assert!(reconstructed.chars().count() <= 10);
        assert!(cwae.reconstruct("waytoolongpassword").is_none());
    }

    #[test]
    fn latent_dimension_is_configurable_unlike_a_flow() {
        let cwae = Cwae::train(
            &corpus(400),
            PasswordEncoder::default(),
            CwaeConfig::tiny().with_latent_dim(24).with_epochs(1),
        );
        assert_eq!(cwae.latent_of("monkey7").unwrap().len(), 24);
        assert_eq!(cwae.config().latent_dim, 24);
    }

    #[test]
    fn samples_are_valid_and_diverse() {
        let cwae = trained();
        let mut rng = nnrng::seeded(2);
        let guesses = cwae.sample_passwords(200, &mut rng);
        assert_eq!(guesses.len(), 200);
        for g in &guesses {
            assert!(g.chars().count() <= 10);
        }
        let unique: std::collections::HashSet<&String> = guesses.iter().collect();
        assert!(unique.len() > 5, "only {} unique samples", unique.len());
    }

    #[test]
    fn guesser_trait_and_debug_work() {
        let cwae = trained();
        assert_eq!(cwae.name(), "CWAE");
        let a = cwae.generate_batch(10, &mut nnrng::seeded(3));
        let b = cwae.generate_batch(10, &mut nnrng::seeded(3));
        assert_eq!(a, b);
        assert!(format!("{cwae:?}").contains("Cwae"));
    }

    #[test]
    fn generation_bits_are_pinned() {
        let cwae = Cwae::train(
            &corpus(400),
            PasswordEncoder::default(),
            CwaeConfig::tiny().with_epochs(1),
        );
        let samples = cwae.sample_passwords(64, &mut nnrng::seeded(12));
        let passwords = ["monkey7", "jessica1", "123456", "p@ssw0rd"];
        let latents: Vec<f32> = passwords
            .iter()
            .flat_map(|p| cwae.latent_of(p).unwrap())
            .collect();
        let reconstructed: Vec<String> = passwords
            .iter()
            .map(|p| cwae.reconstruct(p).unwrap())
            .collect();
        assert_eq!(crate::digest::strings(&samples), 16_245_838_397_036_368_972);
        assert_eq!(crate::digest::floats(&latents), 12_246_313_164_469_154_213);
        assert_eq!(
            crate::digest::strings(&reconstructed),
            15_949_514_087_364_453_196
        );
    }

    #[test]
    #[should_panic(expected = "no training password could be encoded")]
    fn unencodable_corpus_rejected() {
        let _ = Cwae::train(
            &["definitely_way_too_long_for_the_encoder".to_string()],
            PasswordEncoder::default(),
            CwaeConfig::tiny(),
        );
    }
}
