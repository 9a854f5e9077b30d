//! A Wasserstein-GAN password generator (the PassGAN stand-in).
//!
//! PassGAN (Hitaj et al., reference [22]) and the improved GAN of Pasquini
//! et al. [33] train a generator network adversarially against a critic so
//! that generated samples become indistinguishable from real passwords.
//! This implementation keeps the same structure on the reproduction's
//! substrate: a residual-MLP generator maps Gaussian noise to the continuous
//! password feature space used throughout the repository, and a critic
//! scores feature vectors. Training follows the WGAN recipe (critic trained
//! to separate real from fake under a weight-clipping Lipschitz constraint,
//! generator trained to maximize the critic's score on fakes). Like Pasquini
//! et al., real samples are smoothed with small additive noise.
//!
//! GANs provide no density estimate and no invertible latent map — the
//! limitations the paper contrasts PassFlow against — so this type only
//! exposes sampling.

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use passflow_nn::rng as nnrng;
use passflow_nn::{
    Activation, ActivationKind, Adam, Linear, Module, Optimizer, Sequential, Tape, Tensor,
};
use passflow_passwords::PasswordEncoder;

use passflow_core::{EpochDriver, Guesser, LoopControl, Schedule, StepCtx, TrainLoop};

/// Hyper-parameters of the WGAN baseline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PassGanConfig {
    /// Dimensionality of the generator's noise input.
    pub noise_dim: usize,
    /// Hidden width of generator and critic.
    pub hidden_size: usize,
    /// Number of training iterations (generator updates).
    pub iterations: usize,
    /// Critic updates per generator update (5 in the WGAN paper).
    pub critic_steps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate for both networks.
    pub learning_rate: f32,
    /// Weight-clipping bound enforcing the critic's Lipschitz constraint.
    pub clip_value: f32,
    /// RNG seed for initialization, noise and batching.
    pub seed: u64,
}

impl PassGanConfig {
    /// A reduced configuration for CPU-scale harness runs.
    pub fn evaluation() -> Self {
        PassGanConfig {
            noise_dim: 32,
            hidden_size: 64,
            iterations: 300,
            critic_steps: 3,
            batch_size: 128,
            learning_rate: 1e-3,
            clip_value: 0.05,
            seed: 0,
        }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny() -> Self {
        PassGanConfig {
            noise_dim: 16,
            hidden_size: 32,
            iterations: 60,
            critic_steps: 2,
            batch_size: 64,
            learning_rate: 2e-3,
            clip_value: 0.05,
            seed: 0,
        }
    }

    /// Sets the number of generator iterations (builder style).
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for PassGanConfig {
    fn default() -> Self {
        Self::evaluation()
    }
}

/// A trained WGAN password generator.
pub struct PassGan {
    config: PassGanConfig,
    encoder: PasswordEncoder,
    generator: Sequential,
    /// Mean Wasserstein estimate per logging window, recorded during
    /// training (useful for tests and diagnostics).
    critic_history: Vec<f32>,
}

impl std::fmt::Debug for PassGan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PassGan(noise_dim={}, hidden={}, trained_iterations={})",
            self.config.noise_dim, self.config.hidden_size, self.config.iterations
        )
    }
}

fn build_generator<R: Rng + ?Sized>(
    noise_dim: usize,
    hidden: usize,
    out_dim: usize,
    rng: &mut R,
) -> Sequential {
    Sequential::new()
        .push(Linear::new_relu(noise_dim, hidden, rng))
        .push(Activation::new(ActivationKind::Relu))
        .push(Linear::new_relu(hidden, hidden, rng))
        .push(Activation::new(ActivationKind::Relu))
        .push(Linear::new(hidden, out_dim, rng))
        // Passwords are encoded into [0, 1); a sigmoid keeps generator
        // outputs in the representable range.
        .push(Activation::new(ActivationKind::Sigmoid))
}

fn build_critic<R: Rng + ?Sized>(in_dim: usize, hidden: usize, rng: &mut R) -> Sequential {
    Sequential::new()
        .push(Linear::new_relu(in_dim, hidden, rng))
        .push(Activation::new(ActivationKind::Relu))
        .push(Linear::new_relu(hidden, hidden, rng))
        .push(Activation::new(ActivationKind::Relu))
        .push(Linear::new(hidden, 1, rng))
}

/// The WGAN's [`EpochDriver`]: one "epoch" of the shared [`TrainLoop`] is
/// one generator iteration (`critic_steps` critic updates followed by a
/// generator update), mirroring the WGAN recipe's outer loop.
struct GanDriver<'a> {
    config: &'a PassGanConfig,
    data: &'a Tensor,
    generator: &'a Sequential,
    critic: &'a Sequential,
    gen_opt: Adam,
    critic_opt: Adam,
    rng: rand::rngs::StdRng,
    real_noise: f32,
    window_sum: f32,
    window_count: usize,
    critic_history: Vec<f32>,
}

impl EpochDriver for GanDriver<'_> {
    type Error = std::convert::Infallible;

    fn on_batch(&mut self, ctx: &StepCtx) -> Result<f32, Self::Error> {
        let config = self.config;
        self.critic_opt.set_learning_rate(ctx.lr);
        self.gen_opt.set_learning_rate(ctx.lr);

        // ---- critic updates ---------------------------------------------
        let mut iteration_wasserstein = 0.0f32;
        for _ in 0..config.critic_steps {
            let real = sample_rows(self.data, config.batch_size, &mut self.rng);
            let real = real.add(&Tensor::rand_uniform(
                real.rows(),
                real.cols(),
                -self.real_noise,
                self.real_noise,
                &mut self.rng,
            ));
            let noise = Tensor::randn(config.batch_size, config.noise_dim, &mut self.rng);

            let tape = Tape::new();
            let fake = self.generator.forward(&tape, &tape.constant(noise)).value();

            // Critic loss: E[D(fake)] − E[D(real)]  (minimized).
            let tape = Tape::new();
            let d_real = self.critic.forward(&tape, &tape.constant(real)).mean();
            let d_fake = self.critic.forward(&tape, &tape.constant(fake)).mean();
            let critic_loss = d_fake.sub(&d_real);
            let wasserstein = -critic_loss.value().get(0, 0);
            self.window_sum += wasserstein;
            self.window_count += 1;
            iteration_wasserstein += wasserstein;
            critic_loss.backward();
            self.critic_opt.step(&self.critic.parameters());

            // Weight clipping (the WGAN Lipschitz constraint).
            for p in self.critic.parameters() {
                p.set_value(p.value().clamp(-config.clip_value, config.clip_value));
            }
        }

        // ---- generator update -------------------------------------------
        let noise = Tensor::randn(config.batch_size, config.noise_dim, &mut self.rng);
        let tape = Tape::new();
        let fake = self.generator.forward(&tape, &tape.constant(noise));
        // Generator loss: −E[D(fake)]  (minimized).
        let gen_loss = self.critic.forward(&tape, &fake).mean().neg();
        gen_loss.backward();
        // Only update the generator's parameters; clear the critic's
        // gradients accumulated through this pass.
        self.gen_opt.step(&self.generator.parameters());
        for p in self.critic.parameters() {
            p.zero_grad();
        }

        Ok(iteration_wasserstein / config.critic_steps.max(1) as f32)
    }

    fn on_epoch_end(&mut self, epoch: usize, _mean_loss: f32) -> Result<LoopControl, Self::Error> {
        if (epoch + 1).is_multiple_of(20) && self.window_count > 0 {
            self.critic_history
                .push(self.window_sum / self.window_count as f32);
            self.window_sum = 0.0;
            self.window_count = 0;
        }
        Ok(LoopControl::Continue)
    }
}

impl PassGan {
    /// Trains a WGAN on a password corpus.
    ///
    /// # Panics
    ///
    /// Panics if no training password can be encoded.
    pub fn train(passwords: &[String], encoder: PasswordEncoder, config: PassGanConfig) -> Self {
        let (features, _) = encoder.encode_batch(passwords);
        assert!(
            !features.is_empty(),
            "no training password could be encoded"
        );
        let data = Tensor::from_rows(&features);
        let dim = encoder.max_len();
        let mut rng = nnrng::seeded(config.seed);

        let generator = build_generator(config.noise_dim, config.hidden_size, dim, &mut rng);
        let critic = build_critic(dim, config.hidden_size, &mut rng);

        let mut driver = GanDriver {
            config: &config,
            data: &data,
            generator: &generator,
            critic: &critic,
            gen_opt: Adam::with_betas(config.learning_rate, 0.5, 0.9),
            critic_opt: Adam::with_betas(config.learning_rate, 0.5, 0.9),
            rng,
            // Stochastic smoothing of the real samples, as in Pasquini et al.
            real_noise: encoder.quantization_step() * 0.5,
            window_sum: 0.0,
            window_count: 0,
            critic_history: Vec::new(),
        };
        TrainLoop::new(
            config.iterations,
            1,
            config.learning_rate,
            Schedule::Constant,
        )
        .run(0, &mut driver)
        .expect("GAN training is infallible");
        let critic_history = driver.critic_history;

        PassGan {
            config,
            encoder,
            generator,
            critic_history,
        }
    }

    /// The training configuration.
    pub fn config(&self) -> &PassGanConfig {
        &self.config
    }

    /// Wasserstein-estimate trajectory recorded during training.
    pub fn critic_history(&self) -> &[f32] {
        &self.critic_history
    }

    /// Generates `n` passwords by sampling generator noise and decoding the
    /// output feature vectors.
    pub fn sample_passwords<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<String> {
        let noise = Tensor::randn(n, self.config.noise_dim, rng);
        let features = self.generator.export_snapshot().forward(&noise);
        (0..features.rows())
            .map(|i| self.encoder.decode(features.row_slice(i)))
            .collect()
    }
}

impl Guesser for PassGan {
    fn name(&self) -> &str {
        "PassGAN (WGAN)"
    }

    fn generate_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
        self.sample_passwords(n, rng)
    }
}

/// Samples `n` rows from `data` uniformly with replacement.
fn sample_rows<R: Rng + ?Sized>(data: &Tensor, n: usize, rng: &mut R) -> Tensor {
    let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..data.rows())).collect();
    data.select_rows(&indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use passflow_passwords::{CorpusConfig, SyntheticCorpusGenerator};

    fn corpus(n: usize) -> Vec<String> {
        SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(n))
            .generate(61)
            .into_passwords()
    }

    fn trained() -> PassGan {
        PassGan::train(
            &corpus(1_500),
            PasswordEncoder::default(),
            PassGanConfig::tiny(),
        )
    }

    #[test]
    fn training_completes_and_records_history() {
        let gan = trained();
        assert!(!gan.critic_history().is_empty());
        assert!(gan.critic_history().iter().all(|v| v.is_finite()));
        assert_eq!(gan.config().noise_dim, 16);
        assert!(format!("{gan:?}").contains("PassGan"));
    }

    #[test]
    fn samples_are_valid_passwords() {
        let gan = trained();
        let mut rng = nnrng::seeded(1);
        let guesses = gan.sample_passwords(100, &mut rng);
        assert_eq!(guesses.len(), 100);
        for g in &guesses {
            assert!(g.chars().count() <= 10);
        }
        // The generator should produce some diversity, not a single mode.
        let unique: std::collections::HashSet<&String> = guesses.iter().collect();
        assert!(unique.len() > 5, "only {} unique samples", unique.len());
    }

    #[test]
    fn generated_characters_come_from_the_human_distribution() {
        // After even a short training run, samples should be dominated by
        // lowercase letters and digits like the corpus, not by rare symbols.
        let gan = trained();
        let mut rng = nnrng::seeded(2);
        let guesses = gan.sample_passwords(300, &mut rng);
        let total_chars: usize = guesses.iter().map(|g| g.chars().count()).sum();
        let alnum_chars: usize = guesses
            .iter()
            .flat_map(|g| g.chars())
            .filter(|c| c.is_ascii_alphanumeric())
            .count();
        assert!(total_chars > 0);
        let frac = alnum_chars as f64 / total_chars as f64;
        assert!(frac > 0.7, "alphanumeric fraction was {frac}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_trait_works() {
        let gan = trained();
        let a = gan.generate_batch(20, &mut nnrng::seeded(3));
        let b = gan.generate_batch(20, &mut nnrng::seeded(3));
        assert_eq!(a, b);
        assert_eq!(gan.name(), "PassGAN (WGAN)");
    }

    #[test]
    fn generation_bits_are_pinned() {
        let gan = PassGan::train(
            &corpus(400),
            PasswordEncoder::default(),
            PassGanConfig::tiny().with_iterations(5).with_seed(3),
        );
        let samples = gan.sample_passwords(64, &mut nnrng::seeded(11));
        assert_eq!(crate::digest::strings(&samples), 17_053_994_180_017_700_383);
    }

    #[test]
    #[should_panic(expected = "no training password could be encoded")]
    fn unencodable_corpus_rejected() {
        let _ = PassGan::train(
            &["definitely_way_too_long_for_the_encoder".to_string()],
            PasswordEncoder::default(),
            PassGanConfig::tiny(),
        );
    }
}
