//! Experiment scale presets and the shared evaluation workbench.
//!
//! The paper's evaluation trains on up to 23.5M passwords and generates up
//! to 10⁸ guesses on GPU hardware; this reproduction runs on CPU, so every
//! experiment driver is parameterized by an [`EvalScale`]. The default scale
//! preserves the *relative* comparisons (which method wins, how the curves
//! bend) at a fraction of the cost; [`EvalScale::paper`] carries the paper's
//! original numbers for offline runs.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use passflow_baselines::{CwaeConfig, PassGanConfig};
use passflow_core::{FlowConfig, PassFlow, Result, TrainConfig, TrainingReport};
use passflow_nn::rng as nnrng;
use passflow_passwords::{CorpusConfig, CorpusSplit, SyntheticCorpusGenerator};

/// Scale parameters shared by all experiment drivers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvalScale {
    /// Size of the synthetic corpus (instances, with duplicates).
    pub corpus_size: usize,
    /// Training subsample size (the paper's 300K).
    pub train_subsample: usize,
    /// Guess budgets evaluated in the tables (the paper's 10⁴…10⁸).
    pub budgets: Vec<u64>,
    /// Flow architecture.
    pub flow_config: FlowConfig,
    /// Flow training setup.
    pub train_config: TrainConfig,
    /// WGAN baseline setup.
    pub gan_config: PassGanConfig,
    /// CWAE baseline setup.
    pub cwae_config: CwaeConfig,
    /// Latent batch size used by the guessing attack.
    pub attack_batch: usize,
    /// Worker shards the attack engine generates guesses on. Results are
    /// shard-count-invariant; this only sets the parallelism.
    pub attack_shards: usize,
    /// Master seed; derived seeds are used for corpus generation, training
    /// and attacks.
    pub seed: u64,
}

impl EvalScale {
    /// A smoke-test scale that runs in seconds (used by unit and integration
    /// tests).
    pub fn smoke() -> Self {
        EvalScale {
            corpus_size: 5_000,
            train_subsample: 1_500,
            budgets: vec![1_000, 3_000],
            flow_config: FlowConfig::tiny(),
            train_config: TrainConfig::tiny().with_epochs(4),
            gan_config: PassGanConfig::tiny().with_iterations(40),
            cwae_config: CwaeConfig::tiny().with_epochs(3),
            attack_batch: 512,
            attack_shards: 2,
            seed: 7,
        }
    }

    /// The default CPU-scale evaluation: small enough to run all tables on a
    /// laptop in under an hour, large enough that the relative ordering of
    /// the methods (the shape of Tables II/III and Figure 5) is stable.
    ///
    /// The corpus size matches the paper's 300K-sample training-set setting;
    /// the test set is ~14K unique passwords and guess budgets reach
    /// 3 × 10⁵.
    pub fn default_scale() -> Self {
        EvalScale {
            corpus_size: 300_000,
            train_subsample: 20_000,
            budgets: vec![10_000, 100_000, 300_000],
            flow_config: FlowConfig::evaluation()
                .with_coupling_layers(8)
                .with_hidden_size(64),
            train_config: TrainConfig::evaluation().with_epochs(40),
            gan_config: PassGanConfig::evaluation(),
            cwae_config: CwaeConfig::evaluation(),
            attack_batch: 4_096,
            attack_shards: 8,
            seed: 7,
        }
    }

    /// The paper's original scale (RockYou-sized corpus, 300K training
    /// samples, budgets up to 10⁸, the 18-layer architecture). Only suitable
    /// for long offline runs.
    pub fn paper() -> Self {
        EvalScale {
            corpus_size: CorpusConfig::paper_scale().size,
            train_subsample: 300_000,
            budgets: vec![10_000, 100_000, 1_000_000, 10_000_000, 100_000_000],
            flow_config: FlowConfig::paper(),
            train_config: TrainConfig::paper(),
            gan_config: PassGanConfig {
                iterations: 20_000,
                ..PassGanConfig::evaluation()
            },
            cwae_config: CwaeConfig {
                epochs: 200,
                latent_dim: 128,
                ..CwaeConfig::evaluation()
            },
            attack_batch: 8_192,
            attack_shards: 8,
            seed: 7,
        }
    }

    /// The names [`EvalScale::from_name`] accepts, cheapest first.
    pub const NAMES: [&'static str; 3] = ["smoke", "default", "paper"];

    /// Looks a scale up by name: `smoke`, `default` or `paper`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "default" => Some(Self::default_scale()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }

    /// Sets the master seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the guess budgets (builder style).
    #[must_use]
    pub fn with_budgets(mut self, budgets: Vec<u64>) -> Self {
        self.budgets = budgets;
        self
    }

    /// Largest configured guess budget.
    pub fn max_budget(&self) -> u64 {
        self.budgets.iter().copied().max().unwrap_or(0)
    }

    /// The corpus configuration implied by this scale.
    pub fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig::evaluation().with_size(self.corpus_size)
    }
}

impl Default for EvalScale {
    fn default() -> Self {
        Self::default_scale()
    }
}

/// Shared prepared state: the corpus split and a trained PassFlow model.
///
/// Most tables and figures reuse the same trained flow; preparing the
/// workbench once and passing it to each driver avoids retraining.
pub struct Workbench {
    /// The scale the workbench was prepared at.
    pub scale: EvalScale,
    /// Train/test split of the synthetic corpus.
    pub split: CorpusSplit,
    /// The trained flow.
    pub flow: PassFlow,
    /// Training report of the flow.
    pub training: TrainingReport,
}

impl Workbench {
    /// Generates the corpus, prepares the split, and trains the flow.
    ///
    /// # Errors
    ///
    /// Propagates any configuration or training error from the core crate.
    pub fn prepare(scale: EvalScale) -> Result<Workbench> {
        let corpus = SyntheticCorpusGenerator::new(scale.corpus_config()).generate(scale.seed);
        let split = corpus.paper_split(0.8, scale.train_subsample, scale.seed);
        let mut rng = nnrng::derived(scale.seed, 1);
        let flow = PassFlow::new(scale.flow_config.clone(), &mut rng)?;
        let training = passflow_core::train(&flow, &split.train, &scale.train_config)?;
        Ok(Workbench {
            scale,
            split,
            flow,
            training,
        })
    }

    /// The cleaned, unique test set as a hash set (the attack target Ω).
    pub fn test_set(&self) -> HashSet<String> {
        self.split.test_set()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_by_cost() {
        let smoke = EvalScale::smoke();
        let default = EvalScale::default_scale();
        let paper = EvalScale::paper();
        assert!(smoke.corpus_size < default.corpus_size);
        assert!(default.corpus_size < paper.corpus_size);
        assert!(smoke.max_budget() < default.max_budget());
        assert!(default.max_budget() < paper.max_budget());
        assert_eq!(paper.train_subsample, 300_000);
        assert_eq!(paper.flow_config, FlowConfig::paper());
        assert_eq!(EvalScale::default(), EvalScale::default_scale());
    }

    #[test]
    fn builders_adjust_scale() {
        let scale = EvalScale::smoke().with_seed(11).with_budgets(vec![500]);
        assert_eq!(scale.seed, 11);
        assert_eq!(scale.max_budget(), 500);
        assert_eq!(scale.corpus_config().size, scale.corpus_size);
    }

    #[test]
    fn workbench_prepares_a_usable_flow() {
        let workbench = Workbench::prepare(EvalScale::smoke()).unwrap();
        assert!(!workbench.split.train.is_empty());
        assert!(!workbench.test_set().is_empty());
        assert!(workbench.training.final_nll().unwrap().is_finite());
        // The trained flow can generate guesses.
        let mut rng = nnrng::seeded(1);
        let guesses = workbench.flow.sample_passwords(10, &mut rng);
        assert_eq!(guesses.len(), 10);
    }
}
