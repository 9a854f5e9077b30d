//! Integration tests for the baseline guessers, exercised through the same
//! evaluation protocol as the paper's Tables II and III.

use std::sync::OnceLock;

use passflow::baselines::{Cwae, CwaeConfig, MarkovModel, PassGan, PassGanConfig, PcfgModel};
use passflow::nn::rng as nnrng;
use passflow::passwords::CorpusSplit;
use passflow::Attack;
use passflow::{CorpusConfig, PasswordEncoder, SyntheticCorpusGenerator};

fn split() -> &'static CorpusSplit {
    static SPLIT: OnceLock<CorpusSplit> = OnceLock::new();
    SPLIT.get_or_init(|| {
        SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(10_000))
            .generate(303)
            .paper_split(0.8, 3_000, 303)
    })
}

#[test]
fn markov_and_pcfg_beat_random_guessing() {
    let split = split();
    let targets = split.test_set();
    let budgets = [4_000u64];

    let markov = MarkovModel::train(&split.train, 3, 10);
    let pcfg = PcfgModel::train(&split.train, 10);
    let evaluate = |guesser: &dyn passflow::Guesser| {
        Attack::new(&targets)
            .budget(budgets[0])
            .batch_size(512)
            .seed(1)
            .run(guesser)
            .unwrap()
    };
    let markov_outcome = evaluate(&markov);
    let pcfg_outcome = evaluate(&pcfg);
    let markov_report = markov_outcome.final_report();
    let pcfg_report = pcfg_outcome.final_report();

    // A structure-aware guesser must land some matches on a corpus this
    // skewed; uniform-random strings essentially never would.
    assert!(markov_report.matched > 0, "Markov matched nothing");
    assert!(pcfg_report.matched > 0, "PCFG matched nothing");
    assert!(markov_report.unique <= markov_report.guesses);
    assert!(pcfg_report.unique <= pcfg_report.guesses);
}

#[test]
fn neural_baselines_train_and_produce_reportable_results() {
    let split = split();
    let targets = split.test_set();
    let budgets = [1_000u64, 3_000];
    let encoder = PasswordEncoder::default();

    let gan = PassGan::train(
        &split.train,
        encoder.clone(),
        PassGanConfig::tiny().with_iterations(40),
    );
    let cwae = Cwae::train(&split.train, encoder, CwaeConfig::tiny().with_epochs(3));

    let evaluate = |guesser: &dyn passflow::Guesser| {
        Attack::new(&targets)
            .budget(3_000)
            .batch_size(512)
            .checkpoints(budgets.to_vec())
            .seed(2)
            .run(guesser)
            .unwrap()
            .checkpoints
    };
    for reports in [evaluate(&gan), evaluate(&cwae)] {
        assert_eq!(reports.len(), 2);
        assert!(reports[1].unique >= reports[0].unique);
        assert!(reports[1].matched >= reports[0].matched);
        assert!(reports[1].unique <= 3_000);
    }
}

#[test]
fn pcfg_outperforms_markov_of_order_one_on_structured_corpora() {
    // Order-1 Markov loses all positional structure, while the PCFG keeps
    // whole terminals; on a word+digits corpus the PCFG should match at
    // least as many test passwords.
    let split = split();
    let targets = split.test_set();
    let budgets = [5_000u64];
    let markov1 = MarkovModel::train(&split.train, 1, 10);
    let pcfg = PcfgModel::train(&split.train, 10);
    let evaluate = |guesser: &dyn passflow::Guesser| {
        Attack::new(&targets)
            .budget(budgets[0])
            .batch_size(512)
            .seed(3)
            .run(guesser)
            .unwrap()
            .final_report()
            .matched
    };
    let markov_matched = evaluate(&markov1);
    let pcfg_matched = evaluate(&pcfg);
    assert!(
        pcfg_matched >= markov_matched,
        "PCFG {pcfg_matched} vs order-1 Markov {markov_matched}"
    );
}

#[test]
fn baseline_generation_is_reproducible_through_the_guesser_trait() {
    let split = split();
    let markov = MarkovModel::train(&split.train, 2, 10);
    use passflow::Guesser;
    let a = markov.generate_batch(100, &mut nnrng::seeded(4));
    let b = markov.generate_batch(100, &mut nnrng::seeded(4));
    assert_eq!(a, b);
    assert_eq!(a.len(), 100);
}
