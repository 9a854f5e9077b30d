//! A full guessing attack comparing the paper's three strategies —
//! static sampling, Dynamic Sampling with penalization, and Dynamic
//! Sampling + data-space Gaussian smoothing — against the same test set
//! (the Table II / Table III experiment in miniature).
//!
//! ```text
//! cargo run --release --example dynamic_attack
//! ```

use passflow::{
    train, Attack, CorpusConfig, DynamicParams, FlowConfig, GaussianSmoothing, GuessingStrategy,
    PassFlow, SyntheticCorpusGenerator, TrainConfig,
};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(40_000)).generate(5);
    let split = corpus.paper_split(0.8, 8_000, 5);
    let targets = split.test_set();
    println!(
        "training on {} passwords, attacking {} unique test passwords\n",
        split.train.len(),
        targets.len()
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let flow = PassFlow::new(
        FlowConfig::evaluation()
            .with_coupling_layers(6)
            .with_hidden_size(32),
        &mut rng,
    )?;
    train(
        &flow,
        &split.train,
        &TrainConfig::evaluation().with_epochs(8),
    )?;

    let budget = 50_000u64;
    let params = DynamicParams::paper_defaults(budget);
    let strategies = vec![
        GuessingStrategy::Static,
        GuessingStrategy::Dynamic(params),
        GuessingStrategy::DynamicWithSmoothing {
            params,
            smoothing: GaussianSmoothing::default(),
        },
    ];

    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "strategy", "guesses", "unique", "matched", "% matched"
    );
    for strategy in strategies {
        // One engine drives all three strategies; static generation fans out
        // chunks across shards, dynamic generation splits each batch's flow
        // inverse across them (sync_every batches share one prior snapshot).
        let outcome = Attack::new(&targets)
            .budget(budget)
            .batch_size(2_048)
            .strategy(strategy)
            .seed(9)
            .shards(4)
            .sync_every(2)
            .nonmatched_samples(0)
            .run(&flow)?;
        let report = outcome.final_report();
        assert_eq!(
            report.guesses, budget,
            "{}: full budget spent",
            outcome.strategy
        );
        assert!(report.unique > 0, "{}: no unique guesses", outcome.strategy);
        assert_eq!(
            report.matched as usize,
            outcome.matched_passwords.len(),
            "{}: matched count and password list must agree",
            outcome.strategy
        );
        assert!(
            report.matched <= targets.len() as u64,
            "{}: matched more than the test set holds",
            outcome.strategy
        );
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>9.2}%",
            outcome.strategy, report.guesses, report.unique, report.matched, report.matched_percent
        );
    }

    println!(
        "\nexpected ordering (as in the paper): Dynamic+GS >= Dynamic >= Static, with\n\
         dynamic sampling trading unique guesses for matches and Gaussian smoothing\n\
         recovering the lost uniqueness."
    );
    Ok(())
}
