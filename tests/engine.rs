//! Cross-crate conformance tests for the unified attack engine: every
//! guesser in the workspace — the four baselines and `PassFlow` under all
//! three of the paper's strategies — runs through the same
//! [`Attack`](passflow::Attack) protocol, and the engine's invariants hold
//! for each of them.

use std::collections::HashSet;
use std::sync::OnceLock;

use passflow::baselines::{Cwae, CwaeConfig, MarkovModel, PassGan, PassGanConfig, PcfgModel};
use passflow::nn::rng as nnrng;
use passflow::{
    train, Attack, AttackOutcome, CorpusConfig, DynamicParams, FlowConfig, GaussianSmoothing,
    Guesser, GuessingStrategy, PassFlow, PasswordEncoder, SyntheticCorpusGenerator, TrainConfig,
};

struct Fixture {
    guessers: Vec<Box<dyn Guesser>>,
    targets: HashSet<String>,
}

/// One trained instance of every guesser in the workspace, sharing a corpus.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus =
            SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(8_000)).generate(404);
        let split = corpus.paper_split(0.8, 2_500, 404);
        let encoder = PasswordEncoder::default();

        let mut rng = nnrng::seeded(405);
        let flow = PassFlow::new(FlowConfig::tiny(), &mut rng).expect("valid config");
        train(
            &flow,
            &split.train,
            &TrainConfig::tiny().with_epochs(3).with_batch_size(256),
        )
        .expect("training succeeds");

        let guessers: Vec<Box<dyn Guesser>> = vec![
            Box::new(flow),
            Box::new(MarkovModel::train(&split.train, 3, 10)),
            Box::new(PcfgModel::train(&split.train, 10)),
            Box::new(PassGan::train(
                &split.train,
                encoder.clone(),
                PassGanConfig::tiny().with_iterations(20),
            )),
            Box::new(Cwae::train(
                &split.train,
                encoder,
                CwaeConfig::tiny().with_epochs(2),
            )),
        ];
        Fixture {
            guessers,
            targets: split.test_set(),
        }
    })
}

fn check_invariants(outcome: &AttackOutcome, targets: &HashSet<String>, budget: u64) {
    assert_eq!(outcome.final_report().guesses, budget);
    for pair in outcome.checkpoints.windows(2) {
        assert!(pair[0].guesses < pair[1].guesses);
        assert!(pair[1].unique >= pair[0].unique);
        assert!(pair[1].matched >= pair[0].matched);
    }
    for report in &outcome.checkpoints {
        assert!(report.unique >= 1);
        assert!(report.unique <= report.guesses);
        assert!(report.matched as usize <= targets.len());
        assert!((0.0..=100.0).contains(&report.matched_percent));
    }
    assert_eq!(
        outcome.final_report().matched as usize,
        outcome.matched_passwords.len()
    );
    for matched in &outcome.matched_passwords {
        assert!(targets.contains(matched));
    }
}

#[test]
fn every_guesser_runs_through_the_same_engine() {
    let fixture = fixture();
    let budget = 2_000u64;
    for guesser in &fixture.guessers {
        let outcome = Attack::new(&fixture.targets)
            .budget(budget)
            .batch_size(256)
            .checkpoints(vec![500, 1_000])
            .seed(1)
            .run(guesser.as_ref())
            .unwrap_or_else(|e| panic!("{} failed: {e}", guesser.name()));
        assert_eq!(outcome.checkpoints.len(), 3, "{}", guesser.name());
        check_invariants(&outcome, &fixture.targets, budget);
    }
}

#[test]
fn shard_count_is_irrelevant_for_every_guesser() {
    let fixture = fixture();
    for guesser in &fixture.guessers {
        let run = |shards: usize| {
            Attack::new(&fixture.targets)
                .budget(1_024)
                .batch_size(100)
                .checkpoints(vec![256, 512])
                .seed(2)
                .shards(shards)
                .run(guesser.as_ref())
                .unwrap()
        };
        assert_eq!(run(1), run(8), "{} diverged across shards", guesser.name());
    }
}

#[test]
fn flow_strategies_all_run_through_the_engine() {
    let fixture = fixture();
    let flow = &fixture.guessers[0];
    let params = DynamicParams::new(0, 0.1, 8);
    let strategies = [
        GuessingStrategy::Static,
        GuessingStrategy::Dynamic(params),
        GuessingStrategy::DynamicWithSmoothing {
            params,
            smoothing: GaussianSmoothing::default(),
        },
    ];
    for strategy in strategies {
        let label = strategy.label();
        let outcome = Attack::new(&fixture.targets)
            .budget(1_500)
            .batch_size(256)
            .strategy(strategy)
            .seed(3)
            .run(flow.as_ref())
            .unwrap_or_else(|e| panic!("{label} failed: {e}"));
        assert_eq!(outcome.strategy, label);
        check_invariants(&outcome, &fixture.targets, 1_500);
    }
}

#[test]
fn narrow_dynamic_waves_are_shard_invariant() {
    let flow = fixture().guessers[0].as_ref();
    // Targets drawn from the flow itself, so Dynamic sampling matches and
    // builds its mixture prior.
    let targets: HashSet<String> = flow
        .generate_batch(300, &mut nnrng::seeded(406))
        .into_iter()
        .filter(|p| !p.is_empty())
        .collect();
    let params = DynamicParams::new(0, 0.1, 8);
    let strategies = [
        GuessingStrategy::Dynamic(params),
        GuessingStrategy::DynamicWithSmoothing {
            params,
            smoothing: GaussianSmoothing::default(),
        },
    ];
    // `sync_every(1)` makes every wave one chunk, so only the row split of
    // each chunk's inverse puts the second shard to work: one 64-row block
    // per shard at batch 128, and four 128-row blocks taken in turn at 512.
    for (strategy, batch) in strategies.iter().flat_map(|s| [(s, 128), (s, 512)]) {
        let run = |shards: usize| {
            Attack::new(&targets)
                .budget(1_500)
                .batch_size(batch)
                .checkpoints(vec![512, 1_024])
                .strategy(strategy.clone())
                .seed(12)
                .shards(shards)
                .sync_every(1)
                .run(flow)
                .unwrap()
        };
        let serial = run(1);
        assert!(
            serial.final_report().matched > 0,
            "{} at batch {batch}: the mixture prior must activate",
            strategy.label()
        );
        assert_eq!(
            run(2),
            serial,
            "{} at batch {batch} diverged",
            strategy.label()
        );
    }
}

#[test]
fn latent_strategies_fail_cleanly_for_plain_guessers() {
    let fixture = fixture();
    // guessers[1] is the Markov model: no latent space.
    let err = Attack::new(&fixture.targets)
        .budget(100)
        .strategy(GuessingStrategy::Dynamic(DynamicParams::new(0, 0.1, 8)))
        .run(fixture.guessers[1].as_ref())
        .unwrap_err();
    assert!(err.to_string().contains("latent access"));
}

#[test]
fn observer_streams_the_same_reports_the_outcome_returns() {
    let fixture = fixture();
    for guesser in &fixture.guessers {
        let mut streamed = Vec::new();
        let outcome = Attack::new(&fixture.targets)
            .budget(1_000)
            .batch_size(128)
            .checkpoints(vec![250, 750])
            .observer(|report| streamed.push(report.clone()))
            .run(guesser.as_ref())
            .unwrap();
        assert_eq!(streamed, outcome.checkpoints, "{}", guesser.name());
    }
}
