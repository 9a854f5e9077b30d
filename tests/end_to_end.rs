//! End-to-end integration tests spanning the whole workspace: corpus
//! generation → preparation pipeline → flow training → guessing attacks →
//! evaluation, mirroring the paper's experimental protocol at smoke scale.

use std::collections::HashSet;
use std::sync::OnceLock;

use passflow::nn::rng as nnrng;
use passflow::{
    interpolate_passwords, train, Attack, CorpusConfig, DynamicParams, FlowConfig,
    GaussianSmoothing, GuessingStrategy, PassFlow, SyntheticCorpusGenerator, TrainConfig,
};

struct Fixture {
    flow: PassFlow,
    train_set: Vec<String>,
    targets: HashSet<String>,
}

/// Shared trained model: training dominates test time, so build it once and
/// hand each test a cheap clone.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus =
            SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(12_000)).generate(101);
        let split = corpus.paper_split(0.8, 4_000, 101);
        let mut rng = nnrng::seeded(102);
        let flow = PassFlow::new(FlowConfig::tiny().with_coupling_layers(6), &mut rng)
            .expect("valid config");
        train(
            &flow,
            &split.train,
            &TrainConfig::tiny().with_epochs(6).with_batch_size(256),
        )
        .expect("training succeeds");
        Fixture {
            flow,
            train_set: split.train.clone(),
            targets: split.test_set(),
        }
    })
}

#[test]
fn training_learns_the_password_distribution() {
    let fixture = fixture();
    let flow = &fixture.flow;
    // A trained flow must assign (much) higher likelihood to human-style
    // passwords than to uniform-random strings over the same alphabet.
    let human = ["123456", "jessica1", "michael", "soccer12"];
    let random = ["x9#qz!pw", "kd8fj2nq", "!!x%Q&*)"];
    let mean = |set: &[&str]| -> f32 {
        let vals: Vec<f32> = set
            .iter()
            .filter_map(|p| flow.log_prob_password(p))
            .collect();
        vals.iter().sum::<f32>() / vals.len() as f32
    };
    let human_lp = mean(&human);
    let random_lp = mean(&random);
    assert!(
        human_lp > random_lp + 1.0,
        "human {human_lp} vs random {random_lp}"
    );
}

#[test]
fn untrained_flow_is_much_worse_than_trained_flow() {
    let fixture = fixture();
    let mut rng = nnrng::seeded(200);
    let untrained = PassFlow::new(FlowConfig::tiny().with_coupling_layers(6), &mut rng).unwrap();

    // Exact densities let us compare models directly: the trained flow must
    // assign far higher likelihood (lower NLL) to held-out human passwords.
    let held_out: Vec<String> = fixture.targets.iter().take(500).cloned().collect();
    let x = fixture.flow.encode_batch(&held_out).unwrap();
    let trained_nll = fixture.flow.nll(&x);
    let untrained_nll = untrained.nll(&x);
    assert!(
        trained_nll + 5.0 < untrained_nll,
        "trained NLL {trained_nll} vs untrained NLL {untrained_nll}"
    );

    // And the trained model explores the password space far more effectively:
    // its guesses are much more diverse (the untrained flow collapses to a
    // tiny region of the data space).
    let budget = 4_000u64;
    let trained_outcome = Attack::new(&fixture.targets)
        .budget(budget)
        .seed(1)
        .run(&fixture.flow)
        .unwrap();
    let untrained_outcome = Attack::new(&fixture.targets)
        .budget(budget)
        .seed(1)
        .run(&untrained)
        .unwrap();
    assert!(
        trained_outcome.final_report().unique > 2 * untrained_outcome.final_report().unique,
        "trained unique {} vs untrained unique {}",
        trained_outcome.final_report().unique,
        untrained_outcome.final_report().unique
    );
    assert!(trained_outcome.final_report().matched >= untrained_outcome.final_report().matched);
}

#[test]
fn dynamic_sampling_beats_static_sampling_at_equal_budget() {
    let fixture = fixture();
    let budget = 6_000u64;
    let static_outcome = Attack::new(&fixture.targets)
        .budget(budget)
        .seed(3)
        .run(&fixture.flow)
        .unwrap();
    let dynamic_outcome = Attack::new(&fixture.targets)
        .budget(budget)
        .strategy(GuessingStrategy::Dynamic(DynamicParams::new(1, 0.12, 4)))
        .seed(3)
        .run(&fixture.flow)
        .unwrap();
    // The paper's central result (Table II): conditioning the prior on
    // matched passwords finds more matches than static sampling.
    assert!(
        dynamic_outcome.final_report().matched >= static_outcome.final_report().matched,
        "dynamic {} vs static {}",
        dynamic_outcome.final_report().matched,
        static_outcome.final_report().matched
    );
}

#[test]
fn gaussian_smoothing_recovers_unique_guesses_lost_to_dynamic_sampling() {
    let fixture = fixture();
    let budget = 5_000u64;
    let params = DynamicParams::new(0, 0.05, 1_000);
    let dynamic = Attack::new(&fixture.targets)
        .budget(budget)
        .strategy(GuessingStrategy::Dynamic(params))
        .seed(5)
        .run(&fixture.flow)
        .unwrap();
    let dynamic_gs = Attack::new(&fixture.targets)
        .budget(budget)
        .strategy(GuessingStrategy::DynamicWithSmoothing {
            params,
            smoothing: GaussianSmoothing::new(0.02, 6),
        })
        .seed(5)
        .run(&fixture.flow)
        .unwrap();
    // Table III's pattern: +GS generates at least as many unique guesses and
    // at least as many matches as plain dynamic sampling.
    assert!(dynamic_gs.final_report().unique >= dynamic.final_report().unique);
    assert!(dynamic_gs.final_report().matched >= dynamic.final_report().matched);
}

#[test]
fn interpolation_endpoints_round_trip_through_the_trained_model() {
    let fixture = fixture();
    let path = interpolate_passwords(&fixture.flow, "jimmy91", "123456", 8).unwrap();
    assert_eq!(path.first().unwrap(), "jimmy91");
    assert_eq!(path.last().unwrap(), "123456");
    assert!(path.iter().all(|p| p.chars().count() <= 10));
}

#[test]
fn generated_guesses_follow_the_corpus_character_statistics() {
    use passflow::passwords::stats::CorpusStats;
    let fixture = fixture();
    let mut rng = nnrng::seeded(77);
    let guesses = fixture.flow.sample_passwords(2_000, &mut rng);
    let guess_stats = CorpusStats::compute(guesses.iter().map(String::as_str));
    let train_stats = CorpusStats::compute(fixture.train_set.iter().map(String::as_str));
    let js = train_stats.char_js_divergence(&guess_stats);
    // Identical corpora give 0, disjoint alphabets give ln 2 ≈ 0.69; a
    // trained model should be much closer to the former.
    assert!(js < 0.35, "character JS divergence too high: {js}");
    // Generated guesses should be mostly non-empty and within length bounds.
    assert!(guesses.iter().filter(|g| g.is_empty()).count() < guesses.len() / 5);
}

#[test]
fn matched_passwords_are_consistent_with_checkpoints() {
    let fixture = fixture();
    let outcome = Attack::new(&fixture.targets)
        .budget(3_000)
        .checkpoints(vec![1_000, 2_000])
        .seed(9)
        .run(&fixture.flow)
        .unwrap();
    assert_eq!(outcome.checkpoints.len(), 3);
    assert_eq!(
        outcome.final_report().matched as usize,
        outcome.matched_passwords.len()
    );
    for pair in outcome.checkpoints.windows(2) {
        assert!(pair[0].guesses < pair[1].guesses);
        assert!(pair[0].matched <= pair[1].matched);
        assert!(pair[0].unique <= pair[1].unique);
    }
}

#[test]
fn seeded_attack_is_reproducible_end_to_end() {
    let fixture = fixture();
    let run = || {
        Attack::new(&fixture.targets)
            .budget(1_000)
            .seed(13)
            .run(&fixture.flow)
            .unwrap()
    };
    assert_eq!(run(), run());
}
