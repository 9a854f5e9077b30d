//! Bit pins for every Gaussian draw the samplers make.
//!
//! The moment tests elsewhere check that the samplers are *accurate*; they
//! would pass unchanged if a refactor moved the RNG stream or rounded one
//! expression differently. These pins hash the exact bits — of the raw
//! normal stream, the mixture prior (with expired components), the
//! data-space smoothing perturbation, the latent-neighbourhood samplers and
//! a whole Dynamic+GS campaign with its `PFATTACK`/`PFGUESS` files — so any
//! change to what a seed produces fails here first.

use std::collections::HashSet;
use std::path::PathBuf;

use passflow::core::{
    conditional_guess, ConditionalConfig, GaussianMixturePrior, PasswordTemplate, Prior,
};
use passflow::nn::{rng as nnrng, Tensor};
use passflow::store::format::{fnv1a, FNV_SEED};
use passflow::{
    Attack, AttackOutcome, DynamicParams, FlowConfig, GaussianSmoothing, GuessingStrategy, PassFlow,
};

fn floats_digest(hash: u64, values: &[f32]) -> u64 {
    let hash = fnv1a(hash, &(values.len() as u64).to_le_bytes());
    values
        .iter()
        .fold(hash, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

fn tensor_digest(t: &Tensor) -> u64 {
    let hash = fnv1a(FNV_SEED, &(t.rows() as u64).to_le_bytes());
    floats_digest(fnv1a(hash, &(t.cols() as u64).to_le_bytes()), t.as_slice())
}

fn strings_digest(hash: u64, strings: &[String]) -> u64 {
    let hash = fnv1a(hash, &(strings.len() as u64).to_le_bytes());
    strings.iter().fold(hash, |h, s| {
        fnv1a(fnv1a(h, &(s.len() as u64).to_le_bytes()), s.as_bytes())
    })
}

fn outcome_digest(outcome: &AttackOutcome) -> u64 {
    let mut hash = fnv1a(FNV_SEED, outcome.strategy.as_bytes());
    for report in &outcome.checkpoints {
        for field in [
            report.guesses,
            report.unique,
            report.matched,
            report.matched_percent.to_bits(),
        ] {
            hash = fnv1a(hash, &field.to_le_bytes());
        }
    }
    hash = strings_digest(hash, &outcome.matched_passwords);
    strings_digest(hash, &outcome.nonmatched_samples)
}

#[test]
fn normal_stream_bits_are_pinned() {
    let mut rng = nnrng::seeded(7);
    let draws: Vec<f32> = (0..4_096)
        .map(|_| nnrng::standard_normal(&mut rng))
        .collect();
    let stream = floats_digest(FNV_SEED, &draws);
    let randn = tensor_digest(&Tensor::randn(64, 10, &mut nnrng::seeded(7)));
    assert_eq!(
        (stream, randn),
        (0xf9d6_6da2_461d_b414, 0x1cd4_8b2a_c3a2_c00f),
        "pinned normal-stream bits moved: ({stream:#018x}, {randn:#018x})"
    );
}

/// Ten-dimensional centres at distinct, exactly representable points.
fn centers(k: usize) -> Vec<Vec<f32>> {
    (0..k)
        .map(|c| (0..10).map(|j| c as f32 - 0.25 * j as f32).collect())
        .collect()
}

#[test]
fn mixture_prior_bits_are_pinned() {
    // Expired components (weight 0) are interleaved with live ones, as the
    // step penalization leaves them; the second case ends on an expired
    // component, whose index a fall-through pick would return.
    let cases: [Vec<f32>; 3] = [
        vec![0.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.25],
        vec![1.0, 0.0, 3.0, 0.0, 0.0],
        vec![0.0, 0.0, 0.0, 7.0, 0.0, 0.0],
    ];
    let mut digests = Vec::new();
    let mut reused = Tensor::default();
    for (seed, weights) in cases.into_iter().enumerate() {
        let prior = GaussianMixturePrior::new(centers(weights.len()), 0.1, weights);
        let fresh = prior.sample(1_024, &mut nnrng::seeded(seed as u64 + 1));
        prior.sample_into(1_024, &mut nnrng::seeded(seed as u64 + 1), &mut reused);
        assert_eq!(reused, fresh, "sample_into diverged from sample");
        digests.push(tensor_digest(&fresh));
    }
    assert_eq!(
        digests,
        [
            0x6afa_39d2_870d_c5fe,
            0x8dbf_ed7f_fb12_3fad,
            0x3e4e_83e0_3375_5d6a
        ],
        "pinned mixture bits moved: {digests:#018x?}"
    );
}

#[test]
fn smoothing_perturbation_bits_are_pinned() {
    let smoothing = GaussianSmoothing::default();
    let mut rng = nnrng::seeded(3);
    let mut rows: Vec<f32> = (0..10_000).map(|i| (i % 97) as f32 / 97.0).collect();
    for row in rows.chunks_mut(10) {
        smoothing.perturb_in_place(row, &mut rng);
    }
    // One long row crosses every internal batch boundary.
    let mut long: Vec<f32> = vec![0.5; 1_000];
    GaussianSmoothing::new(0.05, 3).perturb_in_place(&mut long, &mut rng);
    let (rows, long) = (
        floats_digest(FNV_SEED, &rows),
        floats_digest(FNV_SEED, &long),
    );
    assert_eq!(
        (rows, long),
        (0x85f6_7b73_2117_ded1, 0xfae8_0069_6f2b_5d02),
        "pinned smoothing bits moved: ({rows:#018x}, {long:#018x})"
    );
}

/// An untrained tiny flow plus targets drawn from its own samples, so the
/// Dynamic+GS strategy matches and builds its mixture prior.
fn flow_fixture() -> (PassFlow, HashSet<String>) {
    let mut rng = nnrng::seeded(42);
    let flow = PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap();
    let targets: HashSet<String> = flow
        .sample_passwords(300, &mut rng)
        .into_iter()
        .filter(|p| !p.is_empty())
        .collect();
    (flow, targets)
}

#[test]
fn latent_neighbourhood_bits_are_pinned() {
    let (flow, _) = flow_fixture();
    let near = flow
        .sample_near("pass12", 0.01, 256, &mut nnrng::seeded(5))
        .unwrap();
    let template = PasswordTemplate::parse("pa**1*").unwrap();
    let config = ConditionalConfig {
        num_seeds: 4,
        samples_per_round: 128,
        rounds: 2,
        sigma: 0.002,
    };
    let guesses = conditional_guess(&flow, &template, &config, 64, &mut nnrng::seeded(6)).unwrap();
    assert!(!guesses.is_empty(), "the pivots must yield candidates");
    let mut conditional = FNV_SEED;
    for guess in &guesses {
        conditional = fnv1a(conditional, guess.password.as_bytes());
        conditional = fnv1a(conditional, &guess.log_prob.to_bits().to_le_bytes());
    }
    let near = strings_digest(FNV_SEED, &near);
    assert_eq!(
        (near, conditional),
        (0xff0d_0a0b_1c6f_d0a3, 0x0924_42a5_f3b6_6f40),
        "pinned latent-neighbourhood bits moved: ({near:#018x}, {conditional:#018x})"
    );
}

#[test]
fn dynamic_gs_campaign_bits_are_pinned() {
    let (flow, targets) = flow_fixture();
    let dir = std::env::temp_dir().join(format!("pf-sampling-bits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut digests = Vec::new();
    for sync_every in [1usize, 4] {
        let (checkpoint, archive): (PathBuf, PathBuf) = (
            dir.join(format!("sync{sync_every}.pfa")),
            dir.join(format!("sync{sync_every}.pfg")),
        );
        let outcome = Attack::new(&targets)
            .budget(4_096)
            .batch_size(128)
            .checkpoints(vec![512, 2_048])
            .strategy(GuessingStrategy::DynamicWithSmoothing {
                params: DynamicParams::new(0, 0.1, 8),
                smoothing: GaussianSmoothing::default(),
            })
            .seed(11)
            .shards(2)
            .sync_every(sync_every)
            .checkpoint_to(&checkpoint)
            .archive_to(&archive)
            .run(&flow)
            .unwrap();
        assert!(
            outcome.final_report().matched > 0,
            "the mixture prior must activate"
        );
        digests.push(outcome_digest(&outcome));
        digests.push(fnv1a(FNV_SEED, &std::fs::read(&checkpoint).unwrap()));
        digests.push(fnv1a(FNV_SEED, &std::fs::read(&archive).unwrap()));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        digests,
        [
            0x36d2_d0c3_217f_2595,
            0x5404_bbf5_cd88_4641,
            0x06c5_eea6_c60d_820b,
            0x4761_956e_4849_374c,
            0x0b4d_3e37_ac2f_c480,
            0x0cdc_9273_3ad9_54c9,
        ],
        "pinned Dynamic+GS campaign bits moved: {digests:#018x?}"
    );
}
