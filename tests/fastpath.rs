//! Conformance suite for the inference fast path: the snapshot + workspace
//! pipeline must match the reference per-layer implementations to 0 ULP,
//! and reusing scratch state must never change any observable result.

use std::collections::HashSet;
use std::sync::Arc;

use passflow::nn::rng as nnrng;
use passflow::nn::{Module, NetWorkspace, ResNet, Tape, Tensor, ThreadPool};
use passflow::{
    train, Attack, AttackOutcome, CorpusConfig, DynamicParams, FlowConfig, FlowScorer,
    FlowWorkspace, GaussianSmoothing, Guesser, GuessingStrategy, PassFlow, QuantizedScorer,
    SyntheticCorpusGenerator, TrainConfig,
};

fn random_flow(config: FlowConfig, seed: u64) -> PassFlow {
    let mut rng = nnrng::seeded(seed);
    PassFlow::new(config, &mut rng).expect("valid config")
}

fn configs() -> Vec<FlowConfig> {
    vec![
        FlowConfig::tiny(),
        FlowConfig::tiny()
            .with_coupling_layers(2)
            .with_hidden_size(48),
        FlowConfig::tiny()
            .with_coupling_layers(6)
            .with_hidden_size(24),
        FlowConfig::evaluation(),
    ]
}

#[test]
fn fast_inverse_matches_reference_to_zero_ulp() {
    for (i, config) in configs().into_iter().enumerate() {
        let flow = random_flow(config, 100 + i as u64);
        let mut rng = nnrng::seeded(200 + i as u64);
        for rows in [1, 7, 64] {
            let z = Tensor::randn(rows, flow.dim(), &mut rng);
            let reference = flow.inverse_reference(&z);
            let fast = flow.inverse(&z);
            assert_eq!(
                fast.as_slice(),
                reference.as_slice(),
                "config {i} rows {rows}"
            );
        }
    }
}

#[test]
fn fast_forward_matches_reference_to_zero_ulp() {
    for (i, config) in configs().into_iter().enumerate() {
        let flow = random_flow(config, 300 + i as u64);
        let mut rng = nnrng::seeded(400 + i as u64);
        for rows in [1, 5, 33] {
            let x = Tensor::randn(rows, flow.dim(), &mut rng);
            let (z_ref, ld_ref) = flow.forward_reference(&x);
            let (z_fast, ld_fast) = flow.forward(&x);
            assert_eq!(
                z_fast.as_slice(),
                z_ref.as_slice(),
                "config {i} rows {rows}"
            );
            assert_eq!(
                ld_fast.as_slice(),
                ld_ref.as_slice(),
                "config {i} rows {rows}"
            );
        }
    }
}

/// The paper's own architecture (`FlowConfig::paper()`: 18 coupling layers,
/// hidden width 256, so four 64-wide tiles per row block) through the same
/// 0-ULP inverse, forward and log-prob checks, on a few hundred rows.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the paper config is slow unoptimised: run with cargo test --release --test fastpath"
)]
fn paper_config_fast_paths_match_reference_to_zero_ulp() {
    let flow = random_flow(FlowConfig::paper(), 700);
    let mut rng = nnrng::seeded(701);
    let rows = 300;
    let z = Tensor::randn(rows, flow.dim(), &mut rng);
    assert_eq!(
        flow.inverse(&z).as_slice(),
        flow.inverse_reference(&z).as_slice(),
        "inverse"
    );
    let x = Tensor::randn(rows, flow.dim(), &mut rng);
    let (z_ref, ld_ref) = flow.forward_reference(&x);
    let (z_fast, ld_fast) = flow.forward(&x);
    assert_eq!(z_fast.as_slice(), z_ref.as_slice(), "forward");
    assert_eq!(ld_fast.as_slice(), ld_ref.as_slice(), "log-det");
    assert_eq!(flow.log_prob(&x), flow.log_prob_reference(&x), "log-prob");
}

#[test]
fn resnet_snapshot_matches_taped_forward_to_zero_ulp() {
    let mut rng = nnrng::seeded(500);
    for (blocks, bounded) in [(1, false), (2, true), (3, false)] {
        let net = ResNet::new(10, 48, 10, blocks, bounded, &mut rng);
        let x = Tensor::randn(29, 10, &mut rng);
        let snap = net.snapshot();
        let mut ws = NetWorkspace::new();
        let mut out = Tensor::default();
        snap.forward_into(&x, &mut ws, &mut out);
        let tape = Tape::new();
        let taped = net.forward(&tape, &tape.constant(x.clone())).value();
        assert_eq!(out.as_slice(), taped.as_slice());
        // The generic Module-level snapshot agrees too.
        let generic = net.export_snapshot();
        assert_eq!(generic.forward(&x).as_slice(), out.as_slice());
    }
}

#[test]
fn reused_workspace_is_byte_identical_to_fresh_workspaces() {
    let flow = random_flow(FlowConfig::tiny(), 600);
    let snap = flow.snapshot();
    let mut rng = nnrng::seeded(601);
    let mut shared_ws = FlowWorkspace::new();
    let mut out = Tensor::default();
    // Batches of varying size so every scratch buffer shrinks and regrows.
    for rows in [64, 3, 128, 1, 40] {
        let z = Tensor::randn(rows, flow.dim(), &mut rng);
        snap.inverse_into(&z, &mut shared_ws, &mut out);
        let mut fresh_ws = FlowWorkspace::new();
        let mut fresh_out = Tensor::default();
        snap.inverse_into(&z, &mut fresh_ws, &mut fresh_out);
        assert_eq!(out.as_slice(), fresh_out.as_slice(), "rows {rows}");
    }
}

#[test]
fn session_generation_matches_sample_passwords_exactly() {
    let flow = random_flow(FlowConfig::tiny(), 700);
    let mut session = flow.start_session().expect("flows have sessions");
    for round in 0..3 {
        let mut rng_a = nnrng::seeded(710 + round);
        let mut rng_b = nnrng::seeded(710 + round);
        let via_session = session.generate_batch(257, &mut rng_a);
        let via_flow = flow.sample_passwords(257, &mut rng_b);
        assert_eq!(via_session, via_flow, "round {round}");
    }
}

/// Fixture: a lightly trained flow plus targets drawn from its own samples,
/// so dynamic strategies find matches and exercise the mixture prior.
fn attack_fixture() -> (PassFlow, HashSet<String>) {
    let corpus = SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(4_000)).generate(42);
    let split = corpus.paper_split(0.8, 1_000, 42);
    let mut rng = nnrng::seeded(800);
    let flow = PassFlow::new(FlowConfig::tiny(), &mut rng).expect("valid config");
    train(
        &flow,
        &split.train,
        &TrainConfig::tiny().with_epochs(2).with_batch_size(256),
    )
    .expect("training succeeds");
    let mut targets = split.test_set();
    targets.extend(
        flow.sample_passwords(200, &mut rng)
            .into_iter()
            .filter(|p| !p.is_empty()),
    );
    (flow, targets)
}

#[test]
fn repeated_attacks_reuse_state_yet_stay_byte_identical() {
    let (flow, targets) = attack_fixture();
    let strategies = [
        GuessingStrategy::Static,
        GuessingStrategy::Dynamic(DynamicParams::new(0, 0.1, 8)),
        GuessingStrategy::DynamicWithSmoothing {
            params: DynamicParams::new(0, 0.1, 8),
            smoothing: GaussianSmoothing::default(),
        },
    ];
    for strategy in strategies {
        let label = strategy.label();
        let run = |shards: usize| -> AttackOutcome {
            Attack::new(&targets)
                .budget(1_200)
                .batch_size(128)
                .checkpoints(vec![400, 800])
                .seed(9)
                .shards(shards)
                .strategy(strategy.clone())
                .run(&flow)
                .unwrap_or_else(|e| panic!("{label} failed: {e}"))
        };
        // Two identical runs: the snapshot cache is cold for the first and
        // warm for the second, and every worker session is rebuilt — the
        // outcomes (reports, matched passwords, samples) must be identical.
        let first = run(1);
        let second = run(1);
        assert_eq!(first, second, "{label}: warm snapshot changed results");
        // Sharded workers each hold their own long-lived workspace; results
        // must still be byte-identical to the sequential run.
        let sharded = run(4);
        assert_eq!(first, sharded, "{label}: worker sessions changed results");
        assert!(
            first.final_report().matched > 0,
            "{label}: fixture must produce matches for the test to bite"
        );
    }
}

#[test]
fn snapshot_cache_follows_training_updates() {
    let (flow, targets) = attack_fixture();
    let before = Attack::new(&targets)
        .budget(400)
        .seed(3)
        .run(&flow)
        .unwrap();
    // Mutate weights: the cached snapshot must invalidate, so a fresh
    // attack reflects the new model rather than stale weights.
    for p in flow.parameters() {
        p.set_value(p.value().add_scalar(0.05));
    }
    let after = Attack::new(&targets)
        .budget(400)
        .seed(3)
        .run(&flow)
        .unwrap();
    assert_ne!(
        before.nonmatched_samples, after.nonmatched_samples,
        "stale snapshot: weight update did not change generated guesses"
    );
}

/// The scalar reference the GEMM contract is stated against: one FMA per
/// (row, col, p) with `p` ascending — exactly the accumulation order the
/// register-blocked, SIMD and threaded kernels all preserve.
fn gemm_reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k) = a.shape();
    let n = b.cols();
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a[i * k + p].mul_add(b[p * n + j], acc);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

#[test]
fn threaded_gemm_matches_reference_over_ragged_shapes() {
    use passflow::nn::kernels::{matmul_into, matmul_into_with};

    // A property-style sweep: shapes chosen to hit every tail of the
    // blocked kernel — 16/8/4/1-wide column tails, 4-row blocks and
    // single-row tails, plus k values that are not multiples of anything.
    let shapes = [
        (1usize, 1usize, 1usize),
        (1, 7, 17),
        (3, 5, 16),
        (4, 16, 24),
        (5, 3, 20),
        (7, 9, 7),
        (8, 32, 33),
        (31, 17, 29),
        (64, 24, 48),
        (65, 31, 41),
        (128, 48, 21),
        (256, 64, 64),
    ];
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let mut rng = nnrng::seeded(9_000 + case as u64);
        let a = Tensor::randn(m, k, &mut rng);
        let b = Tensor::randn(k, n, &mut rng);
        let reference = gemm_reference(&a, &b);

        let mut serial = Tensor::default();
        matmul_into(&a, &b, &mut serial);
        assert_eq!(
            serial.as_slice(),
            &reference[..],
            "{m}x{k}x{n}: single-threaded kernel diverged from the reference"
        );

        for threads in [2usize, 4] {
            let pool = ThreadPool::new(threads);
            let mut threaded = Tensor::default();
            matmul_into_with(&a, &b, &mut threaded, Some(&pool));
            assert_eq!(
                threaded.as_slice(),
                serial.as_slice(),
                "{m}x{k}x{n}: {threads}-thread result is not bit-identical"
            );
        }
    }
}

/// The quantized tier's documented accuracy contract: on a trained
/// reference model, int8 scoring stays within this many log-prob units of
/// the exact `log_prob_reference` oracle. DESIGN.md ("Threaded GEMM, SIMD
/// tiles & quantized tier") documents the same bound; BENCH_PR8.json
/// records the value actually measured per host.
const QUANT_LOG_PROB_BOUND: f64 = 1.0;

#[test]
fn quantized_log_prob_stays_within_documented_bound_of_reference() {
    let corpus = SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(2_000))
        .generate(61)
        .into_passwords();
    let mut rng = nnrng::seeded(62);
    let flow = PassFlow::new(FlowConfig::tiny(), &mut rng).expect("valid config");
    train(
        &flow,
        &corpus,
        &TrainConfig::tiny().with_epochs(1).with_batch_size(256),
    )
    .expect("training succeeds");

    let snapshot = flow.snapshot();
    let quantized = snapshot.quantize();
    let x = flow
        .encode_batch(&corpus[..256])
        .expect("synthetic corpus passwords always encode");
    let oracle = flow.log_prob_reference(&x);

    let mut ws = FlowWorkspace::new();
    let mut lp = Tensor::default();
    quantized.log_prob_into(&x, &mut ws, &mut lp);

    let mut max_delta = 0.0f64;
    for (q, r) in lp.as_slice().iter().zip(oracle.iter()) {
        max_delta = max_delta.max((f64::from(*q) - f64::from(*r)).abs());
    }
    assert!(
        max_delta > 0.0,
        "int8 quantization must actually perturb scores — a zero delta \
         means the quantized path silently fell back to f32"
    );
    assert!(
        max_delta < QUANT_LOG_PROB_BOUND,
        "quantized tier exceeded its documented bound: max |delta log-prob| \
         = {max_delta}, documented {QUANT_LOG_PROB_BOUND}"
    );
}

/// FNV-1a-64 over the exact bits of a score list (`None` hashes as a flag
/// byte), so the pin below sees any single-bit change in any score.
fn score_digest(scores: &[Option<f64>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for score in scores {
        let mut bytes = [0u8; 9];
        if let Some(v) = score {
            bytes[0] = 1;
            bytes[1..].copy_from_slice(&v.to_bits().to_le_bytes());
        }
        for &b in &bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Pinned `log_probs` bits of the exact and int8 scorers. The shapes make
/// every part of the GEMM driver run: hidden width 61 = 16·3 + 8 + 4 + 1
/// takes the 16-wide tile and every column tail; 203 scored rows take
/// 4-row blocks and a 3-row tail; and at 2 threads each hidden GEMM is
/// 203·61·61 ≈ 7.6·10⁵ multiply-accumulates, so the pooled row partition
/// runs. The constants were recorded from the scorers before the int8 tier
/// shared the f32 driver; a refactor that moves any bit fails here, which
/// the |Δ| bound above cannot see.
#[test]
fn scorer_log_prob_bits_are_pinned() {
    let flow = random_flow(
        FlowConfig::tiny()
            .with_coupling_layers(2)
            .with_hidden_size(61),
        1301,
    );
    let mut passwords = SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(400))
        .generate(1302)
        .into_passwords();
    passwords.retain(|p| flow.encoder().encode(p).is_some());
    passwords.truncate(203);
    assert_eq!(passwords.len(), 203, "corpus yields enough encodable rows");
    passwords.insert(5, "x".repeat(64));

    let exact = FlowScorer::new(&flow);
    let int8 = QuantizedScorer::from_scorer(&exact);
    // The threaded scores come through a workspace holding a 2-thread pool.
    let mut ws = FlowWorkspace::new();
    ws.set_thread_pool(Some(Arc::new(ThreadPool::new(2))));
    let (mut exact_threaded, mut int8_threaded) = (Vec::new(), Vec::new());
    exact.log_probs_with(&passwords, &mut ws, &mut exact_threaded);
    int8.log_probs_with(&passwords, &mut ws, &mut int8_threaded);
    let pins = [
        (
            "f32",
            exact.log_probs(&passwords),
            exact_threaded,
            0x4a5a_7391_bc5c_a470,
            [
                0xc04a_85ac_bc1b_9dd0,
                0xc04b_c3f2_a41b_9dd0,
                0xc04a_b94a_2c1b_9dd0,
            ],
        ),
        (
            "int8",
            int8.log_probs(&passwords),
            int8_threaded,
            0x003c_a526_a576_49c1,
            [
                0xc04a_8567_f41b_9dd0,
                0xc04b_beec_e41b_9dd0,
                0xc04a_b900_0c1b_9dd0,
            ],
        ),
    ];
    for (tier, serial, threaded, digest, head) in pins {
        assert_eq!(serial[5], None, "{tier}: unencodable password scores None");
        for (label, scores) in [("serial", &serial), ("2 threads", &threaded)] {
            let bits: Vec<u64> = [0, 1, 202]
                .iter()
                .map(|&i| scores[i].expect("encodable").to_bits())
                .collect();
            assert_eq!(bits, head, "{tier} {label}: pinned scores moved");
            assert_eq!(
                score_digest(scores),
                digest,
                "{tier} {label}: score digest moved"
            );
        }
    }
}
