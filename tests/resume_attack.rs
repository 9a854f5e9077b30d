//! Kill→resume conformance suite for `PFATTACK v1` attack checkpoints: an
//! attack halted at any checkpoint and resumed must reproduce the
//! byte-identical [`AttackOutcome`] — and the byte-identical `PFGUESS v1`
//! guess archive — of an uninterrupted run, for both the plain (static) and
//! the Dynamic+GS latent path. Knob mismatches and corrupt checkpoints must
//! surface as typed errors, never as silently divergent results.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use passflow::nn::rng as nnrng;
use passflow::{
    Attack, AttackOutcome, DynamicParams, FlowConfig, FlowError, GaussianSmoothing, Guesser,
    GuessingStrategy, PassFlow,
};
use rand::RngCore;

/// A scratch dir that removes itself (and its artifacts) on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "pfattack-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A deterministic guesser cycling through a fixed list (the integration
/// twin of the engine's unit-test fixture).
struct Cycler(Vec<String>);

impl Guesser for Cycler {
    fn name(&self) -> &str {
        "cycler"
    }
    fn generate_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
        (0..n)
            .map(|_| self.0[nnrng::uniform_index(rng, self.0.len())].clone())
            .collect()
    }
}

fn cycler() -> Cycler {
    Cycler((0..64).map(|i| format!("pw{i:03}")).collect())
}

fn targets() -> HashSet<String> {
    (0..16).map(|i| format!("pw{:03}", i * 4)).collect()
}

/// An untrained flow plus targets drawn from its own samples, so the
/// Dynamic+GS strategy finds matches and actually builds mixture priors.
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

fn static_attack<'a>(targets: &'a HashSet<String>) -> Attack<'a> {
    Attack::new(targets)
        .budget(20_000)
        .batch_size(64)
        .checkpoints(vec![1_000, 9_999])
        .seed(7)
}

fn dynamic_attack<'a>(targets: &'a HashSet<String>) -> Attack<'a> {
    Attack::new(targets)
        .budget(1_500)
        .batch_size(128)
        .checkpoints(vec![512, 1_024])
        .strategy(GuessingStrategy::DynamicWithSmoothing {
            params: DynamicParams::new(0, 0.1, 8),
            smoothing: GaussianSmoothing::default(),
        })
        .seed(11)
        .shards(2)
        .sync_every(4)
}

#[test]
fn halted_and_resumed_static_attacks_reproduce_uninterrupted_outcomes() {
    let scratch = Scratch::new("static");
    let targets = targets();
    let guesser = cycler();

    let reference_archive = scratch.path("reference.pfg");
    let reference: AttackOutcome = static_attack(&targets)
        .archive_to(&reference_archive)
        .run(&guesser)
        .unwrap();
    let reference_bytes = std::fs::read(&reference_archive).unwrap();

    // Halt at several points: before the first report, mid-run, and past
    // the last intermediate checkpoint. halt_after snaps to the next wave
    // boundary, so these cover early, interior and late waves.
    for halt in [1u64, 5_000, 14_000] {
        let cp = scratch.path(&format!("halt-{halt}.pfa"));
        let partial = static_attack(&targets)
            .checkpoint_to(&cp)
            .halt_after(halt)
            .run(&guesser)
            .unwrap();
        assert!(cp.exists(), "halt at {halt} must leave a checkpoint");
        assert!(
            partial.checkpoints.len() < reference.checkpoints.len(),
            "halt at {halt} should be a genuine partial run"
        );
        // The partial reports must be a prefix of the uninterrupted run's.
        assert_eq!(
            partial.checkpoints.as_slice(),
            &reference.checkpoints[..partial.checkpoints.len()],
            "partial reports diverged at halt {halt}"
        );

        let resumed_archive = scratch.path(&format!("resumed-{halt}.pfg"));
        let resumed = static_attack(&targets)
            .resume(&cp)
            .archive_to(&resumed_archive)
            .run(&guesser)
            .unwrap();
        assert_eq!(resumed, reference, "resume after halt {halt} diverged");
        assert_eq!(
            std::fs::read(&resumed_archive).unwrap(),
            reference_bytes,
            "archive after halt {halt} is not byte-identical"
        );
    }
}

#[test]
fn halted_and_resumed_dynamic_gs_attacks_reproduce_uninterrupted_outcomes() {
    let scratch = Scratch::new("dynamic");
    let (flow, targets) = flow_fixture();

    let reference_archive = scratch.path("reference.pfg");
    let reference = dynamic_attack(&targets)
        .archive_to(&reference_archive)
        .run(&flow)
        .unwrap();
    assert!(
        reference.final_report().matched > 0,
        "fixture must produce matches to exercise the mixture state"
    );
    let reference_bytes = std::fs::read(&reference_archive).unwrap();

    // 600 is not a wave boundary (waves are sync_every × batch = 512
    // guesses) — the halt snaps forward, exercising mid-shard kills.
    // (Anything past 1_024 would snap to the final wave and complete.)
    for halt in [1u64, 600] {
        let cp = scratch.path(&format!("halt-{halt}.pfa"));
        let partial = dynamic_attack(&targets)
            .checkpoint_to(&cp)
            .halt_after(halt)
            .run(&flow)
            .unwrap();
        assert!(
            partial.final_report().guesses < reference.final_report().guesses
                || partial.checkpoints.len() < reference.checkpoints.len(),
            "halt at {halt} should stop early"
        );

        // Resuming with a different shard count must still be exact:
        // results are shard-count invariant, and the checkpoint does not
        // pin the shard knob.
        let resumed_archive = scratch.path(&format!("resumed-{halt}.pfg"));
        let resumed = dynamic_attack(&targets)
            .shards(1)
            .resume(&cp)
            .archive_to(&resumed_archive)
            .run(&flow)
            .unwrap();
        assert_eq!(resumed, reference, "resume after halt {halt} diverged");
        assert_eq!(
            std::fs::read(&resumed_archive).unwrap(),
            reference_bytes,
            "archive after halt {halt} is not byte-identical"
        );
    }
}

#[test]
fn narrow_wave_resume_on_two_shards_reproduces_one_shard() {
    let scratch = Scratch::new("narrow");
    let (flow, targets) = flow_fixture();
    // One chunk per wave: the 2-shard runs split each chunk's inverse, into
    // one 64-row block per shard at batch 128 and four 128-row blocks at 512.
    for batch in [128, 512] {
        let attack = |shards: usize| {
            dynamic_attack(&targets)
                .batch_size(batch)
                .sync_every(1)
                .shards(shards)
        };

        let reference_archive = scratch.path(&format!("reference-{batch}.pfg"));
        let reference = attack(1).archive_to(&reference_archive).run(&flow).unwrap();
        assert!(reference.final_report().matched > 0, "batch={batch}");

        let cp = scratch.path(&format!("halt-{batch}.pfa"));
        attack(2)
            .checkpoint_to(&cp)
            .halt_after(600)
            .run(&flow)
            .unwrap();
        let resumed_archive = scratch.path(&format!("resumed-{batch}.pfg"));
        let resumed = attack(2)
            .resume(&cp)
            .archive_to(&resumed_archive)
            .run(&flow)
            .unwrap();
        assert_eq!(resumed, reference, "batch={batch}");
        assert_eq!(
            std::fs::read(&resumed_archive).unwrap(),
            std::fs::read(&reference_archive).unwrap(),
            "batch={batch}"
        );
    }
}

#[test]
fn periodic_checkpoints_and_resume_from_complete_are_stable() {
    let scratch = Scratch::new("cadence");
    let targets = targets();
    let guesser = cycler();
    let cp = scratch.path("rolling.pfa");
    let archive = scratch.path("run.pfg");

    let outcome = static_attack(&targets)
        .checkpoint_every(1_000)
        .checkpoint_to(&cp)
        .archive_to(&archive)
        .run(&guesser)
        .unwrap();
    assert!(cp.exists(), "completion must leave the final checkpoint");
    let archive_bytes = std::fs::read(&archive).unwrap();

    // Resuming a finished checkpoint is a no-op run: the byte-identical
    // outcome comes straight back and the archive is rewritten identically.
    let again = static_attack(&targets)
        .checkpoint_to(&cp)
        .archive_to(&archive)
        .resume(&cp)
        .run(&guesser)
        .unwrap();
    assert_eq!(again, outcome);
    assert_eq!(std::fs::read(&archive).unwrap(), archive_bytes);
}

#[test]
fn mismatched_knobs_surface_as_typed_checkpoint_errors() {
    let scratch = Scratch::new("mismatch");
    let targets = targets();
    let guesser = cycler();
    let cp = scratch.path("halted.pfa");
    static_attack(&targets)
        .checkpoint_to(&cp)
        .halt_after(5_000)
        .run(&guesser)
        .unwrap();

    fn expect_mismatch(attack: Attack<'_>, guesser: &dyn Guesser, cp: &Path, field: &str) {
        match attack.resume(cp).run(guesser) {
            Err(FlowError::CheckpointMismatch { field: f, .. }) => {
                assert_eq!(f, field, "wrong mismatch field");
            }
            other => panic!("expected a {field} mismatch, got {other:?}"),
        }
    }

    expect_mismatch(
        static_attack(&targets).budget(30_000),
        &guesser,
        &cp,
        "budget",
    );
    expect_mismatch(static_attack(&targets).seed(8), &guesser, &cp, "seed");
    expect_mismatch(
        static_attack(&targets).batch_size(128),
        &guesser,
        &cp,
        "batch_size",
    );
    expect_mismatch(
        static_attack(&targets).checkpoints(vec![2_000]),
        &guesser,
        &cp,
        "checkpoints",
    );

    let mut grown = targets.clone();
    grown.insert("extra-target".to_string());
    expect_mismatch(static_attack(&grown), &guesser, &cp, "target count");

    let mut swapped = targets.clone();
    swapped.remove("pw000");
    swapped.insert("pw001".to_string());
    expect_mismatch(static_attack(&swapped), &guesser, &cp, "target digest");

    struct Renamed(Cycler);
    impl Guesser for Renamed {
        fn name(&self) -> &str {
            "other"
        }
        fn generate_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
            self.0.generate_batch(n, rng)
        }
    }
    expect_mismatch(static_attack(&targets), &Renamed(cycler()), &cp, "guesser");
}

#[test]
fn resuming_against_different_weights_is_a_guesser_digest_mismatch() {
    let scratch = Scratch::new("weights");
    let (flow, targets) = flow_fixture();
    let cp = scratch.path("flow.pfa");
    dynamic_attack(&targets)
        .checkpoint_to(&cp)
        .halt_after(600)
        .run(&flow)
        .unwrap();

    // Same name ("PassFlow"), same architecture, different weights.
    let other = PassFlow::new(FlowConfig::tiny(), &mut nnrng::seeded(43)).unwrap();
    match dynamic_attack(&targets).resume(&cp).run(&other) {
        Err(FlowError::CheckpointMismatch { field, .. }) => {
            assert_eq!(field, "guesser digest");
        }
        other => panic!("expected a guesser digest mismatch, got {other:?}"),
    }
}

#[test]
fn corrupt_and_truncated_checkpoints_are_persistence_errors() {
    let scratch = Scratch::new("corrupt");
    let targets = targets();
    let guesser = cycler();
    let cp = scratch.path("victim.pfa");
    static_attack(&targets)
        .checkpoint_to(&cp)
        .halt_after(5_000)
        .run(&guesser)
        .unwrap();
    let pristine = std::fs::read(&cp).unwrap();

    // Truncations at several depths, a flipped payload byte, and garbage.
    for keep in [0, 10, 24, pristine.len() / 2, pristine.len() - 1] {
        std::fs::write(&cp, &pristine[..keep]).unwrap();
        match static_attack(&targets).resume(&cp).run(&guesser) {
            Err(FlowError::AttackPersistence(_)) => {}
            other => panic!("truncation to {keep} bytes: got {other:?}"),
        }
    }
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xFF;
    std::fs::write(&cp, &flipped).unwrap();
    match static_attack(&targets).resume(&cp).run(&guesser) {
        Err(FlowError::AttackPersistence(msg)) => {
            assert!(msg.contains("checksum"), "got: {msg}");
        }
        other => panic!("bit flip: got {other:?}"),
    }

    // A valid checkpoint restored verbatim still works after the scare.
    std::fs::write(&cp, &pristine).unwrap();
    static_attack(&targets).resume(&cp).run(&guesser).unwrap();
}

#[test]
fn shard_attack_archives_merge_order_independently() {
    let scratch = Scratch::new("shardmerge");
    let targets = targets();
    let guesser = cycler();

    // Two "distributed" shards of the same campaign: disjoint seeds, each
    // persisting its dedup'd guess stream.
    let a = scratch.path("shard-a.pfg");
    let b = scratch.path("shard-b.pfg");
    static_attack(&targets)
        .seed(7)
        .archive_to(&a)
        .run(&guesser)
        .unwrap();
    static_attack(&targets)
        .seed(8)
        .archive_to(&b)
        .run(&guesser)
        .unwrap();

    let ab = scratch.path("ab.pfg");
    let ba = scratch.path("ba.pfg");
    passflow::merge_archives(&[a.clone(), b.clone()], &ab).unwrap();
    passflow::merge_archives(&[b, a], &ba).unwrap();
    let merged = std::fs::read(&ab).unwrap();
    assert_eq!(std::fs::read(&ba).unwrap(), merged, "merge order leaked");

    // The union archive serves summed emission counts.
    let archive = passflow::GuessArchive::open(&ab).unwrap();
    archive.verify().unwrap();
    assert_eq!(archive.record_count(), 64, "the cycler only has 64 guesses");
    let total: u64 = archive
        .extract_prefix("pw")
        .unwrap()
        .iter()
        .map(|(_, c)| c)
        .sum();
    assert_eq!(total, 40_000, "both shards' emissions must be accounted");
}
