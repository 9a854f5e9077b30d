//! Integration tests for the data-parallel training subsystem: worker-count
//! invariance, bit-exact checkpoint resume, v1 read compatibility and
//! early stopping.

use passflow::store::format::{fnv1a, FNV_SEED};
use passflow::{
    load_checkpoint, save_flow, train, EarlyStopConfig, FlowConfig, PassFlow, Schedule,
    TrainConfig, Trainer,
};
use passflow_nn::rng as nnrng;
use passflow_nn::{Parameter, Tensor};
use passflow_passwords::{CorpusConfig, SyntheticCorpusGenerator};

fn tiny_flow(seed: u64) -> PassFlow {
    let mut rng = nnrng::seeded(seed);
    PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap()
}

fn corpus(n: usize) -> Vec<String> {
    SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(n))
        .generate(31)
        .into_passwords()
}

fn assert_weights_bit_equal(a: &PassFlow, b: &PassFlow, context: &str) {
    for (i, (wa, wb)) in a
        .weight_snapshot()
        .iter()
        .zip(b.weight_snapshot().iter())
        .enumerate()
    {
        for (x, y) in wa.as_slice().iter().zip(wb.as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: tensor {i} differs ({x} vs {y})"
            );
        }
    }
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "passflow_training_test_{name}_{}",
        std::process::id()
    ))
}

#[test]
fn one_optimizer_step_is_worker_count_invariant_bitwise() {
    // One epoch over one macro-batch = exactly one optimizer step. The
    // step must be bit-identical whether one worker or four computed the
    // micro-batch gradients.
    let passwords = corpus(128);
    let config = TrainConfig::tiny()
        .with_epochs(1)
        .with_batch_size(128)
        .with_micro_batch(32);

    let single = tiny_flow(17);
    train(&single, &passwords, &config.clone().with_grad_workers(1)).unwrap();

    let sharded = tiny_flow(17);
    train(&sharded, &passwords, &config.with_grad_workers(4)).unwrap();

    assert_weights_bit_equal(&single, &sharded, "after one step, 1 vs 4 workers");
}

#[test]
fn full_training_runs_are_worker_count_invariant_bitwise() {
    let passwords = corpus(400);
    let base = TrainConfig::tiny()
        .with_epochs(2)
        .with_batch_size(128)
        .with_micro_batch(32)
        .with_validation_fraction(0.2);

    let reference_flow = tiny_flow(19);
    let reference = train(
        &reference_flow,
        &passwords,
        &base.clone().with_grad_workers(1),
    )
    .unwrap();

    for workers in [2, 4] {
        let flow = tiny_flow(19);
        let report = train(&flow, &passwords, &base.clone().with_grad_workers(workers)).unwrap();
        assert_eq!(report, reference, "report diverged with {workers} workers");
        assert_weights_bit_equal(
            &reference_flow,
            &flow,
            &format!("full run, 1 vs {workers} workers"),
        );
    }
}

#[test]
fn killed_run_resumes_bit_exactly_from_a_checkpoint() {
    let passwords = corpus(400);
    // Trajectory-relevant knobs must match across runs; epochs and
    // checkpoint cadence may differ (schedules are step-indexed, so the
    // epoch budget does not shape per-step math).
    let base = TrainConfig::tiny()
        .with_batch_size(128)
        .with_micro_batch(32)
        .with_validation_fraction(0.25)
        .with_schedule(Schedule::Step {
            every: 4,
            gamma: 0.5,
        });

    // Uninterrupted 6-epoch run.
    let full_flow = tiny_flow(23);
    let full_report = train(&full_flow, &passwords, &base.clone().with_epochs(6)).unwrap();

    // "Killed" run: 3 epochs, checkpointed at the epoch-3 boundary.
    let path = tmp_path("resume");
    let killed_flow = tiny_flow(23);
    let killed_report = Trainer::new(
        &killed_flow,
        base.clone().with_epochs(3).with_checkpoint_every(3),
    )
    .unwrap()
    .with_checkpoint(&path)
    .train(&passwords)
    .unwrap();
    assert_eq!(killed_report.epochs.len(), 3);

    // Resume on a *fresh* flow (weights come from the checkpoint) and run
    // to the full 6 epochs.
    let resumed_flow = tiny_flow(99); // different init: must be overwritten
    let resumed_report = Trainer::new(&resumed_flow, base.with_epochs(6))
        .unwrap()
        .resume(&passwords, &path)
        .unwrap();
    let _ = std::fs::remove_file(&path);

    // The resumed run replays epochs 3..6 bit-exactly: identical weights
    // (which also proves the Adam moments and RNG position were restored —
    // any drift there would change every subsequent update) and an
    // identical full-run report, including the pre-kill history.
    assert_weights_bit_equal(&full_flow, &resumed_flow, "uninterrupted vs resumed");
    assert_eq!(resumed_report, full_report);
}

#[test]
fn resume_rejects_mismatched_training_config() {
    let passwords = corpus(200);
    let base = TrainConfig::tiny().with_epochs(2).with_batch_size(128);
    let path = tmp_path("mismatch");
    let flow = tiny_flow(29);
    Trainer::new(&flow, base.clone())
        .unwrap()
        .with_checkpoint(&path)
        .train(&passwords)
        .unwrap();

    // A different seed makes bit-exact resume impossible; the trainer must
    // refuse rather than silently produce a different trajectory.
    let other = tiny_flow(29);
    let err = Trainer::new(&other, base.clone().with_seed(123).with_epochs(4))
        .unwrap()
        .resume(&passwords, &path)
        .unwrap_err();
    assert!(
        matches!(err, passflow::FlowError::InvalidConfig(_)),
        "unexpected error {err:?}"
    );

    // The early-stop rule shapes best-weight selection and the stop epoch,
    // so it is trajectory-relevant too.
    let err = Trainer::new(
        &other,
        base.clone()
            .with_epochs(4)
            .with_early_stop(EarlyStopConfig::new(2)),
    )
    .unwrap()
    .resume(&passwords, &path)
    .unwrap_err();
    assert!(
        matches!(err, passflow::FlowError::InvalidConfig(_)),
        "unexpected error {err:?}"
    );

    // So is the corpus itself: a different password set shifts the
    // validation split and batch partition.
    let mut altered = passwords.clone();
    altered.push("extra1".to_string());
    let err = Trainer::new(&other, base.with_epochs(4))
        .unwrap()
        .resume(&altered, &path)
        .unwrap_err();
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(err, passflow::FlowError::InvalidConfig(_)),
        "unexpected error {err:?}"
    );
}

#[test]
fn resuming_a_stopped_run_does_not_train_extra_epochs() {
    // A checkpoint written at the epoch where early stopping fired records
    // the stop; resuming it must return the completed run unchanged rather
    // than training epochs the uninterrupted run never ran.
    let passwords = corpus(400);
    let config = TrainConfig::tiny()
        .with_epochs(20)
        .with_batch_size(128)
        .with_learning_rate(1e-7)
        .with_validation_fraction(0.25)
        .with_early_stop(EarlyStopConfig::new(2).with_min_delta(0.01));

    let path = tmp_path("stopped_resume");
    let flow = tiny_flow(43);
    let report = Trainer::new(&flow, config.clone())
        .unwrap()
        .with_checkpoint(&path)
        .train(&passwords)
        .unwrap();
    assert!(report.stopped_early);

    let resumed_flow = tiny_flow(43);
    let resumed_report = Trainer::new(&resumed_flow, config)
        .unwrap()
        .resume(&passwords, &path)
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        resumed_report, report,
        "resume must not extend a stopped run"
    );
    assert_weights_bit_equal(&flow, &resumed_flow, "stopped-run resume");
}

#[test]
fn v1_checkpoints_remain_readable() {
    // A weights-only v1 file (the pre-subsystem format) loads through the
    // v2 reader with bit-exact weights and no training state.
    let flow = tiny_flow(31);
    let path = tmp_path("v1_compat");
    save_flow(&flow, &path).unwrap();
    let header = std::fs::read_to_string(&path).unwrap();
    assert!(header.starts_with("PASSFLOW v1"));

    let (restored, state) = load_checkpoint(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(state.is_none(), "v1 files carry no training state");
    assert_eq!(restored.config(), flow.config());
    assert_weights_bit_equal(&flow, &restored, "v1 read-compat");

    // And a v1 checkpoint cannot seed a resume (it has no state).
    let trainer_flow = tiny_flow(31);
    let path2 = tmp_path("v1_resume");
    save_flow(&flow, &path2).unwrap();
    let err = Trainer::new(&trainer_flow, TrainConfig::tiny())
        .unwrap()
        .resume(&corpus(100), &path2)
        .unwrap_err();
    let _ = std::fs::remove_file(&path2);
    assert!(matches!(err, passflow::FlowError::IncompatibleWeights(_)));
}

#[test]
fn early_stopping_triggers_on_a_plateaued_validation_nll() {
    let passwords = corpus(400);
    // A glacial learning rate freezes the validation NLL; with patience 2
    // and a 0.01-nat margin the run must stop after epoch 2 (one
    // improving epoch + two stale ones) despite a 20-epoch budget.
    let config = TrainConfig::tiny()
        .with_epochs(20)
        .with_batch_size(128)
        .with_learning_rate(1e-7)
        .with_validation_fraction(0.25)
        .with_early_stop(EarlyStopConfig::new(2).with_min_delta(0.01));

    let flow = tiny_flow(37);
    let report = train(&flow, &passwords, &config).unwrap();
    assert!(report.stopped_early, "expected an early stop");
    assert_eq!(report.epochs.len(), 3, "1 improving + 2 stale epochs");
    assert_eq!(report.best_epoch, 0);
    for e in &report.epochs {
        assert!(e.val_nll.is_some());
    }
}

#[test]
fn trained_flow_still_attacks_after_a_checkpoint_round_trip() {
    // End-to-end: train with workers + checkpointing, reload the artifact,
    // and verify the restored flow produces identical guesses.
    let passwords = corpus(500);
    let path = tmp_path("attack_after_resume");
    let flow = tiny_flow(41);
    Trainer::new(
        &flow,
        TrainConfig::tiny()
            .with_epochs(2)
            .with_batch_size(128)
            .with_grad_workers(2),
    )
    .unwrap()
    .with_checkpoint(&path)
    .train(&passwords)
    .unwrap();

    let (restored, state) = load_checkpoint(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(state.is_some());
    let mut rng_a = nnrng::seeded(7);
    let mut rng_b = nnrng::seeded(7);
    // The checkpoint stores the *last* epoch's weights (the resumable
    // state); sampling determinism is per-weight-set.
    let a = restored.sample_passwords(50, &mut rng_a);
    let b = restored.sample_passwords(50, &mut rng_b);
    assert_eq!(a, b);
    assert_eq!(flow.sample_passwords(10, &mut nnrng::seeded(3)).len(), 10);
}

/// FNV-1a over the bit patterns of `tensors`, shapes included.
fn tensors_digest<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    let mut hash = FNV_SEED;
    for t in tensors {
        hash = fnv1a(hash, &(t.rows() as u64).to_le_bytes());
        hash = fnv1a(hash, &(t.cols() as u64).to_le_bytes());
        for v in t.as_slice() {
            hash = fnv1a(hash, &v.to_bits().to_le_bytes());
        }
    }
    hash
}

#[test]
fn nll_grad_and_adam_bits_are_pinned() {
    // Hidden width 61 = 3×16 + 8 + 4 + 1 walks every GEMM column tile;
    // 67 rows = 16 four-row blocks + a 3-row tail. The pinned values were
    // recorded on the tensor-op backward and allocating Adam update; the
    // training step's kernels may change only if these bits do not.
    let config = FlowConfig::tiny().with_hidden_size(61);
    let flow = PassFlow::new(config, &mut nnrng::seeded(43)).unwrap();
    let passwords = corpus(3 * 134);
    let batch = flow.encode_batch(&passwords[..67]).unwrap();

    let (loss, grads) = flow.nll_grad_sum(&batch);
    let parameters: Vec<Parameter> = flow.parameters();
    let ordered: Vec<&Tensor> = parameters
        .iter()
        .map(|p| grads.get(p).expect("every parameter has a gradient"))
        .collect();
    // The clip threshold below must bind, or the pin skips clipping.
    let clip = 1.0f32;
    assert!(ordered.iter().any(|g| g.scale(1.0 / 67.0).norm() > clip));
    let grad_digest = tensors_digest(ordered);

    // Three optimizer steps: one epoch of three 134-row batches, each two
    // 67-row micro-batches, with per-parameter clipping active.
    let mut train_config = TrainConfig::tiny()
        .with_epochs(1)
        .with_batch_size(134)
        .with_micro_batch(67);
    train_config.clip_norm = Some(clip);
    train(&flow, &passwords, &train_config).unwrap();
    let weights_digest = tensors_digest(&flow.weight_snapshot());

    assert_eq!(
        (loss.to_bits(), grad_digest, weights_digest),
        (0x4486_2e2f, 0xa98d_8df1_b8c1_9b5c, 0xc74d_92e2_f8b2_d448),
        "loss {loss}: pinned training-step bits moved"
    );
}
