//! The data-parallel [`Trainer`] for [`PassFlow`] models.
//!
//! # Execution model
//!
//! Each macro-batch is dequantized once (with noise drawn from an RNG
//! stream keyed by `(seed, epoch, batch)`), then partitioned into
//! fixed-size **micro-batches**. Gradient workers pull micro-batches from a
//! shared counter, differentiate each on a private tape
//! ([`Var::backward_grads`](passflow_nn::Var)), and the trainer merges the
//! resulting [`GradBatch`]es **in micro-batch index order** before scaling
//! and applying them. Because the partition, the noise, and the reduction
//! order are all independent of the worker count, `grad_workers = 1` and
//! `grad_workers = N` produce bit-identical parameter trajectories — the
//! training-side mirror of the attack engine's shard-count invariance.
//!
//! # Resumability
//!
//! All randomness is drawn from streams derived from `(seed, epoch, batch)`
//! rather than one sequential RNG, so the full RNG state is captured by the
//! epoch ordinal alone. A `PASSFLOW v2` checkpoint stores the weights, the
//! Adam moments and step count, the best-epoch selection, the early-stop
//! counter and the epoch history; [`Trainer::resume`] therefore continues a
//! killed run bit-exactly — the resumed trajectory is indistinguishable
//! from one that never stopped.

use std::path::{Path, PathBuf};

use rand::seq::SliceRandom;
use rand::Rng;

use passflow_nn::rng as nnrng;
use passflow_nn::{Adam, GradBatch, Optimizer, Parameter, Tensor};

use crate::config::TrainConfig;
use crate::error::{FlowError, Result};
use crate::flow::PassFlow;
use crate::persist::{load_checkpoint, save_checkpoint};

use super::driver::{EpochDriver, LoopControl, StepCtx, TrainLoop};
use super::early_stop::EarlyStop;
use super::{EpochStats, TrainState, TrainingReport};

/// RNG stream offsets. Streams are keyed by purpose so each consumer is
/// independent and each is addressable from `(seed, epoch, batch)` alone.
const STREAM_SPLIT: u64 = 1 << 40;
const STREAM_SHUFFLE: u64 = 1 << 41;
const STREAM_NOISE: u64 = 1 << 42;
/// Maximum addressable batches per epoch in the noise stream keying.
const NOISE_EPOCH_STRIDE: u64 = 1 << 22;

/// Trains a [`PassFlow`] with sharded gradient workers, schedules,
/// validation-based selection and resumable checkpoints.
///
/// ```rust,no_run
/// # use passflow_core::{FlowConfig, PassFlow, TrainConfig, Trainer};
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// # let flow = PassFlow::new(FlowConfig::tiny(), &mut rng)?;
/// # let passwords: Vec<String> = Vec::new();
/// let config = TrainConfig::evaluation().with_grad_workers(4);
/// let report = Trainer::new(&flow, config)?
///     .with_checkpoint("run.ckpt")
///     .train(&passwords)?;
/// # Ok::<(), passflow_core::FlowError>(())
/// ```
pub struct Trainer<'a> {
    flow: &'a PassFlow,
    config: TrainConfig,
    checkpoint_path: Option<PathBuf>,
}

impl<'a> Trainer<'a> {
    /// Creates a trainer for `flow`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] if the configuration does not
    /// validate.
    pub fn new(flow: &'a PassFlow, config: TrainConfig) -> Result<Self> {
        config.validate()?;
        Ok(Trainer {
            flow,
            config,
            checkpoint_path: None,
        })
    }

    /// Enables periodic checkpointing to `path`. A `PASSFLOW v2` checkpoint
    /// is (re)written every [`TrainConfig::checkpoint_every`] epochs,
    /// containing everything [`Trainer::resume`] needs.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Trains from scratch. See the module docs for the execution model.
    ///
    /// # Errors
    ///
    /// * [`FlowError::EmptyTrainingSet`] if no password could be encoded.
    /// * [`FlowError::Diverged`] if a batch loss becomes non-finite.
    /// * Any checkpoint I/O error, surfaced as
    ///   [`FlowError::IncompatibleWeights`].
    pub fn train(&self, passwords: &[String]) -> Result<TrainingReport> {
        self.run(passwords, None)
    }

    /// Resumes a checkpointed run: restores weights, optimizer moments,
    /// best-epoch selection and the early-stop counter from `path`, then
    /// continues training up to the configured epoch count.
    ///
    /// Resuming is bit-exact: given the same `TrainConfig`, a run killed
    /// after a checkpoint and resumed from it produces the same weights,
    /// report and subsequent checkpoints as a run that was never
    /// interrupted.
    ///
    /// # Errors
    ///
    /// In addition to the [`train`](Self::train) errors:
    ///
    /// * [`FlowError::IncompatibleWeights`] if the checkpoint cannot be
    ///   read, has no training state, or was written by a different flow
    ///   architecture.
    /// * [`FlowError::InvalidConfig`] if the checkpoint's training
    ///   configuration differs on a trajectory-relevant knob.
    pub fn resume(&self, passwords: &[String], path: impl AsRef<Path>) -> Result<TrainingReport> {
        let (ckpt_flow, state) = load_checkpoint(path)?;
        let state = state.ok_or_else(|| {
            FlowError::IncompatibleWeights(
                "checkpoint has no training state (weights-only checkpoint)".into(),
            )
        })?;
        if ckpt_flow.config() != self.flow.config() {
            return Err(FlowError::IncompatibleWeights(format!(
                "checkpoint architecture {:?} does not match the trainer's flow {:?}",
                ckpt_flow.config(),
                self.flow.config()
            )));
        }
        self.check_resume_compat(&state.config)?;
        self.flow.load_weights(&ckpt_flow.weight_snapshot())?;
        self.run(passwords, Some(state))
    }

    /// Rejects resumes whose stored configuration differs on any knob that
    /// shapes the training trajectory (throughput-only knobs — worker
    /// count, checkpoint cadence — and the epoch budget may differ).
    fn check_resume_compat(&self, stored: &TrainConfig) -> Result<()> {
        let c = &self.config;
        let mismatch = stored.seed != c.seed
            || stored.batch_size != c.batch_size
            || stored.micro_batch != c.micro_batch
            || stored.accum_steps != c.accum_steps
            || stored.learning_rate.to_bits() != c.learning_rate.to_bits()
            || stored.dequantization.to_bits() != c.dequantization.to_bits()
            || stored.clip_norm.map(f32::to_bits) != c.clip_norm.map(f32::to_bits)
            || stored.validation_fraction.to_bits() != c.validation_fraction.to_bits()
            || stored.schedule != c.schedule
            || stored.early_stop != c.early_stop;
        if mismatch {
            return Err(FlowError::InvalidConfig(format!(
                "checkpoint was written with a different training configuration \
                 (stored {stored:?}, trainer has {c:?}); bit-exact resume is impossible"
            )));
        }
        Ok(())
    }

    fn run(&self, passwords: &[String], resume: Option<TrainState>) -> Result<TrainingReport> {
        let config = &self.config;
        let data = self.flow.encode_batch(passwords)?;
        let corpus_digest = corpus_digest(&data);
        if let Some(state) = &resume {
            if state.corpus_digest != corpus_digest {
                return Err(FlowError::InvalidConfig(format!(
                    "checkpoint was written against a different training corpus \
                     (digest {:016x}, resuming with {corpus_digest:016x}); the validation \
                     split and batch partition would shift, so bit-exact resume is impossible",
                    state.corpus_digest
                )));
            }
        }
        let (train_data, val_data) =
            split_validation(&data, config.validation_fraction, config.seed);
        let num_examples = train_data.rows();
        let num_validation = val_data.as_ref().map_or(0, Tensor::rows);

        let parameters = self.flow.parameters();
        let mut optimizer = Adam::new(config.learning_rate);
        if let Some(clip) = config.clip_norm {
            optimizer = optimizer.with_clip_norm(clip);
        }

        let batches_per_epoch = num_examples.div_ceil(config.batch_size);
        let amplitude = config.dequantization * self.flow.encoder().quantization_step();

        // Worker count is a pure throughput knob (results are invariant),
        // so it goes through the repo-wide clamp (see `passflow_nn::pool`).
        let effective_workers = passflow_nn::clamp_threads(config.grad_workers);

        let mut driver = FlowDriver {
            flow: self.flow,
            config,
            effective_workers,
            corpus_digest,
            parameters,
            optimizer,
            data: train_data,
            validation: val_data,
            shuffled: (0..num_examples).collect(),
            amplitude,
            pending: GradBatch::new(),
            pending_rows: 0,
            pending_batches: 0,
            batches_per_epoch,
            steps: 0,
            last_lr: config.learning_rate,
            tracker: match config.early_stop {
                Some(rule) => EarlyStop::with_rule(rule),
                None => EarlyStop::best_only(),
            },
            best: None,
            history: Vec::new(),
            stopped_early: false,
            checkpoint_path: self.checkpoint_path.as_deref(),
        };

        let start_epoch = match resume {
            Some(state) => {
                driver
                    .optimizer
                    .load_state(&driver.parameters, &state.optimizer)
                    .map_err(|e| FlowError::IncompatibleWeights(format!("optimizer state: {e}")))?;
                driver.steps = state.steps;
                driver
                    .tracker
                    .restore(state.best_metric, state.stale_epochs);
                if !state.best_weights.is_empty() {
                    driver.best = Some((state.best_epoch, state.best_weights));
                }
                driver.history = state.history;
                if state.stopped {
                    // The run had already stopped early when this
                    // checkpoint was written: it is complete. Skip the
                    // loop instead of training epochs the uninterrupted
                    // run never ran.
                    driver.stopped_early = true;
                    config.epochs
                } else {
                    state.next_epoch
                }
            }
            None => 0,
        };

        TrainLoop::new(
            config.epochs,
            batches_per_epoch,
            config.learning_rate,
            config.schedule,
        )
        .with_accum_steps(config.accum_steps)
        .run(start_epoch, &mut driver)?;

        // Restore the best-performing epoch, as the paper does for
        // generation (best on validation when a split is configured, best
        // on training NLL otherwise).
        let (best_epoch, stopped_early) = (driver.best_epoch(), driver.stopped_early);
        if let Some((_, weights)) = &driver.best {
            self.flow.load_weights(weights)?;
        }

        Ok(TrainingReport {
            epochs: driver.history,
            num_examples,
            num_validation,
            best_epoch,
            stopped_early,
        })
    }
}

// ---------------------------------------------------------------------------
// The epoch driver
// ---------------------------------------------------------------------------

/// The flow-specific [`EpochDriver`]: sharded gradient computation per
/// batch, validation/selection/checkpointing per epoch.
struct FlowDriver<'a> {
    flow: &'a PassFlow,
    config: &'a TrainConfig,
    /// `config.grad_workers` clamped to the host's core count.
    effective_workers: usize,
    /// Digest of the encoded corpus, serialized into checkpoints.
    corpus_digest: u64,
    parameters: Vec<Parameter>,
    optimizer: Adam,
    data: Tensor,
    validation: Option<Tensor>,
    shuffled: Vec<usize>,
    amplitude: f32,
    /// Gradients accumulated since the last optimizer step.
    pending: GradBatch,
    pending_rows: usize,
    pending_batches: usize,
    batches_per_epoch: usize,
    /// Optimizer steps taken (serialized into checkpoints).
    steps: u64,
    last_lr: f32,
    tracker: EarlyStop,
    /// Best epoch observed so far and its weight snapshot.
    best: Option<(usize, Vec<Tensor>)>,
    history: Vec<EpochStats>,
    stopped_early: bool,
    checkpoint_path: Option<&'a Path>,
}

impl FlowDriver<'_> {
    fn best_epoch(&self) -> usize {
        self.best.as_ref().map_or(0, |(epoch, _)| *epoch)
    }

    fn save_checkpoint(&self, next_epoch: usize) -> Result<()> {
        let Some(path) = self.checkpoint_path else {
            return Ok(());
        };
        let (best_epoch, best_weights) = match &self.best {
            Some((epoch, weights)) => (*epoch, weights.clone()),
            None => (0, Vec::new()),
        };
        let state = TrainState {
            config: self.config.clone(),
            next_epoch,
            steps: self.steps,
            optimizer: self.optimizer.export_state(&self.parameters),
            best_epoch,
            best_metric: self.tracker.best(),
            best_weights,
            stale_epochs: self.tracker.stale(),
            stopped: self.stopped_early,
            corpus_digest: self.corpus_digest,
            history: self.history.clone(),
        };
        save_checkpoint(self.flow, Some(&state), path)
    }
}

impl EpochDriver for FlowDriver<'_> {
    type Error = FlowError;

    fn on_epoch_start(&mut self, epoch: usize) -> Result<()> {
        // Per-epoch shuffle stream: resume at epoch E replays exactly the
        // permutations an uninterrupted run would have drawn.
        let mut rng = nnrng::derived(self.config.seed, STREAM_SHUFFLE + epoch as u64);
        self.shuffled.sort_unstable();
        self.shuffled.shuffle(&mut rng);
        Ok(())
    }

    fn on_batch(&mut self, ctx: &StepCtx) -> Result<f32> {
        let start = ctx.batch * self.config.batch_size;
        let end = (start + self.config.batch_size).min(self.shuffled.len());
        let mut batch = self.data.select_rows(&self.shuffled[start..end]);

        // Dequantization noise comes from a stream keyed by (epoch, batch),
        // drawn over the whole macro-batch *before* it is sharded: the
        // noise, like everything else, is independent of the worker count.
        let mut noise_rng = nnrng::derived(
            self.config.seed,
            STREAM_NOISE + ctx.epoch as u64 * NOISE_EPOCH_STRIDE + ctx.batch as u64,
        );
        dequantize_in_place(&mut batch, self.amplitude, &mut noise_rng);

        let outputs = compute_micro_grads(
            self.flow,
            &batch,
            self.config.micro_batch,
            self.effective_workers,
        );

        // Deterministic fixed-order reduction: merge in micro-batch index
        // order, never in thread-completion order.
        let mut loss_sum = 0.0f64;
        for (micro_loss, grads) in &outputs {
            loss_sum += f64::from(*micro_loss);
            self.pending.merge(grads);
        }
        let rows = batch.rows();
        let batch_mean = (loss_sum / rows as f64) as f32;
        if !batch_mean.is_finite() {
            return Err(FlowError::Diverged { epoch: ctx.epoch });
        }
        self.pending_rows += rows;
        self.pending_batches += 1;

        let last_batch = ctx.batch + 1 == self.batches_per_epoch;
        if self.pending_batches == self.config.accum_steps || last_batch {
            self.pending.scale(1.0 / self.pending_rows as f32);
            self.pending.apply();
            // The schedule ordinal is the driver's own optimizer-step
            // counter, not `ctx.lr`'s batch-derived estimate: the epoch
            // boundary flushes partial accumulation groups, so the two
            // drift apart whenever `accum_steps` does not divide the
            // batches per epoch. `steps` is serialized into checkpoints,
            // so resumed runs replay the same ordinals.
            let lr = self.config.learning_rate * self.config.schedule.factor(self.steps);
            self.optimizer.set_learning_rate(lr);
            self.optimizer.step(&self.parameters);
            self.last_lr = lr;
            self.steps += 1;
            self.pending = GradBatch::new();
            self.pending_rows = 0;
            self.pending_batches = 0;
        }
        Ok(batch_mean)
    }

    fn on_epoch_end(&mut self, epoch: usize, mean_loss: f32) -> Result<LoopControl> {
        let val_nll = self.validation.as_ref().map(|v| self.flow.nll(v));
        let metric = val_nll.unwrap_or(mean_loss);
        let verdict = self.tracker.observe(metric);
        if verdict.improved {
            self.best = Some((epoch, self.flow.weight_snapshot()));
        }
        self.history.push(EpochStats {
            epoch,
            train_nll: mean_loss,
            val_nll,
            learning_rate: self.last_lr,
        });
        // Record the stop *before* a cadence checkpoint so resuming a
        // checkpoint written at the stopping epoch does not train epochs
        // the uninterrupted run never ran.
        if verdict.stop {
            self.stopped_early = true;
        }
        if (epoch + 1).is_multiple_of(self.config.checkpoint_every) {
            self.save_checkpoint(epoch + 1)?;
        }
        if verdict.stop {
            return Ok(LoopControl::Stop);
        }
        Ok(LoopControl::Continue)
    }
}

// ---------------------------------------------------------------------------
// Sharded gradient computation
// ---------------------------------------------------------------------------

/// Computes `(loss_sum, gradients)` for every micro-batch of `batch`,
/// farming micro-batches out to `workers` threads.
///
/// The partition is a pure function of `(batch.rows(), micro_batch)` and
/// each micro-batch is differentiated on a private tape, so the returned
/// vector — ordered by micro-batch index — is bit-identical for any worker
/// count; workers only change wall-clock time.
fn compute_micro_grads(
    flow: &PassFlow,
    batch: &Tensor,
    micro_batch: usize,
    workers: usize,
) -> Vec<(f32, GradBatch)> {
    let ranges = micro_ranges(batch.rows(), micro_batch);
    passflow_nn::fan_out(ranges.len(), &mut vec![(); workers.max(1)], |i, _| {
        let (start, len) = ranges[i];
        grad_of_micro(flow, batch, start, len)
    })
}

/// Partitions `rows` into `(start, len)` micro-batch ranges.
fn micro_ranges(rows: usize, micro_batch: usize) -> Vec<(usize, usize)> {
    let micro = micro_batch.max(1);
    (0..rows)
        .step_by(micro)
        .map(|start| (start, micro.min(rows - start)))
        .collect()
}

/// Differentiates one micro-batch on a private tape, returning its summed
/// NLL and detached gradients.
fn grad_of_micro(flow: &PassFlow, batch: &Tensor, start: usize, len: usize) -> (f32, GradBatch) {
    let cols = batch.cols();
    let rows = &batch.as_slice()[start * cols..(start + len) * cols];
    let micro =
        Tensor::from_vec(len, cols, rows.to_vec()).expect("micro-batch slice matches its shape");
    flow.nll_grad_sum(&micro)
}

/// Adds uniform noise in `[-amplitude, amplitude)` to every element in
/// place (no per-batch noise tensor allocation).
fn dequantize_in_place<R: Rng + ?Sized>(batch: &mut Tensor, amplitude: f32, rng: &mut R) {
    if amplitude == 0.0 {
        return;
    }
    for v in batch.as_mut_slice() {
        *v += rng.gen_range(-amplitude..amplitude);
    }
}

/// A deterministic fingerprint of an encoded corpus (shape + every value's
/// bit pattern, through the fixed-key SipHash the dedup set also relies on
/// for cross-process determinism). Checkpoints store it so a resume against
/// a different corpus is rejected instead of silently diverging.
fn corpus_digest(data: &Tensor) -> u64 {
    use std::hash::Hasher;
    let mut hasher = std::hash::DefaultHasher::default();
    hasher.write_usize(data.rows());
    hasher.write_usize(data.cols());
    for v in data.as_slice() {
        hasher.write_u32(v.to_bits());
    }
    hasher.finish()
}

/// Splits encoded rows into `(train, validation)` with a deterministic
/// permutation drawn from the split stream of `seed`. Returns no validation
/// tensor when the fraction rounds to zero rows (or would leave no training
/// rows).
fn split_validation(data: &Tensor, fraction: f32, seed: u64) -> (Tensor, Option<Tensor>) {
    let n = data.rows();
    let val_rows = ((n as f64) * f64::from(fraction)).floor() as usize;
    let val_rows = val_rows.min(n.saturating_sub(1));
    if val_rows == 0 {
        return (data.clone(), None);
    }
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = nnrng::derived(seed, STREAM_SPLIT);
    indices.shuffle(&mut rng);
    let mut val_idx = indices[..val_rows].to_vec();
    let mut train_idx = indices[val_rows..].to_vec();
    val_idx.sort_unstable();
    train_idx.sort_unstable();
    (
        data.select_rows(&train_idx),
        Some(data.select_rows(&val_idx)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use passflow_passwords::{CorpusConfig, SyntheticCorpusGenerator};

    fn tiny_flow(seed: u64) -> PassFlow {
        let mut rng = nnrng::seeded(seed);
        PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap()
    }

    fn tiny_corpus(n: usize) -> Vec<String> {
        SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(n))
            .generate(31)
            .into_passwords()
    }

    #[test]
    fn micro_ranges_cover_exactly_once() {
        assert_eq!(micro_ranges(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(micro_ranges(4, 4), vec![(0, 4)]);
        assert_eq!(micro_ranges(3, 8), vec![(0, 3)]);
        assert_eq!(micro_ranges(0, 4), Vec::<(usize, usize)>::new());
    }

    #[test]
    fn micro_grads_sum_to_the_full_batch_gradient() {
        let flow = tiny_flow(3);
        let x = flow.encode_batch(&tiny_corpus(64)).unwrap();

        // Reference: one tape over the whole batch.
        let (full_loss, full_grads) = flow.nll_grad_sum(&x);

        // Micro-batched: merge in order, compare within numerical tolerance
        // (the summation tree differs, so this is approximate equality; the
        // bit-exactness guarantee is across *worker counts*, not against
        // the monolithic tape).
        let outputs = compute_micro_grads(&flow, &x, 16, 1);
        let mut merged = GradBatch::new();
        let mut loss = 0.0f32;
        for (l, g) in &outputs {
            loss += l;
            merged.merge(g);
        }
        assert!((loss - full_loss).abs() / full_loss.abs() < 1e-4);
        for p in flow.parameters() {
            let a = full_grads.get(&p).unwrap();
            let b = merged.get(&p).unwrap();
            let scale = 1.0 + a.abs().max();
            assert!(
                a.sub(b).abs().max() / scale < 1e-3,
                "gradient mismatch for {}",
                p.name()
            );
        }
    }

    #[test]
    fn micro_grads_are_worker_count_invariant_bitwise() {
        let flow = tiny_flow(4);
        let x = flow.encode_batch(&tiny_corpus(96)).unwrap();
        let reference = compute_micro_grads(&flow, &x, 16, 1);
        for workers in [2, 3, 4, 8] {
            let parallel = compute_micro_grads(&flow, &x, 16, workers);
            assert_eq!(reference.len(), parallel.len());
            for ((l1, g1), (l2, g2)) in reference.iter().zip(parallel.iter()) {
                assert_eq!(l1.to_bits(), l2.to_bits(), "workers={workers}");
                for p in flow.parameters() {
                    let a = g1.get(&p).unwrap();
                    let b = g2.get(&p).unwrap();
                    assert_eq!(a.as_slice(), b.as_slice(), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn dequantize_in_place_preserves_decoding() {
        let flow = tiny_flow(8);
        let passwords = vec!["jessica1".to_string(), "dragon99".to_string()];
        let x = flow.encode_batch(&passwords).unwrap();
        let mut noisy = x.clone();
        let mut rng = nnrng::seeded(9);
        dequantize_in_place(
            &mut noisy,
            flow.encoder().quantization_step() * 0.99,
            &mut rng,
        );
        assert_ne!(noisy, x);
        assert_eq!(flow.decode_batch(&noisy), passwords);
        let mut clean = x.clone();
        dequantize_in_place(&mut clean, 0.0, &mut rng);
        assert_eq!(clean, x);
    }

    #[test]
    fn validation_split_is_deterministic_and_disjoint() {
        let flow = tiny_flow(10);
        let x = flow.encode_batch(&tiny_corpus(100)).unwrap();
        let (t1, v1) = split_validation(&x, 0.2, 7);
        let (t2, v2) = split_validation(&x, 0.2, 7);
        assert_eq!(t1, t2);
        assert_eq!(v1, v2);
        let v1 = v1.unwrap();
        assert_eq!(t1.rows() + v1.rows(), x.rows());
        assert!(v1.rows() > 0);
        // Zero fraction: everything is training data.
        let (t, v) = split_validation(&x, 0.0, 7);
        assert_eq!(t.rows(), x.rows());
        assert!(v.is_none());
    }
}
