//! The [`Attack`] builder and the [`AttackEngine`] executing it.

use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};

use serde::{Deserialize, Serialize};

use passflow_nn::rng as nnrng;
use passflow_nn::{Tensor, ThreadPool};
use rand::RngCore;

use passflow_store::{GuessArchiveWriter, GuessConfig};

use crate::error::{FlowError, Result};
use crate::prior::{GaussianMixturePrior, StandardGaussianPrior};
use crate::sample::{GaussianSmoothing, GuessingStrategy, MatchedLatents};

use super::checkpoint::{self, CheckpointState};
use super::guesser::{
    GuessSession, Guesser, LatentGuesser, LatentSession, StatelessLatentSession, StatelessSession,
};
use super::sharded::ShardedSet;

/// The streaming checkpoint callback an [`Attack`] can register.
type Observer<'a> = Box<dyn FnMut(&CheckpointReport) + 'a>;

/// Guessing statistics at a given budget.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckpointReport {
    /// Number of guesses generated so far.
    pub guesses: u64,
    /// Number of distinct guesses generated so far (Table III "Unique").
    pub unique: u64,
    /// Number of distinct test-set passwords matched so far
    /// (Table III "Matched").
    pub matched: u64,
    /// Matched passwords as a percentage of the test set (Table II).
    pub matched_percent: f64,
}

/// The outcome of a full guessing attack.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// Strategy label (e.g. "PassFlow-Dynamic+GS").
    pub strategy: String,
    /// Reports at each requested checkpoint (ascending budget). The last
    /// entry corresponds to the full budget.
    pub checkpoints: Vec<CheckpointReport>,
    /// The matched test-set passwords, in match order.
    pub matched_passwords: Vec<String>,
    /// A sample of generated guesses that did not match (Table IV).
    pub nonmatched_samples: Vec<String>,
}

impl AttackOutcome {
    /// The report at the full budget.
    ///
    /// # Panics
    ///
    /// Panics if the outcome contains no checkpoints (cannot happen for
    /// outcomes produced by the engine with a positive budget).
    pub fn final_report(&self) -> &CheckpointReport {
        self.checkpoints.last().expect("at least one checkpoint")
    }

    /// The report at the given budget, if that budget was a checkpoint.
    ///
    /// Budgets beyond the final report resolve to the final entry: requested
    /// checkpoints past the attack budget are clamped to the budget when the
    /// attack is planned (see [`Attack::checkpoints`]), so the final report
    /// *is* the answer for any `guesses >= budget`.
    pub fn at_budget(&self, guesses: u64) -> Option<&CheckpointReport> {
        self.checkpoints
            .iter()
            .find(|c| c.guesses == guesses)
            .or_else(|| {
                self.checkpoints
                    .last()
                    .filter(|last| guesses > last.guesses)
            })
    }
}

/// Builder for a guessing attack against a set of target passwords.
///
/// One `Attack` drives *every* guessing experiment in the reproduction: the
/// flow under any of the paper's three strategies (through
/// [`LatentGuesser`]) and the baselines (through plain [`Guesser`]).
///
/// ```rust,no_run
/// # use std::collections::HashSet;
/// # use passflow_core::{Attack, GuessingStrategy, PassFlow, FlowConfig};
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// # let guesser = PassFlow::new(FlowConfig::tiny(), &mut rng)?;
/// # let targets: HashSet<String> = HashSet::new();
/// let outcome = Attack::new(&targets)
///     .budget(10_000_000)
///     .checkpoints(vec![10_000, 100_000, 1_000_000])
///     .strategy(GuessingStrategy::paper_default(10_000_000))
///     .observer(|report| println!("{report:?}"))
///     .shards(8)
///     .run(&guesser)?;
/// # Ok::<(), passflow_core::FlowError>(())
/// ```
pub struct Attack<'a> {
    targets: &'a HashSet<String>,
    budget: u64,
    batch_size: usize,
    strategy: GuessingStrategy,
    checkpoints: Vec<u64>,
    seed: u64,
    shards: usize,
    sync_every: usize,
    nonmatched_sample_size: usize,
    observer: Option<Observer<'a>>,
    checkpoint_every: u64,
    checkpoint_path: Option<PathBuf>,
    resume_from: Option<PathBuf>,
    halt_after: Option<u64>,
    archive_path: Option<PathBuf>,
}

impl<'a> Attack<'a> {
    /// Starts building an attack against `targets` (the cleaned, unique
    /// test set Ω; match percentages are relative to `targets.len()`).
    ///
    /// Defaults: a 10 000-guess budget, batches of 1 024, static sampling,
    /// no intermediate checkpoints, seed 0, one shard, per-batch dynamic
    /// feedback, and up to 40 retained non-matched samples.
    pub fn new(targets: &'a HashSet<String>) -> Self {
        Attack {
            targets,
            budget: 10_000,
            batch_size: 1_024,
            strategy: GuessingStrategy::Static,
            checkpoints: Vec::new(),
            seed: 0,
            shards: 1,
            sync_every: 1,
            nonmatched_sample_size: 40,
            observer: None,
            checkpoint_every: 0,
            checkpoint_path: None,
            resume_from: None,
            halt_after: None,
            archive_path: None,
        }
    }

    /// Sets the total number of guesses to generate.
    #[must_use]
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Sets how many guesses are generated per batch (one work chunk).
    #[must_use]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Sets the generation strategy (static / dynamic / dynamic + GS).
    #[must_use]
    pub fn strategy(mut self, strategy: GuessingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the intermediate budgets at which a [`CheckpointReport`] is
    /// emitted. They are sorted and deduplicated; checkpoints beyond the
    /// budget are clamped to the final-budget report (so asking for a
    /// report "at 10⁹" of a 10⁶-guess attack answers with the final
    /// state instead of silently vanishing), and the final budget is
    /// always reported whether listed here or not.
    #[must_use]
    pub fn checkpoints(mut self, checkpoints: Vec<u64>) -> Self {
        self.checkpoints = checkpoints;
        self
    }

    /// Sets the RNG seed. Results are a pure function of the seed and the
    /// attack parameters — never of the shard count.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how many worker threads generate guesses in parallel.
    ///
    /// Sharding is a *throughput* knob: every chunk of work draws from its
    /// own deterministic RNG stream keyed by the chunk index, so
    /// `shards(1)` and `shards(8)` produce byte-identical reports for the
    /// same seed. A static attack's chunks run one per worker. A Dynamic
    /// strategy (with or without smoothing) runs its chunks in order: the
    /// shards invert each chunk in row blocks while the calling thread
    /// decodes and smooths the finished blocks.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        // Repo-wide thread discipline: clamp to the host (results are
        // shard-count invariant, so this only affects throughput).
        self.shards = passflow_nn::clamp_threads(shards);
        self
    }

    /// Sets how many chunks are generated between dynamic-feedback
    /// synchronizations (default 1, the per-batch cadence of Algorithm 1).
    ///
    /// Dynamic Sampling conditions the prior on the matches found so far,
    /// so each wave's chunks sample from the prior built at the previous
    /// wave's fold. Raising `sync_every` lets that many chunks share one
    /// snapshot of the matched set, trading feedback freshness for fewer
    /// prior rebuilds; each chunk's flow inverse spreads over the shards as
    /// row blocks at any value. The value changes the trajectory (like
    /// changing the batch size does) but, for a fixed value, results remain
    /// shard-count-invariant. Static strategies ignore this.
    #[must_use]
    pub fn sync_every(mut self, chunks: usize) -> Self {
        self.sync_every = chunks.max(1);
        self
    }

    /// Sets how many non-matched guesses to keep for qualitative analysis
    /// (Table IV).
    #[must_use]
    pub fn nonmatched_samples(mut self, n: usize) -> Self {
        self.nonmatched_sample_size = n;
        self
    }

    /// Registers a callback invoked with every [`CheckpointReport`] as soon
    /// as it is produced, so long attacks stream progress instead of
    /// materializing everything at the end.
    ///
    /// On a resumed attack the observer only sees reports produced by the
    /// resuming process; reports emitted before the checkpoint was written
    /// are restored into the outcome but not replayed through the callback.
    #[must_use]
    pub fn observer<F: FnMut(&CheckpointReport) + 'a>(mut self, observer: F) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Enables periodic `PFATTACK v1` checkpointing: whenever roughly `n`
    /// more guesses have been generated (snapped to the next wave
    /// boundary), the engine persists its full state to the
    /// [`checkpoint_to`](Attack::checkpoint_to) path. `0` (the default)
    /// disables the cadence; a final checkpoint is still written on
    /// completion whenever a checkpoint path is set.
    #[must_use]
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Sets the path checkpoints are written to (atomically, via a `.tmp`
    /// sibling — a killed writer never leaves a torn checkpoint behind).
    #[must_use]
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Resumes from a `PFATTACK v1` checkpoint written by an earlier run.
    ///
    /// Every configuration knob is validated against the checkpoint on
    /// load — budget, batch size, seed, strategy, sync cadence, checkpoint
    /// budgets, the target set (count + digest), the guesser name and (when
    /// available) its weight digest. Any divergence is a typed
    /// [`FlowError::CheckpointMismatch`], because resuming with different
    /// knobs would silently change the results. The shard count is *not*
    /// validated: results are shard-count invariant, so a 2-shard run may
    /// resume an 8-shard checkpoint.
    ///
    /// The contract: an attack killed at any checkpoint and resumed
    /// produces the byte-identical [`AttackOutcome`] (and `PFGUESS`
    /// archive) of an uninterrupted run.
    #[must_use]
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Halts the attack at the first wave boundary after `n` guesses have
    /// been generated, writes a checkpoint (when
    /// [`checkpoint_to`](Attack::checkpoint_to) is set) and returns the
    /// partial outcome. The kill→resume test hook: `halt_after` then
    /// [`resume`](Attack::resume) must reproduce an uninterrupted run
    /// exactly.
    #[must_use]
    pub fn halt_after(mut self, n: u64) -> Self {
        self.halt_after = Some(n);
        self
    }

    /// On completion, writes every distinct guess the attack generated —
    /// with its emission count — as a `PFGUESS v1` sorted guess archive at
    /// `path`. The archive is a pure function of the final guess multiset,
    /// so interrupted-and-resumed attacks and shard merges reproduce it
    /// byte-for-byte. Halted (partial) runs skip the archive.
    #[must_use]
    pub fn archive_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.archive_path = Some(path.into());
        self
    }

    /// Runs the attack against `guesser`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::LatentAccessRequired`] if the strategy needs
    /// dynamic sampling or smoothing but the guesser has no latent space
    /// ([`Guesser::as_latent`] returns `None`);
    /// [`FlowError::AttackPersistence`] if a checkpoint or archive could
    /// not be written, or a resumed checkpoint is corrupt; and
    /// [`FlowError::CheckpointMismatch`] if a resumed checkpoint was
    /// written under different attack knobs.
    pub fn run(self, guesser: &dyn Guesser) -> Result<AttackOutcome> {
        let engine = AttackEngine::plan(&self);
        engine.execute(self, guesser)
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// A unit of generation work: `len` guesses at stream `index`.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    /// Global chunk index — the RNG stream key.
    index: u64,
    /// Number of guesses this chunk contributes.
    len: usize,
}

/// What one chunk produced, to be folded into the attack state in chunk
/// order.
struct ChunkOutput {
    guesses: Vec<String>,
    /// `(position-in-chunk, latent-row)` for guesses that hit the target
    /// set, recorded only when the strategy tracks matched latents.
    matched_latents: Vec<(usize, Vec<f32>)>,
}

/// The prior snapshot chunks sample from during one epoch.
enum PriorSnapshot {
    Standard(StandardGaussianPrior),
    Mixture(GaussianMixturePrior),
}

impl PriorSnapshot {
    /// Samples into a reused buffer; RNG consumption matches
    /// [`Prior::sample`] exactly, so buffer reuse never changes results.
    fn sample_into(&self, n: usize, rng: &mut dyn RngCore, out: &mut Tensor) {
        match self {
            PriorSnapshot::Standard(prior) => prior.sample_into(n, rng, out),
            PriorSnapshot::Mixture(prior) => prior.sample_into(n, rng, out),
        }
    }
}

/// Per-worker state kept alive across chunks and epochs: the guesser's
/// generation session (cached weight snapshot + scratch workspace) and the
/// latent/feature buffers that a latent chunk's row blocks are written
/// into. After the first chunk warms these up,
/// steady-state generation allocates nothing inside the flow; the guess
/// strings and the fan-out's own bookkeeping still allocate.
struct WorkerCtx<'g> {
    plain: Option<Box<dyn GuessSession + 'g>>,
    latent: Option<Box<dyn LatentSession + 'g>>,
    z: Tensor,
    x: Tensor,
}

impl WorkerCtx<'_> {
    fn new() -> Self {
        WorkerCtx {
            plain: None,
            latent: None,
            z: Tensor::default(),
            x: Tensor::default(),
        }
    }
}

/// The resolved execution plan behind [`Attack::run`]: normalized
/// checkpoints and the budget's partition into deterministic work chunks.
///
/// Chunks are cut at every checkpoint boundary, so reports land on the exact
/// budgets the paper uses, and each chunk draws from an RNG stream derived
/// from `(seed, chunk index)` — the foundation of shard-count invariance.
pub struct AttackEngine {
    checkpoints: Vec<u64>,
    chunks: Vec<Chunk>,
    shards: usize,
    sync_every: usize,
}

impl AttackEngine {
    fn plan(attack: &Attack<'_>) -> AttackEngine {
        // Requested checkpoints past the budget are clamped to the budget
        // (deduplicating into the always-present final report) rather than
        // dropped, so `AttackOutcome::at_budget` can answer for them.
        let mut checkpoints: Vec<u64> = attack
            .checkpoints
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .map(|c| c.min(attack.budget))
            .filter(|&c| c > 0)
            .collect();
        if attack.budget > 0 && !checkpoints.contains(&attack.budget) {
            checkpoints.push(attack.budget);
        }
        checkpoints.sort_unstable();
        checkpoints.dedup();

        // Partition [0, budget) into chunks of at most `batch_size`,
        // cutting at checkpoint boundaries.
        let mut chunks = Vec::new();
        let mut start = 0u64;
        let mut next_cp = 0usize;
        while start < attack.budget {
            while next_cp < checkpoints.len() && checkpoints[next_cp] <= start {
                next_cp += 1;
            }
            let limit = if next_cp < checkpoints.len() {
                checkpoints[next_cp]
            } else {
                attack.budget
            };
            let len = (attack.batch_size as u64).min(limit - start) as usize;
            chunks.push(Chunk {
                index: chunks.len() as u64,
                len,
            });
            start += len as u64;
        }

        AttackEngine {
            checkpoints,
            chunks,
            shards: attack.shards,
            sync_every: attack.sync_every,
        }
    }

    /// Number of work chunks the budget was partitioned into.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The normalized checkpoint budgets (ascending, final budget last).
    pub fn checkpoints(&self) -> &[u64] {
        &self.checkpoints
    }

    fn execute(self, mut attack: Attack<'_>, guesser: &dyn Guesser) -> Result<AttackOutcome> {
        let dynamic = attack.strategy.dynamic_params().copied();
        let smoothing = attack.strategy.smoothing().copied();
        let latent = if dynamic.is_some() || smoothing.is_some() {
            match guesser.as_latent() {
                Some(latent) => Some(latent),
                None => {
                    return Err(FlowError::LatentAccessRequired {
                        strategy: attack.strategy.label().to_string(),
                        guesser: guesser.name().to_string(),
                    })
                }
            }
        } else {
            None
        };
        // The digest only guards checkpoints against resuming on other
        // weights, so a run that neither writes nor reads one skips it.
        let guesser_digest = if attack.checkpoint_path.is_some() || attack.resume_from.is_some() {
            guesser.state_digest()
        } else {
            None
        };
        let latent_dim = latent.map_or(0u32, |lg| lg.latent_dim() as u32);

        let mut state = ReduceState {
            targets: attack.targets,
            generated: ShardedSet::new(),
            matched_in_order: Vec::new(),
            matched_latents: MatchedLatents::new(),
            nonmatched_samples: Vec::new(),
            nonmatched_cap: attack.nonmatched_sample_size,
            track_latents: dynamic.is_some(),
            guesses_made: 0,
            reports: Vec::with_capacity(self.checkpoints.len()),
            next_checkpoint: 0,
        };

        // The resume cursor: chunks [0, chunks_done) are already folded.
        // Each chunk draws from its own RNG stream keyed by the chunk
        // index, so `chunks_done` fully captures the RNG position.
        let mut chunks_done = 0usize;
        if let Some(path) = attack.resume_from.take() {
            chunks_done =
                self.restore(&mut state, &attack, guesser, guesser_digest, latent, &path)?;
        }

        // Without dynamic feedback every chunk is independent, but waves
        // are still bounded so checkpoints land at a useful cadence; fold
        // order equals chunk order either way, so the wave size never
        // changes results. With feedback, `sync_every` chunks share a
        // prior snapshot — the wave size *is* the algorithm's cadence, and
        // checkpoints only ever land on its boundaries.
        let epoch_len = if dynamic.is_some() {
            self.sync_every.max(1)
        } else {
            64.max(self.shards)
        };

        // Next multiple of the cadence strictly past `made` (never fires
        // when the cadence is disabled: 0 divides to None).
        let every = attack.checkpoint_every;
        let next_due_after = |made: u64| {
            made.checked_div(every)
                .map_or(u64::MAX, |q| (q + 1) * every)
        };
        let mut next_due = next_due_after(state.guesses_made);
        let total = self.chunks.len();
        let mut halted = false;
        // The cursor of the last checkpoint this run wrote, so completion
        // does not rewrite one the last wave's cadence already saved.
        let mut saved_at = None;

        // One pool thread and one context per shard, kept warm across
        // epochs. Sessions are started lazily inside whichever thread ends
        // up owning the context.
        let pool = ThreadPool::new(self.shards);
        let mut worker_ctxs: Vec<WorkerCtx<'_>> =
            (0..pool.threads()).map(|_| WorkerCtx::new()).collect();
        // The latent and feature buffers of the latent chunks, which run on
        // this thread while the worker contexts invert row blocks.
        let (mut wave_z, mut wave_x) = (Tensor::default(), Tensor::default());

        let mut dynamic_params = dynamic;
        while chunks_done < total {
            let wave_end = total.min(chunks_done + epoch_len);
            let epoch = &self.chunks[chunks_done..wave_end];
            // Build the epoch's prior snapshot from the matches so far.
            let prior = match (latent, dynamic_params.as_mut()) {
                (Some(lg), Some(params)) => match state.matched_latents.build_prior(params) {
                    Some(mixture) => Some(PriorSnapshot::Mixture(mixture)),
                    None => Some(PriorSnapshot::Standard(StandardGaussianPrior::new(
                        lg.latent_dim(),
                    ))),
                },
                (Some(lg), None) => Some(PriorSnapshot::Standard(StandardGaussianPrior::new(
                    lg.latent_dim(),
                ))),
                (None, _) => None,
            };

            let outputs = match (latent, prior.as_ref()) {
                // Dynamic chunks run in order on this thread, and only each
                // chunk's flow inverse fans out, as row blocks over every
                // context. A wave is one chunk at the default cadence, so
                // this keeps every worker busy where one chunk per worker
                // would not.
                (Some(lg), Some(prior)) => epoch
                    .iter()
                    .map(|chunk| {
                        generate_latent_chunk(
                            &pool,
                            lg,
                            &mut worker_ctxs,
                            &mut wave_z,
                            &mut wave_x,
                            chunk,
                            prior,
                            smoothing.as_ref(),
                            &state.generated,
                            attack.targets,
                            state.track_latents,
                            &mut nnrng::derived(attack.seed, chunk.index),
                        )
                    })
                    .collect(),
                // Plain chunks are claimed dynamically by `shards` workers
                // and folded back in chunk order, so the schedule never
                // shows in results.
                _ => pool.fan_out(epoch.len(), &mut worker_ctxs, |i, ctx| {
                    let chunk = &epoch[i];
                    let session = ctx.plain.get_or_insert_with(|| {
                        guesser
                            .start_session()
                            .unwrap_or_else(|| Box::new(StatelessSession(guesser)))
                    });
                    ChunkOutput {
                        guesses: session.generate_batch(
                            chunk.len,
                            &mut nnrng::derived(attack.seed, chunk.index),
                        ),
                        matched_latents: Vec::new(),
                    }
                }),
            };

            for output in outputs {
                state.fold_chunk(output, &self.checkpoints, attack.observer.as_deref_mut());
            }
            chunks_done = wave_end;

            halted =
                attack.halt_after.is_some_and(|h| state.guesses_made >= h) && chunks_done < total;
            if halted || state.guesses_made >= next_due {
                if let Some(path) = attack.checkpoint_path.as_deref() {
                    let snapshot = self.snapshot_state(
                        &attack,
                        &state,
                        guesser,
                        guesser_digest,
                        latent_dim,
                        chunks_done,
                    );
                    checkpoint::save(&snapshot, path)?;
                    saved_at = Some(chunks_done);
                }
                next_due = next_due_after(state.guesses_made);
            }
            if halted {
                break;
            }
        }

        if !halted {
            // Completion: persist the final state (so resuming a finished
            // checkpoint reproduces the outcome), unless the last wave's
            // cadence just wrote these same bytes, and the guess archive.
            if let Some(path) = attack
                .checkpoint_path
                .as_deref()
                .filter(|_| saved_at != Some(chunks_done))
            {
                let snapshot = self.snapshot_state(
                    &attack,
                    &state,
                    guesser,
                    guesser_digest,
                    latent_dim,
                    chunks_done,
                );
                checkpoint::save(&snapshot, path)?;
            }
            if let Some(path) = attack.archive_path.as_deref() {
                write_guess_archive(&state.generated, path)?;
            }
        }

        // A zero budget still reports nothing — mirror the historical
        // behavior of an empty checkpoint list.
        Ok(AttackOutcome {
            strategy: attack.strategy.label_for(guesser.name()),
            checkpoints: state.reports,
            matched_passwords: state.matched_in_order,
            nonmatched_samples: state.nonmatched_samples,
        })
    }

    /// Captures everything `PFATTACK v1` persists at a wave boundary.
    fn snapshot_state(
        &self,
        attack: &Attack<'_>,
        state: &ReduceState<'_>,
        guesser: &dyn Guesser,
        guesser_digest: Option<u64>,
        latent_dim: u32,
        chunks_done: usize,
    ) -> CheckpointState {
        let mut generated: Vec<(Vec<u8>, u64)> = state
            .generated
            .iter_counted()
            .map(|(guess, count)| (guess.as_bytes().to_vec(), count))
            .collect();
        generated.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        CheckpointState {
            budget: attack.budget,
            batch_size: attack.batch_size as u64,
            seed: attack.seed,
            sync_every: attack.sync_every as u64,
            nonmatched_cap: attack.nonmatched_sample_size as u64,
            strategy: attack.strategy.clone(),
            checkpoints: self.checkpoints.clone(),
            target_count: attack.targets.len() as u64,
            target_digest: checkpoint::target_set_digest(attack.targets.iter()),
            guesser_name: guesser.name().to_string(),
            guesser_digest,
            chunks_done: chunks_done as u64,
            guesses_made: state.guesses_made,
            next_checkpoint: state.next_checkpoint as u64,
            reports: state.reports.clone(),
            matched_passwords: state.matched_in_order.clone(),
            nonmatched_samples: state.nonmatched_samples.clone(),
            latent_dim,
            matched_points: state.matched_latents.points().to_vec(),
            matched_usage: state.matched_latents.usage_counts().to_vec(),
            generated,
        }
    }

    /// Loads a checkpoint, validates it knob-by-knob against this plan, and
    /// restores the reduce state; returns the resume cursor (`chunks_done`).
    fn restore(
        &self,
        state: &mut ReduceState<'_>,
        attack: &Attack<'_>,
        guesser: &dyn Guesser,
        guesser_digest: Option<u64>,
        latent: Option<&dyn LatentGuesser>,
        path: &Path,
    ) -> Result<usize> {
        let cp = checkpoint::load(path)?;

        ensure_knob("budget", cp.budget, attack.budget)?;
        ensure_knob("batch_size", cp.batch_size, attack.batch_size as u64)?;
        ensure_knob("seed", cp.seed, attack.seed)?;
        ensure_knob("sync_every", cp.sync_every, attack.sync_every as u64)?;
        ensure_knob(
            "nonmatched_samples",
            cp.nonmatched_cap,
            attack.nonmatched_sample_size as u64,
        )?;
        if cp.strategy != attack.strategy {
            return Err(FlowError::CheckpointMismatch {
                field: "strategy".to_string(),
                checkpoint: format!("{:?}", cp.strategy),
                requested: format!("{:?}", attack.strategy),
            });
        }
        if cp.checkpoints != self.checkpoints {
            return Err(FlowError::CheckpointMismatch {
                field: "checkpoints".to_string(),
                checkpoint: format!("{:?}", cp.checkpoints),
                requested: format!("{:?}", self.checkpoints),
            });
        }
        ensure_knob("target count", cp.target_count, attack.targets.len() as u64)?;
        ensure_knob(
            "target digest",
            cp.target_digest,
            checkpoint::target_set_digest(attack.targets.iter()),
        )?;
        ensure_knob("guesser", cp.guesser_name.as_str(), guesser.name())?;
        if let (Some(stored), Some(current)) = (cp.guesser_digest, guesser_digest) {
            ensure_knob("guesser digest", stored, current)?;
        }
        if let Some(lg) = latent {
            ensure_knob(
                "latent dim",
                u64::from(cp.latent_dim),
                lg.latent_dim() as u64,
            )?;
        }

        // Internal-consistency checks: these can only fail on a corrupt (or
        // hand-edited) file, never on a knob mismatch.
        let corrupt = |msg: String| Err(FlowError::AttackPersistence(msg));
        let chunks_done = cp.chunks_done as usize;
        if chunks_done > self.chunks.len() {
            return corrupt(format!(
                "checkpoint claims {chunks_done} chunks done of {}",
                self.chunks.len()
            ));
        }
        let expected_guesses: u64 = self.chunks[..chunks_done]
            .iter()
            .map(|c| c.len as u64)
            .sum();
        if cp.guesses_made != expected_guesses {
            return corrupt(format!(
                "checkpoint guess count {} disagrees with its chunk cursor ({expected_guesses})",
                cp.guesses_made
            ));
        }
        if cp.reports.len() != cp.next_checkpoint as usize
            || cp.reports.len() > self.checkpoints.len()
        {
            return corrupt("checkpoint report list disagrees with its cursor".to_string());
        }
        if attack.strategy.dynamic_params().is_some()
            && !chunks_done.is_multiple_of(self.sync_every.max(1))
            && chunks_done != self.chunks.len()
        {
            return corrupt(format!(
                "checkpoint cursor {chunks_done} is not aligned to sync_every={}",
                self.sync_every
            ));
        }
        if cp
            .matched_points
            .iter()
            .any(|p| p.len() != cp.latent_dim as usize)
        {
            return corrupt("matched latent points disagree with the stored dim".to_string());
        }

        state.guesses_made = cp.guesses_made;
        state.next_checkpoint = cp.next_checkpoint as usize;
        state.reports = cp.reports;
        state.matched_in_order = cp.matched_passwords;
        state.nonmatched_samples = cp.nonmatched_samples;
        state.matched_latents = MatchedLatents::from_parts(cp.matched_points, cp.matched_usage);
        for (guess, count) in cp.generated {
            let guess = String::from_utf8(guess).map_err(|_| {
                FlowError::AttackPersistence("dedup set contains invalid UTF-8".to_string())
            })?;
            state.generated.insert_with_count(guess, count);
        }
        Ok(chunks_done)
    }
}

/// One knob compared between a checkpoint and a resuming attack.
fn ensure_knob<T: PartialEq + std::fmt::Display>(
    field: &str,
    checkpoint: T,
    requested: T,
) -> Result<()> {
    if checkpoint != requested {
        return Err(FlowError::CheckpointMismatch {
            field: field.to_string(),
            checkpoint: checkpoint.to_string(),
            requested: requested.to_string(),
        });
    }
    Ok(())
}

/// Writes the attack's dedup'd guess multiset as a `PFGUESS v1` archive —
/// a pure function of the multiset, so any interrupted/resumed/merged path
/// to the same final state produces byte-identical files.
fn write_guess_archive(generated: &ShardedSet, path: &Path) -> Result<()> {
    let archive_err =
        |e: passflow_store::StoreError| FlowError::AttackPersistence(format!("{path:?}: {e}"));
    let mut records: Vec<(&String, u64)> = generated.iter_counted().collect();
    records.sort_unstable_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
    let mut writer =
        GuessArchiveWriter::create(path, GuessConfig::default()).map_err(archive_err)?;
    for (guess, count) in records {
        writer.push(guess, count).map_err(archive_err)?;
    }
    writer.finish().map_err(archive_err)?;
    Ok(())
}

/// A context's latent session, started on first use.
fn latent_session<'s, 'g>(
    slot: &'s mut Option<Box<dyn LatentSession + 'g>>,
    lg: &'g dyn LatentGuesser,
) -> &'s mut (dyn LatentSession + 'g) {
    slot.get_or_insert_with(|| {
        lg.start_latent_session()
            .unwrap_or_else(|| Box::new(StatelessLatentSession(lg)))
    })
    .as_mut()
}

/// Rows per block of a latent chunk's inverse: small enough that the calling
/// thread's decode and smoothing of one block overlaps the other contexts'
/// inversion of the next, large enough that every block's GEMMs still run
/// on full row tiles. On the 2-vCPU `guess` set-up, pairs of runs at 64,
/// 128, 256 and 512 rows were within noise of each other, and 128 had the
/// highest mean.
const INVERSE_BLOCK_ROWS: usize = 128;

/// The block height [`invert_in_row_order`] uses for `rows` rows over
/// `contexts` contexts: [`INVERSE_BLOCK_ROWS`], or less when the chunk is
/// too short to give every context a block of that size, so that a short
/// chunk is still inverted on every context.
fn inverse_block_rows(rows: usize, contexts: usize) -> usize {
    INVERSE_BLOCK_ROWS.min(rows.div_ceil(contexts)).max(1)
}

/// Inverts a latent chunk's `z` into `x` in blocks of
/// [`inverse_block_rows`] rows and hands each block to `consume` on the
/// calling thread, in row order, as soon as it is ready, with the index of
/// its first row.
///
/// Every context but the first, up to one per block after the first, is a
/// helper block of `pool`: the pool thread that takes it up claims the next
/// unclaimed block and inverts it through that context's own session. The
/// calling thread consumes ready blocks in order, and inverts the next
/// unclaimed block itself (through the first context) whenever the block it
/// needs is not ready yet. So decode and smoothing run while the other
/// contexts invert, and `consume` still sees the rows in order and may draw
/// from one sequential RNG stream. Row `i` of a [`LatentSession`]'s output
/// depends only on row `i` of its input, so the result is bit-identical to
/// one whole-batch inverse, whatever the block size or the context that
/// inverted a block. A panic in a helper is re-raised here with its
/// original payload.
fn invert_in_row_order<'g>(
    pool: &ThreadPool,
    lg: &'g dyn LatentGuesser,
    ctxs: &mut [WorkerCtx<'g>],
    z: &Tensor,
    x: &mut Tensor,
    mut consume: impl FnMut(usize, &mut [f32]),
) {
    let (rows, cols) = z.shape();
    let block_rows = inverse_block_rows(rows, ctxs.len());
    x.resize(rows, cols);
    let blocks = rows.div_ceil(block_rows);
    let unclaimed = Mutex::new(x.as_mut_slice().chunks_mut(block_rows * cols).enumerate());
    let claim = || unclaimed.lock().expect("no claim panics").next();
    let invert = |ctx: &mut WorkerCtx<'g>, b: usize, out: &mut [f32]| {
        let lo = b * block_rows;
        let hi = rows.min(lo + block_rows);
        ctx.z.resize(hi - lo, cols);
        ctx.z
            .as_mut_slice()
            .copy_from_slice(&z.as_slice()[lo * cols..hi * cols]);
        latent_session(&mut ctx.latent, lg).latents_to_features_into(&ctx.z, &mut ctx.x);
        assert_eq!(
            ctx.x.shape(),
            (hi - lo, cols),
            "a latent session returns one feature row per latent row, as wide as the latent"
        );
        out.copy_from_slice(ctx.x.as_slice());
    };
    let (own, others) = ctxs.split_first_mut().expect("at least one context");
    let helpers = others.len().min(blocks.saturating_sub(1));
    let others = Mutex::new(others.iter_mut());
    // A helper reports every block it claimed, inverted or with the panic
    // that cut its inverse short: the pool thread running it outlives this
    // call, so nothing else would wake a consumer waiting for that block.
    let (done, inverted) = mpsc::channel();
    let helper = |_: usize| {
        let ctx = others.lock().expect("no context claim panics").next();
        let ctx = ctx.expect("one context per helper");
        while let Some((b, out)) = claim() {
            let report = catch_unwind(AssertUnwindSafe(|| invert(ctx, b, &mut *out)));
            let _ = done.send(report.map(|()| (b, out)));
        }
    };
    pool.run_beside(helpers, &helper, || {
        let reported = |report: std::thread::Result<_>| report.unwrap_or_else(|p| resume_unwind(p));
        let mut ready: Vec<Option<&mut [f32]>> = (0..blocks).map(|_| None).collect();
        let mut next = 0;
        while next < blocks {
            while let Ok(report) = inverted.try_recv() {
                let (b, out) = reported(report);
                ready[b] = Some(out);
            }
            if let Some(block) = ready[next].take() {
                consume(next * block_rows, block);
                next += 1;
            } else if let Some((b, out)) = claim() {
                invert(own, b, out);
                ready[b] = Some(out);
            } else {
                let (b, out) = reported(inverted.recv().expect("the sender outlives this loop"));
                ready[b] = Some(out);
            }
        }
    });
}

/// Generates one chunk through the latent path: sample the epoch prior into
/// the latent buffer, then invert it block by block over `ctxs` into the
/// feature buffer while this thread decodes and (optionally) smooths
/// collisions away in data space, in row order.
#[allow(clippy::too_many_arguments)]
fn generate_latent_chunk<'g>(
    pool: &ThreadPool,
    lg: &'g dyn LatentGuesser,
    ctxs: &mut [WorkerCtx<'g>],
    z: &mut Tensor,
    x: &mut Tensor,
    chunk: &Chunk,
    prior: &PriorSnapshot,
    smoothing: Option<&GaussianSmoothing>,
    generated: &ShardedSet,
    targets: &HashSet<String>,
    track_latents: bool,
    rng: &mut dyn RngCore,
) -> ChunkOutput {
    prior.sample_into(chunk.len, rng, z);
    let z = &*z;

    // The chunk-local dedup view is only consulted by smoothing; skip the
    // per-guess clone + hash entirely for strategies without it.
    let mut local: Option<HashSet<String>> = smoothing.map(|_| HashSet::new());
    let mut guesses = Vec::with_capacity(chunk.len);
    let mut matched_latents = Vec::new();
    invert_in_row_order(pool, lg, ctxs, z, x, |first_row, block| {
        for (r, features) in block.chunks_exact_mut(z.cols()).enumerate() {
            let mut guess = lg.decode_features(features);

            // Data-space Gaussian smoothing: if this guess collides with one
            // already generated (in the shared snapshot or earlier in this
            // chunk), incrementally perturb the data-space point, in place
            // in the wave buffer, until it decodes to something new
            // (Section III-C).
            if let (Some(smoothing), Some(local)) = (smoothing, local.as_mut()) {
                if generated.contains(&guess) || local.contains(&guess) {
                    // The accepting attempt's decode is captured inside the
                    // predicate, so a successful perturbation costs no
                    // second decode. If every attempt is rejected, the
                    // colliding guess is kept while the buffer row holds the
                    // last rejected attempt; nothing reads the row again.
                    smoothing.perturb_until(features, rng, |candidate| {
                        let decoded = lg.decode_features(candidate);
                        let fresh = !generated.contains(&decoded) && !local.contains(&decoded);
                        if fresh {
                            guess = decoded;
                        }
                        fresh
                    });
                }
                local.insert(guess.clone());
            }

            let i = first_row + r;
            if track_latents && targets.contains(&guess) {
                matched_latents.push((i, z.row_slice(i).to_vec()));
            }
            guesses.push(guess);
        }
    });
    ChunkOutput {
        guesses,
        matched_latents,
    }
}

/// The sequential fold over chunk outputs: global dedup, match accounting,
/// matched-latent recording and checkpoint emission — always in chunk
/// order, regardless of which thread generated what.
struct ReduceState<'a> {
    targets: &'a HashSet<String>,
    generated: ShardedSet,
    matched_in_order: Vec<String>,
    matched_latents: MatchedLatents,
    nonmatched_samples: Vec<String>,
    nonmatched_cap: usize,
    track_latents: bool,
    guesses_made: u64,
    reports: Vec<CheckpointReport>,
    next_checkpoint: usize,
}

impl ReduceState<'_> {
    fn fold_chunk(
        &mut self,
        output: ChunkOutput,
        checkpoints: &[u64],
        mut observer: Option<&mut (dyn FnMut(&CheckpointReport) + '_)>,
    ) {
        let mut latents = output.matched_latents.into_iter().peekable();
        for (i, guess) in output.guesses.into_iter().enumerate() {
            self.guesses_made += 1;
            let latent = match latents.peek() {
                Some((j, _)) if *j == i => latents.next().map(|(_, z)| z),
                _ => None,
            };
            // Every guess the attack has ever produced is in `generated`,
            // and every target in `generated` was counted as a match when it
            // first appeared — so one probe classifies repeats (bumping the
            // emission count the `PFGUESS` archive persists), and the string
            // itself is *moved* into whichever set keeps it: matched guesses
            // are cloned exactly once (dedup set + match list), unmatched
            // ones not at all (beyond the ≤cap samples).
            if self.generated.increment(&guess) {
                continue;
            }
            if self.targets.contains(&guess) {
                if self.track_latents {
                    if let Some(z) = latent {
                        self.matched_latents.insert(z);
                    }
                }
                self.generated.insert(guess.clone());
                self.matched_in_order.push(guess);
            } else {
                if self.nonmatched_samples.len() < self.nonmatched_cap {
                    self.nonmatched_samples.push(guess.clone());
                }
                self.generated.insert(guess);
            }
        }

        while self.next_checkpoint < checkpoints.len()
            && self.guesses_made >= checkpoints[self.next_checkpoint]
        {
            let matched = self.matched_in_order.len();
            let report = CheckpointReport {
                guesses: checkpoints[self.next_checkpoint],
                unique: self.generated.len() as u64,
                matched: matched as u64,
                matched_percent: if self.targets.is_empty() {
                    0.0
                } else {
                    100.0 * matched as f64 / self.targets.len() as f64
                },
            };
            if let Some(observer) = observer.as_deref_mut() {
                observer(&report);
            }
            self.reports.push(report);
            self.next_checkpoint += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use crate::flow::PassFlow;
    use crate::sample::DynamicParams;

    /// A deterministic guesser cycling through a fixed list, consuming one
    /// RNG word per guess.
    struct Cycler(Vec<String>);

    impl Guesser for Cycler {
        fn name(&self) -> &str {
            "cycler"
        }
        fn generate_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
            // Rejection-sampled draw: a plain `next_u32() % len` skews
            // toward low indices whenever `len` isn't a power of two. The
            // fixture's 64 entries keep the RNG stream identical to the old
            // modulo draw, so the seeded expectations below are unchanged.
            (0..n)
                .map(|_| self.0[nnrng::uniform_index(rng, self.0.len())].clone())
                .collect()
        }
    }

    fn cycler() -> Cycler {
        Cycler(
            (0..64)
                .map(|i| format!("pw{i:03}"))
                .collect::<Vec<String>>(),
        )
    }

    fn targets() -> HashSet<String> {
        (0..16).map(|i| format!("pw{:03}", i * 4)).collect()
    }

    /// An untrained flow plus targets drawn from its own samples, so
    /// dynamic strategies actually find matches and build mixtures.
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
    fn reports_are_monotone_and_end_at_the_budget() {
        let targets = targets();
        let outcome = Attack::new(&targets)
            .budget(5_000)
            .batch_size(128)
            .checkpoints(vec![1_000, 2_500, 9_999_999, 0])
            .run(&cycler())
            .unwrap();
        assert_eq!(outcome.checkpoints.len(), 3);
        assert_eq!(outcome.checkpoints[0].guesses, 1_000);
        assert_eq!(outcome.checkpoints[1].guesses, 2_500);
        assert_eq!(outcome.final_report().guesses, 5_000);
        for pair in outcome.checkpoints.windows(2) {
            assert!(pair[1].unique >= pair[0].unique);
            assert!(pair[1].matched >= pair[0].matched);
        }
        for report in &outcome.checkpoints {
            assert!(report.unique <= report.guesses);
            assert!(report.matched as usize <= targets.len());
            assert!((0.0..=100.0).contains(&report.matched_percent));
        }
        assert_eq!(
            outcome.final_report().matched as usize,
            outcome.matched_passwords.len()
        );
    }

    #[test]
    fn at_budget_clamps_requests_beyond_the_final_report() {
        let targets = targets();
        let outcome = Attack::new(&targets)
            .budget(5_000)
            .batch_size(128)
            .checkpoints(vec![1_000, 9_999_999])
            .run(&cycler())
            .unwrap();
        assert_eq!(outcome.at_budget(1_000).unwrap().guesses, 1_000);
        // The over-budget request was clamped into the final report…
        assert_eq!(outcome.at_budget(5_000).unwrap().guesses, 5_000);
        // …and queries beyond the budget answer with the final state
        // instead of silently returning None.
        assert_eq!(outcome.at_budget(9_999_999), Some(outcome.final_report()));
        assert_eq!(outcome.at_budget(u64::MAX), Some(outcome.final_report()));
        // Budgets that were never checkpoints still answer None.
        assert_eq!(outcome.at_budget(3_000), None);
    }

    #[test]
    fn shard_count_never_changes_results_for_plain_guessers() {
        let targets = targets();
        let run = |shards: usize| {
            Attack::new(&targets)
                .budget(4_096)
                .batch_size(100)
                .checkpoints(vec![512, 2_000])
                .seed(7)
                .shards(shards)
                .run(&cycler())
                .unwrap()
        };
        let sequential = run(1);
        for shards in [2, 5, 8] {
            assert_eq!(run(shards), sequential, "shards={shards} diverged");
        }
    }

    #[test]
    fn shard_count_never_changes_results_for_latent_strategies() {
        let (flow, targets) = flow_fixture();
        let strategy = GuessingStrategy::DynamicWithSmoothing {
            params: DynamicParams::new(0, 0.1, 8),
            smoothing: GaussianSmoothing::default(),
        };
        // 128-row chunks give each of 2 shards one 64-row block; 512-row
        // chunks are cut into 128-row blocks that the shards take in turn.
        for batch in [128, 512] {
            let run = |shards: usize| {
                Attack::new(&targets)
                    .budget(1_500)
                    .batch_size(batch)
                    .checkpoints(vec![512, 1_024])
                    .strategy(strategy.clone())
                    .seed(11)
                    .shards(shards)
                    .sync_every(4)
                    .run(&flow)
                    .unwrap()
            };
            let sequential = run(1);
            assert!(
                sequential.final_report().matched > 0,
                "fixture must produce matches to exercise the dynamic path"
            );
            for shards in [2, 8] {
                assert_eq!(
                    run(shards),
                    sequential,
                    "batch={batch} shards={shards} diverged"
                );
            }
        }
    }

    #[test]
    fn row_split_inverse_is_bit_identical_to_one_whole_batch() {
        // The evaluation width (64) at two layers keeps the debug run short.
        let config = FlowConfig {
            coupling_layers: 2,
            ..FlowConfig::evaluation()
        };
        let flow = PassFlow::new(config, &mut nnrng::seeded(21)).unwrap();
        let mut whole = flow.start_latent_session().unwrap();
        let bits = |t: &Tensor| {
            (
                t.shape(),
                t.as_slice().iter().map(|v| v.to_bits()).collect(),
            )
        };
        for rows in [1usize, 5, 17, 128, 129, 1023, 1024] {
            let z = Tensor::randn(rows, flow.dim(), &mut nnrng::seeded(rows as u64));
            let mut expected = Tensor::default();
            whole.latents_to_features_into(&z, &mut expected);
            let expected: ((usize, usize), Vec<u32>) = bits(&expected);
            // One worker per context beyond the first, whatever the host,
            // so this covers 1–4 workers.
            for contexts in 1..=4 {
                let block_rows = inverse_block_rows(rows, contexts);
                let in_order: Vec<(usize, usize)> = (0..rows)
                    .step_by(block_rows)
                    .map(|lo| (lo, (rows.min(lo + block_rows) - lo) * flow.dim()))
                    .collect();
                let pool = ThreadPool::new(contexts);
                let mut ctxs: Vec<WorkerCtx<'_>> =
                    (0..contexts).map(|_| WorkerCtx::new()).collect();
                let mut x = Tensor::default();
                // Twice: the second pass runs on the warmed buffers.
                for _ in 0..2 {
                    let mut consumed = Vec::new();
                    invert_in_row_order(&pool, &flow, &mut ctxs, &z, &mut x, |first_row, block| {
                        consumed.push((first_row, block.len()));
                    });
                    assert_eq!(bits(&x), expected, "rows={rows} contexts={contexts}");
                    assert_eq!(consumed, in_order, "every block once, in row order");
                }
            }
        }
    }

    /// A dimension-preserving latent guesser whose inverse panics on any
    /// batch holding [`Tripwire::MARK`].
    struct Tripwire;

    impl Tripwire {
        const MARK: f32 = 1e9;
    }

    impl Guesser for Tripwire {
        fn name(&self) -> &str {
            "tripwire"
        }
        fn generate_batch(&self, n: usize, _rng: &mut dyn RngCore) -> Vec<String> {
            vec![String::new(); n]
        }
    }

    impl LatentGuesser for Tripwire {
        fn latent_dim(&self) -> usize {
            2
        }
        fn latents_to_features(&self, z: &Tensor) -> Tensor {
            assert!(!z.as_slice().contains(&Self::MARK), "induced failure");
            z.clone()
        }
        fn decode_features(&self, _features: &[f32]) -> String {
            String::new()
        }
    }

    #[test]
    fn a_panic_while_inverting_reaches_the_caller_with_its_payload() {
        let mut z = Tensor::zeros(1_000, 2);
        z.set(700, 1, Tripwire::MARK);
        for contexts in 1..=3 {
            let pool = ThreadPool::new(contexts);
            let mut ctxs: Vec<WorkerCtx<'_>> = (0..contexts).map(|_| WorkerCtx::new()).collect();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                invert_in_row_order(
                    &pool,
                    &Tripwire,
                    &mut ctxs,
                    &z,
                    &mut Tensor::default(),
                    |_, _| {},
                )
            }));
            let payload = result.expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"induced failure"),
                "contexts={contexts}"
            );
        }
    }

    /// A dimension-preserving latent guesser whose inverse panics on any
    /// thread but `caller`, while an inverse on `caller` first waits, up to
    /// a deadline, for that panic to start.
    struct HelperTripwire {
        caller: std::thread::ThreadId,
        helper_in: Mutex<bool>,
        arrived: std::sync::Condvar,
    }

    impl Guesser for HelperTripwire {
        fn name(&self) -> &str {
            "helper-tripwire"
        }
        fn generate_batch(&self, n: usize, _rng: &mut dyn RngCore) -> Vec<String> {
            vec![String::new(); n]
        }
    }

    impl LatentGuesser for HelperTripwire {
        fn latent_dim(&self) -> usize {
            2
        }
        fn latents_to_features(&self, z: &Tensor) -> Tensor {
            if std::thread::current().id() != self.caller {
                *self.helper_in.lock().unwrap() = true;
                self.arrived.notify_all();
                panic!("induced failure in a helper");
            }
            let helper_in = self.helper_in.lock().unwrap();
            let deadline = std::time::Duration::from_secs(10);
            drop(
                self.arrived
                    .wait_timeout_while(helper_in, deadline, |helper_in| !*helper_in),
            );
            z.clone()
        }
        fn decode_features(&self, _features: &[f32]) -> String {
            String::new()
        }
    }

    #[test]
    fn a_helpers_panic_reaches_the_caller_waiting_for_its_block() {
        // The caller inverts block 0 while the pool's worker panics on
        // block 1, so the caller then waits for a block no helper will
        // deliver. It runs on a thread of its own so a hang fails the test.
        let (sent, received) = mpsc::channel();
        std::thread::spawn(move || {
            let guesser = HelperTripwire {
                caller: std::thread::current().id(),
                helper_in: Mutex::new(false),
                arrived: std::sync::Condvar::new(),
            };
            let pool = ThreadPool::new(2);
            let mut ctxs: Vec<WorkerCtx<'_>> = (0..2).map(|_| WorkerCtx::new()).collect();
            let z = Tensor::zeros(2, 2);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                invert_in_row_order(
                    &pool,
                    &guesser,
                    &mut ctxs,
                    &z,
                    &mut Tensor::default(),
                    |_, _| {},
                )
            }));
            let payload = result.err().and_then(|p| p.downcast_ref::<&str>().copied());
            sent.send(payload).unwrap();
        });
        let payload = received
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the caller must not hang on a helper's panic");
        assert_eq!(payload, Some("induced failure in a helper"));
    }

    /// A dimension-preserving latent guesser whose inverse waits, up to a
    /// deadline, until two inverses are running at once, and records any
    /// call that waited in vain.
    #[derive(Default)]
    struct Rendezvous {
        arrived: Mutex<usize>,
        both_in: std::sync::Condvar,
        alone: std::sync::atomic::AtomicBool,
    }

    impl Guesser for Rendezvous {
        fn name(&self) -> &str {
            "rendezvous"
        }
        fn generate_batch(&self, n: usize, _rng: &mut dyn RngCore) -> Vec<String> {
            vec![String::new(); n]
        }
    }

    impl LatentGuesser for Rendezvous {
        fn latent_dim(&self) -> usize {
            2
        }
        fn latents_to_features(&self, z: &Tensor) -> Tensor {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.both_in.notify_all();
            let (_arrived, wait) = self
                .both_in
                .wait_timeout_while(arrived, std::time::Duration::from_secs(10), |n| *n < 2)
                .unwrap();
            if wait.timed_out() {
                self.alone.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            z.clone()
        }
        fn decode_features(&self, _features: &[f32]) -> String {
            String::new()
        }
    }

    #[test]
    fn two_contexts_invert_a_chunk_together_whatever_its_length() {
        // A chunk of at most `INVERSE_BLOCK_ROWS` rows is still cut into
        // one block per context, so the worker inverts one of them.
        for rows in [2, INVERSE_BLOCK_ROWS, 4 * INVERSE_BLOCK_ROWS] {
            let guesser = Rendezvous::default();
            let pool = ThreadPool::new(2);
            let mut ctxs: Vec<WorkerCtx<'_>> = (0..2).map(|_| WorkerCtx::new()).collect();
            let z = Tensor::zeros(rows, 2);
            invert_in_row_order(
                &pool,
                &guesser,
                &mut ctxs,
                &z,
                &mut Tensor::default(),
                |_, _| {},
            );
            assert!(
                !guesser.alone.load(std::sync::atomic::Ordering::Relaxed),
                "rows={rows}: an inverse ran with no other context working"
            );
        }
    }

    /// A dimension-preserving latent guesser that records the thread of
    /// every inverse. Inverses pair up: each odd-numbered one waits, up to
    /// a deadline, for the next to arrive, so a chunk's two blocks are
    /// inverted at once, on two threads. A call that waited in vain is
    /// recorded.
    #[derive(Default)]
    struct ThreadLog {
        threads: Mutex<HashSet<std::thread::ThreadId>>,
        arrived: Mutex<usize>,
        paired: std::sync::Condvar,
        alone: std::sync::atomic::AtomicBool,
    }

    impl Guesser for ThreadLog {
        fn name(&self) -> &str {
            "thread-log"
        }
        fn generate_batch(&self, n: usize, _rng: &mut dyn RngCore) -> Vec<String> {
            vec![String::new(); n]
        }
        fn as_latent(&self) -> Option<&dyn LatentGuesser> {
            Some(self)
        }
    }

    impl LatentGuesser for ThreadLog {
        fn latent_dim(&self) -> usize {
            2
        }
        fn latents_to_features(&self, z: &Tensor) -> Tensor {
            let thread = std::thread::current().id();
            self.threads.lock().unwrap().insert(thread);
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.paired.notify_all();
            let (_arrived, wait) = self
                .paired
                .wait_timeout_while(arrived, std::time::Duration::from_secs(10), |n| *n % 2 == 1)
                .unwrap();
            if wait.timed_out() {
                self.alone.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            z.clone()
        }
        fn decode_features(&self, features: &[f32]) -> String {
            format!("{:08x}{:08x}", features[0].to_bits(), features[1].to_bits())
        }
    }

    #[test]
    fn a_campaign_inverts_every_chunk_on_the_same_two_threads() {
        let guesser = ThreadLog::default();
        // 32 chunks of 64 rows: two 32-row blocks per chunk, one per shard.
        let outcome = Attack::new(&HashSet::new())
            .budget(2_048)
            .batch_size(64)
            .strategy(GuessingStrategy::DynamicWithSmoothing {
                params: DynamicParams::default(),
                smoothing: GaussianSmoothing::default(),
            })
            .shards(2)
            .sync_every(1)
            .run(&guesser)
            .unwrap();
        assert_eq!(outcome.final_report().guesses, 2_048);
        assert!(
            !guesser.alone.load(std::sync::atomic::Ordering::Relaxed),
            "an inverse ran with no other context working"
        );
        let threads = guesser.threads.into_inner().unwrap().len();
        assert!(threads <= 2, "32 chunks inverted on {threads} threads");
    }

    #[test]
    fn observer_streams_reports_incrementally() {
        let targets = targets();
        let mut streamed: Vec<CheckpointReport> = Vec::new();
        let outcome = Attack::new(&targets)
            .budget(2_000)
            .batch_size(64)
            .checkpoints(vec![500, 1_000])
            .observer(|report| streamed.push(report.clone()))
            .run(&cycler())
            .unwrap();
        assert_eq!(streamed, outcome.checkpoints);
        assert_eq!(streamed.len(), 3);
    }

    #[test]
    fn latent_strategies_reject_plain_guessers() {
        let targets = targets();
        let err = Attack::new(&targets)
            .budget(100)
            .strategy(GuessingStrategy::Dynamic(DynamicParams::default()))
            .run(&cycler())
            .unwrap_err();
        match err {
            FlowError::LatentAccessRequired { strategy, guesser } => {
                assert_eq!(strategy, "PassFlow-Dynamic");
                assert_eq!(guesser, "cycler");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn labels_follow_the_guesser_name() {
        let targets = targets();
        let outcome = Attack::new(&targets).budget(64).run(&cycler()).unwrap();
        assert_eq!(outcome.strategy, "cycler-Static");
    }

    /// Checkpoint writes `attack` makes on this thread, and its outcome.
    fn counted_saves(attack: Attack<'_>, guesser: &dyn Guesser) -> (usize, AttackOutcome) {
        let before = checkpoint::SAVES.with(std::cell::Cell::get);
        let outcome = attack.run(guesser).unwrap();
        (
            checkpoint::SAVES.with(std::cell::Cell::get) - before,
            outcome,
        )
    }

    /// Runs `attack` with a cadence whose 4 due points end at its budget:
    /// one write each, none repeated at completion. Resuming the finished
    /// campaign still persists its final state, with the same bytes.
    fn assert_one_write_per_due_point<'a>(
        path: &Path,
        attack: impl Fn() -> Attack<'a>,
        guesser: &dyn Guesser,
    ) {
        let (writes, outcome) = counted_saves(attack().checkpoint_to(path), guesser);
        assert_eq!(writes, 4);
        let bytes = std::fs::read(path).unwrap();
        let (writes, resumed) = counted_saves(attack().resume(path).checkpoint_to(path), guesser);
        assert_eq!(writes, 1);
        assert_eq!(resumed, outcome);
        assert_eq!(std::fs::read(path).unwrap(), bytes);
    }

    #[test]
    fn a_budget_aligned_cadence_writes_once_per_due_point() {
        let dir = std::env::temp_dir().join(format!("pf-cadence-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Static waves are 64 chunks, here 1 024 guesses.
        let targets = targets();
        assert_one_write_per_due_point(
            &dir.join("static.pfa"),
            || {
                Attack::new(&targets)
                    .budget(4_096)
                    .batch_size(16)
                    .checkpoint_every(1_024)
            },
            &cycler(),
        );
        // A Dynamic+GS wave is one 128-guess chunk at the default cadence.
        let (flow, targets) = flow_fixture();
        assert_one_write_per_due_point(
            &dir.join("dynamic.pfa"),
            || {
                Attack::new(&targets)
                    .budget(1_024)
                    .batch_size(128)
                    .strategy(GuessingStrategy::DynamicWithSmoothing {
                        params: DynamicParams::new(0, 0.1, 8),
                        smoothing: GaussianSmoothing::default(),
                    })
                    .shards(2)
                    .checkpoint_every(256)
            },
            &flow,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_plan_cuts_at_checkpoints() {
        let targets = targets();
        let attack = Attack::new(&targets)
            .budget(1_000)
            .batch_size(300)
            .checkpoints(vec![500, 750]);
        let engine = AttackEngine::plan(&attack);
        assert_eq!(engine.checkpoints(), &[500, 750, 1_000]);
        // 300 + 200 | 250 | 250 — no chunk crosses a checkpoint.
        let lens: Vec<usize> = engine.chunks.iter().map(|c| c.len).collect();
        assert_eq!(lens.iter().sum::<usize>(), 1_000);
        let mut made = 0u64;
        let mut cp_iter = engine.checkpoints().iter().peekable();
        for len in lens {
            made += len as u64;
            if let Some(&&cp) = cp_iter.peek() {
                assert!(made <= cp, "chunk crossed checkpoint {cp}");
                if made == cp {
                    cp_iter.next();
                }
            }
        }
        assert_eq!(engine.num_chunks(), 4);
    }

    #[test]
    fn zero_budget_reports_nothing() {
        let targets = targets();
        let outcome = Attack::new(&targets).budget(0).run(&cycler()).unwrap();
        assert!(outcome.checkpoints.is_empty());
        assert!(outcome.matched_passwords.is_empty());
    }

    #[test]
    fn empty_target_set_yields_zero_percent() {
        let targets = HashSet::new();
        let outcome = Attack::new(&targets).budget(256).run(&cycler()).unwrap();
        assert_eq!(outcome.final_report().matched, 0);
        assert_eq!(outcome.final_report().matched_percent, 0.0);
    }

    #[test]
    fn reports_land_on_requested_budgets() {
        let guesser = Cycler(
            ["hit1", "miss1", "hit2", "miss2"]
                .map(String::from)
                .to_vec(),
        );
        let targets: HashSet<String> = ["hit1", "hit2", "hit3", "neverguessed"]
            .map(String::from)
            .into();
        let outcome = Attack::new(&targets)
            .budget(400)
            .batch_size(64)
            .checkpoints(vec![100])
            .seed(1)
            .run(&guesser)
            .unwrap();
        let reports = &outcome.checkpoints;
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].guesses, 100);
        // With only 4 distinct guesses, unique saturates at 4 and matched
        // at the 2 reachable targets: 50 % of the target set.
        assert_eq!(reports[1].unique, 4);
        assert_eq!(reports[1].matched, 2);
        assert!((reports[1].matched_percent - 50.0).abs() < 1e-9);
    }

    #[test]
    fn matched_passwords_are_really_in_the_target_set() {
        let (flow, targets) = flow_fixture();
        let outcome = Attack::new(&targets)
            .budget(3_000)
            .nonmatched_samples(40)
            .run(&flow)
            .unwrap();
        assert!(!outcome.matched_passwords.is_empty());
        assert!(!outcome.nonmatched_samples.is_empty());
        for p in &outcome.matched_passwords {
            assert!(targets.contains(p));
        }
        for p in &outcome.nonmatched_samples {
            assert!(!targets.contains(p));
        }
        assert!(outcome.nonmatched_samples.len() <= 40);
    }

    #[test]
    fn attack_is_deterministic_for_fixed_seed() {
        let (flow, targets) = flow_fixture();
        let run = |seed| {
            Attack::new(&targets)
                .budget(1_000)
                .seed(seed)
                .run(&flow)
                .unwrap()
        };
        let a = run(3);
        assert_eq!(a, run(3));
        assert_ne!(a.final_report().unique, 0);
        // Different seeds explore differently.
        assert_ne!(a, run(4));
    }

    #[test]
    fn smoothing_increases_unique_guesses_under_dynamic_sampling() {
        let (flow, targets) = flow_fixture();
        // Aggressively concentrated dynamic sampling to force collisions.
        let params = DynamicParams::new(0, 0.03, 1_000);
        let run = |strategy| {
            Attack::new(&targets)
                .budget(2_000)
                .strategy(strategy)
                .seed(11)
                .run(&flow)
                .unwrap()
                .final_report()
                .clone()
        };
        let without = run(GuessingStrategy::Dynamic(params));
        let with = run(GuessingStrategy::DynamicWithSmoothing {
            params,
            smoothing: GaussianSmoothing::new(0.02, 6),
        });
        assert!(without.matched > 0, "the mixture prior must activate");
        assert!(
            with.unique >= without.unique,
            "GS should not reduce uniques: {} vs {}",
            with.unique,
            without.unique
        );
    }
}
