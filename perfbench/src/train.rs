//! `train`: the paper's training.
//!
//! Set-up generates a 30 000-instance synthetic corpus and takes a
//! 20 000-password training subsample through the paper's split. Each
//! measured repetition trains a freshly initialised 8×64 evaluation flow
//! for one epoch with the evaluation shapes (batch 256, micro-batch 64)
//! through [`Trainer`], once on 1 gradient worker and once on 2. The
//! bounded throughput is the 1-worker rate: on a shared 2-vCPU host the
//! 2-worker epoch time swings with whatever else holds either core, far
//! beyond any bound, while the 1-worker time stays within a few percent.
//! The 2-worker rate is printed beside it. Every epoch uses the same seed,
//! and results do not depend on the worker count, so every one must end on
//! the bit-identical loss.
//!
//! The traced mode replays the 2-worker epoch through the public calls the
//! trainer's step makes (`PassFlow::encode_batch`, `PassFlow::nll_grad_sum`,
//! `GradBatch::merge`, `Optimizer::step`) on the same batches, and must end
//! on the same loss as the trainer. It runs the replay with spans off and
//! with spans on; the difference is the tracing overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::Rng;

use passflow_core::{FlowConfig, PassFlow, TrainConfig, Trainer};
use passflow_nn::rng as nnrng;
use passflow_nn::{Adam, GradBatch, Optimizer, Tensor};
use passflow_passwords::{CorpusConfig, SyntheticCorpusGenerator};

use crate::report::{say, Report};
use crate::spans::{self, Span, Tracer};
use crate::stats::median;

/// Training passwords.
pub const SUBSAMPLE: usize = 20_000;
/// Gradient worker counts each repetition trains with; the first gives the
/// bounded throughput, the last is the one the traced mode replays.
pub const GRAD_WORKERS: [usize; 2] = [1, 2];
/// Epochs per measured repetition.
const EPOCHS: usize = 1;
/// Set-ups per untraced run; `setup_s` is their median. One set-up takes
/// about 20 ms, so many are needed to span the host's short stalls.
const SETUPS: usize = 50;
/// The trainer's shuffle and dequantization-noise stream offsets.
const STREAM_SHUFFLE: u64 = 1 << 41;
const STREAM_NOISE: u64 = 1 << 42;
const NOISE_EPOCH_STRIDE: u64 = 1 << 22;

/// The training configuration of every repetition.
pub fn config(seed: u64, workers: usize) -> TrainConfig {
    TrainConfig::evaluation()
        .with_epochs(EPOCHS)
        .with_seed(seed)
        .with_grad_workers(workers)
}

/// The training subsample.
pub fn setup(seed: u64) -> Vec<String> {
    let corpus = SyntheticCorpusGenerator::new(CorpusConfig::small()).generate(seed);
    corpus.paper_split(0.8, SUBSAMPLE, seed).train
}

fn fresh_flow(seed: u64) -> PassFlow {
    PassFlow::new(FlowConfig::evaluation(), &mut nnrng::seeded(seed))
        .expect("the evaluation config is valid")
}

/// Trains a fresh flow through [`Trainer`] on `workers` gradient workers;
/// returns the final loss and the wall time.
fn train_once(seed: u64, workers: usize, passwords: &[String]) -> (Option<f32>, f64) {
    let flow = fresh_flow(seed);
    let start = Instant::now();
    let outcome = Trainer::new(&flow, config(seed, workers)).and_then(|t| t.train(passwords));
    let wall = start.elapsed().as_secs_f64();
    (outcome.ok().and_then(|r| r.final_nll()), wall)
}

/// The untraced run: `setup_s` from several set-ups, then repeated
/// training until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let mut setup_times = Vec::new();
    let mut passwords = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        passwords = setup(seed);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let rows = (passwords.len() * EPOCHS) as f64;

    // Wall times per worker count, in `GRAD_WORKERS` order.
    let mut walls: [Vec<f64>; 2] = Default::default();
    let mut losses = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    'run: while walls[0].is_empty() || Instant::now() < deadline {
        for (i, &workers) in GRAD_WORKERS.iter().enumerate() {
            let (loss, wall) = train_once(seed, workers, &passwords);
            report.attempted += 1;
            let Some(loss) = loss else {
                report.failed += 1;
                report.check("every training run succeeds", false);
                break 'run;
            };
            losses.push(loss.to_bits());
            walls[i].push(wall);
        }
    }
    if let Some(&first) = losses.first() {
        let loss = f32::from_bits(first);
        say("final_nll", f64::from(loss), "nats");
        report.check("final_nll is finite", loss.is_finite());
        report.check(
            "final_nll is bit-identical across runs and worker counts with the same seed",
            losses.iter().all(|&l| l == first),
        );
    }
    let rates = |walls: &[f64]| walls.iter().map(|w| rows / w).collect::<Vec<f64>>();
    say("train_passwords_per_s", median(&rates(&walls[0])), "1/s");
    say(
        "train_passwords_per_s.workers2",
        median(&rates(&walls[1])),
        "1/s",
    );
    say(
        "train.epochs_per_worker_count",
        walls[0].len() as f64,
        "count",
    );
    report.set("setup_s", median(&setup_times));
    report.set("throughput_per_s", median(&rates(&walls[0])));
}

/// One epoch through the trainer's public calls, with spans. Returns the
/// epoch's mean loss, computed exactly as the trainer computes it.
fn replay_epoch(
    flow: &PassFlow,
    passwords: &[String],
    config: &TrainConfig,
    tracer: &Tracer,
) -> f32 {
    const TAG: &str = "train";
    let root = tracer.open("train.epoch", TAG, 0, 0);
    let open = tracer.open("encoding.encode", TAG, root.id(), 0);
    let data = flow
        .encode_batch(passwords)
        .expect("the corpus is encodable");
    tracer.close(open);

    let parameters = flow.parameters();
    let mut optimizer = Adam::new(config.learning_rate);
    if let Some(clip) = config.clip_norm {
        optimizer = optimizer.with_clip_norm(clip);
    }
    let amplitude = config.dequantization * flow.encoder().quantization_step();
    let batches = data.rows().div_ceil(config.batch_size);
    let mut shuffled: Vec<usize> = (0..data.rows()).collect();
    let mut steps = 0u64;
    let mut mean = f32::NAN;
    for epoch in 0..config.epochs {
        shuffled.sort_unstable();
        shuffled.shuffle(&mut nnrng::derived(
            config.seed,
            STREAM_SHUFFLE + epoch as u64,
        ));
        let mut epoch_loss = 0.0f64;
        for b in 0..batches {
            let start = b * config.batch_size;
            let end = (start + config.batch_size).min(shuffled.len());
            let mut batch = data.select_rows(&shuffled[start..end]);
            let mut noise = nnrng::derived(
                config.seed,
                STREAM_NOISE + epoch as u64 * NOISE_EPOCH_STRIDE + b as u64,
            );
            if amplitude != 0.0 {
                for v in batch.as_mut_slice() {
                    *v += noise.gen_range(-amplitude..amplitude);
                }
            }
            let request = (epoch * batches + b) as u64;
            let outputs = micro_grads(flow, &batch, config, tracer, root.id(), request);

            let open = tracer.open("train.reduce", TAG, root.id(), request);
            let mut pending = GradBatch::new();
            let mut loss = 0.0f64;
            for (micro_loss, grads) in &outputs {
                loss += f64::from(*micro_loss);
                pending.merge(grads);
            }
            tracer.close(open);

            let open = tracer.open("optim.step", TAG, root.id(), request);
            pending.scale(1.0 / batch.rows() as f32);
            pending.apply();
            optimizer.set_learning_rate(config.learning_rate * config.schedule.factor(steps));
            optimizer.step(&parameters);
            steps += 1;
            tracer.close(open);

            epoch_loss += f64::from((loss / batch.rows() as f64) as f32);
        }
        mean = (epoch_loss / batches.max(1) as f64) as f32;
    }
    tracer.close(root);
    mean
}

/// Per-micro-batch gradients on `config.grad_workers` threads, ordered by
/// micro-batch index as the trainer orders them.
fn micro_grads(
    flow: &PassFlow,
    batch: &Tensor,
    config: &TrainConfig,
    tracer: &Tracer,
    parent: u32,
    request: u64,
) -> Vec<(f32, GradBatch)> {
    let micro = config.micro_batch.max(1);
    let ranges: Vec<(usize, usize)> = (0..batch.rows())
        .step_by(micro)
        .map(|start| (start, micro.min(batch.rows() - start)))
        .collect();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(f32, GradBatch)>> = ranges.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.grad_workers.min(ranges.len()).max(1))
            .map(|_| {
                let (next, ranges) = (&next, &ranges);
                scope.spawn(move || {
                    let mut produced = Vec::new();
                    let mut own: Vec<Span> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(start, len)) = ranges.get(i) else {
                            break;
                        };
                        let cols = batch.cols();
                        let rows = batch.as_slice()[start * cols..(start + len) * cols].to_vec();
                        let micro = Tensor::from_vec(len, cols, rows)
                            .expect("a micro-batch slice matches its shape");
                        let open = tracer.open("autograd.nll_grad", "train", parent, request);
                        produced.push((i, flow.nll_grad_sum(&micro)));
                        own.push(tracer.finish(open));
                    }
                    tracer.extend(own);
                    produced
                })
            })
            .collect();
        for worker in workers {
            for (i, output) in worker.join().expect("a gradient worker panicked") {
                slots[i] = Some(output);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every micro-batch produced"))
        .collect()
}

/// The traced run: one epoch through [`Trainer`] to check the replay's
/// loss, then [`replay_epoch`] with spans off and with spans on, repeated
/// until `seconds` have passed.
pub fn run_traced(seed: u64, seconds: f64, report: &mut Report) {
    let passwords = setup(seed);
    let workers = GRAD_WORKERS[GRAD_WORKERS.len() - 1];
    let config = config(seed, workers);
    let (trainer_loss, _) = train_once(seed, workers, &passwords);
    report.attempted += 1;
    let replay = |tracer: &Tracer| {
        let flow = fresh_flow(seed);
        let start = Instant::now();
        let loss = replay_epoch(&flow, &passwords, &config, tracer);
        (loss, start.elapsed().as_secs_f64())
    };
    let mut rows: Vec<[f64; 5]> = Vec::new();
    let mut overhead = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rows.is_empty() || Instant::now() < deadline {
        // Alternate which goes first, so neither is always the colder run.
        let tracer = Tracer::new();
        let ((_, off), (loss, on)) = if rows.len().is_multiple_of(2) {
            let off = replay(&Tracer::disabled());
            (off, replay(&tracer))
        } else {
            let on = replay(&tracer);
            (replay(&Tracer::disabled()), on)
        };
        let all = tracer.take();
        report.attempted += 2;
        if rows.is_empty() {
            report.check(
                "traced epoch ends on the trainer's loss",
                trainer_loss.map(f32::to_bits) == Some(loss.to_bits()),
            );
            spans::publish("train", seed, &all);
        }
        let totals = spans::layer_totals(&all);
        let t = |name| totals.get(&(name, "train")).map_or(0.0, |v| v.0);
        let root = all.iter().find(|s| s.parent == 0).expect("the epoch span");
        let mut children: Vec<(u64, u64)> = all
            .iter()
            .filter(|s| s.parent == root.id)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let covered = spans::covered_ns(&mut children, root.start_ns, root.end_ns);
        rows.push([
            t("encoding.encode"),
            t("autograd.nll_grad"),
            t("train.reduce"),
            t("optim.step"),
            covered as f64 / root.duration_ns().max(1) as f64,
        ]);
        overhead.push(on - off);
    }
    let names = [
        "encoding.encode_s",
        "autograd.nll_grad_s",
        "train.reduce_s",
        "optim.step_s",
        "train.layer_coverage",
    ];
    for (i, name) in names.into_iter().enumerate() {
        let column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
        report.set(name, median(&column));
    }
    // Forward pass, then the input- and weight-gradient GEMMs of backward.
    report.set(
        "kernels.gemm_macs_per_example",
        3.0 * crate::flow_macs_per_row(&FlowConfig::evaluation()) as f64,
    );
    report.set("trace.overhead_s", median(&overhead));
    say("traced.repetitions", rows.len() as f64, "count");
}
