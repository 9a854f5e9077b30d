//! Model persistence: saving and loading trained flows and checkpoints.
//!
//! Two formats share one self-describing text layout (weights are stored as
//! hexadecimal IEEE-754 bit patterns, so every round trip is bit-exact and
//! checkpoints stay inspectable and diff-able with no extra serialization
//! dependency):
//!
//! * `PASSFLOW v1` — architecture + weights. Written by [`save_flow`];
//!   still fully readable for backward compatibility.
//! * `PASSFLOW v2` — everything in v1 plus an optional training-state
//!   section: the [`TrainConfig`], the position in the run, the Adam
//!   moments and step count, the best-epoch selection (metric + weight
//!   snapshot), the early-stop counter and the epoch history. Written by
//!   [`save_checkpoint`]; a killed training run resumes **bit-exactly**
//!   from it ([`Trainer::resume`](crate::Trainer::resume)). The RNG needs
//!   no serialized internals: training randomness is drawn from streams
//!   keyed by `(seed, epoch, batch)`, so the epoch ordinal stored here *is*
//!   the RNG state.
//!
//! ```text
//! PASSFLOW v2
//! max_len 10
//! coupling_layers 18
//! hidden_size 256
//! residual_blocks 2
//! masking char-run 1
//! tensors 216
//! tensor 10 256
//! 3f800000 bf000000 …
//! …
//! train_state 1
//! seed 0
//! …
//! adam_moments 432
//! tensor 10 256
//! …
//! ```

use std::fs;
use std::io::{BufRead, BufReader, Lines, Read, Write};
use std::path::Path;

use rand::SeedableRng;

use passflow_nn::{AdamState, Tensor};

use crate::config::{FlowConfig, TrainConfig};
use crate::error::{FlowError, Result};
use crate::flow::PassFlow;
use crate::mask::MaskStrategy;
use crate::train::{EarlyStopConfig, EpochStats, Schedule, TrainState};

const MAGIC_V1: &str = "PASSFLOW v1";
const MAGIC_V2: &str = "PASSFLOW v2";

fn io_err(e: std::io::Error) -> FlowError {
    FlowError::IncompatibleWeights(format!("write failed: {e}"))
}

fn masking_to_string(masking: MaskStrategy) -> String {
    match masking {
        MaskStrategy::CharRun(m) => format!("char-run {m}"),
        MaskStrategy::Horizontal => "horizontal".to_string(),
    }
}

fn masking_from_string(text: &str) -> Result<MaskStrategy> {
    let text = text.trim();
    if text == "horizontal" {
        return Ok(MaskStrategy::Horizontal);
    }
    if let Some(rest) = text.strip_prefix("char-run ") {
        let m: usize = rest
            .trim()
            .parse()
            .map_err(|_| FlowError::IncompatibleWeights(format!("bad masking {text:?}")))?;
        return Ok(MaskStrategy::CharRun(m));
    }
    Err(FlowError::IncompatibleWeights(format!(
        "unknown masking strategy {text:?}"
    )))
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn write_flow_header<W: Write>(flow: &PassFlow, magic: &str, writer: &mut W) -> Result<()> {
    let config = flow.config();
    writeln!(writer, "{magic}").map_err(io_err)?;
    writeln!(writer, "max_len {}", config.max_len).map_err(io_err)?;
    writeln!(writer, "coupling_layers {}", config.coupling_layers).map_err(io_err)?;
    writeln!(writer, "hidden_size {}", config.hidden_size).map_err(io_err)?;
    writeln!(writer, "residual_blocks {}", config.residual_blocks).map_err(io_err)?;
    writeln!(writer, "masking {}", masking_to_string(config.masking)).map_err(io_err)?;
    Ok(())
}

fn write_tensor_block<W: Write>(tensor: &Tensor, writer: &mut W) -> Result<()> {
    writeln!(writer, "tensor {} {}", tensor.rows(), tensor.cols()).map_err(io_err)?;
    // Space-separated 8-digit lowercase hex words, each rendered on the
    // stack: a digest of the weights streams through here per float.
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for (i, value) in tensor.as_slice().iter().enumerate() {
        let mut word = [b' '; 9];
        let bits = value.to_bits();
        for (d, digit) in word[1..].iter_mut().enumerate() {
            *digit = HEX[((bits >> (28 - 4 * d)) & 0xf) as usize];
        }
        let word = if i == 0 { &word[1..] } else { &word[..] };
        writer.write_all(word).map_err(io_err)?;
    }
    writer.write_all(b"\n").map_err(io_err)
}

/// Writes the flow's weights in [`PassFlow::parameters`] order, reading
/// each under its lock instead of cloning a weight snapshot.
fn write_weights<W: Write>(flow: &PassFlow, writer: &mut W) -> Result<()> {
    let params = flow.parameters();
    writeln!(writer, "tensors {}", params.len()).map_err(io_err)?;
    params
        .iter()
        .try_for_each(|p| p.with_value(|tensor| write_tensor_block(tensor, writer)))
}

fn write_tensors<W: Write>(label: &str, tensors: &[Tensor], writer: &mut W) -> Result<()> {
    writeln!(writer, "{label} {}", tensors.len()).map_err(io_err)?;
    for tensor in tensors {
        write_tensor_block(tensor, writer)?;
    }
    Ok(())
}

fn f32_hex(value: f32) -> String {
    format!("{:08x}", value.to_bits())
}

fn schedule_to_string(schedule: Schedule) -> String {
    match schedule {
        Schedule::Constant => "constant".to_string(),
        Schedule::Step { every, gamma } => format!("step {every} {}", f32_hex(gamma)),
        Schedule::WarmupCosine {
            warmup,
            period,
            min_factor,
        } => format!("warmup-cosine {warmup} {period} {}", f32_hex(min_factor)),
    }
}

/// Serializes a flow's architecture and weights to a writer (`PASSFLOW v1`,
/// the weights-only format).
///
/// # Errors
///
/// Returns [`FlowError::IncompatibleWeights`] wrapping any I/O failure.
pub fn save_flow_to_writer<W: Write>(flow: &PassFlow, writer: &mut W) -> Result<()> {
    write_flow_header(flow, MAGIC_V1, writer)?;
    write_weights(flow, writer)
}

/// Saves a flow to a file. See [`save_flow_to_writer`] for the format.
///
/// The file is replaced atomically (see [`save_checkpoint`]): a crash
/// mid-save leaves the previous weights intact.
///
/// # Errors
///
/// Returns [`FlowError::IncompatibleWeights`] wrapping any I/O failure.
pub fn save_flow(flow: &PassFlow, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let mut bytes = Vec::new();
    save_flow_to_writer(flow, &mut bytes)?;
    passflow_store::write_atomic(path, &bytes)
        .map_err(|e| FlowError::IncompatibleWeights(format!("cannot write weights {path:?}: {e}")))
}

/// Serializes a `PASSFLOW v2` checkpoint: the flow plus, when given, the
/// full mid-run training state needed for bit-exact resume.
///
/// # Errors
///
/// Returns [`FlowError::IncompatibleWeights`] wrapping any I/O failure.
pub fn save_checkpoint_to_writer<W: Write>(
    flow: &PassFlow,
    state: Option<&TrainState>,
    writer: &mut W,
) -> Result<()> {
    write_flow_header(flow, MAGIC_V2, writer)?;
    write_weights(flow, writer)?;
    let Some(state) = state else {
        writeln!(writer, "train_state 0").map_err(io_err)?;
        return Ok(());
    };
    writeln!(writer, "train_state 1").map_err(io_err)?;
    let c = &state.config;
    writeln!(writer, "seed {}", c.seed).map_err(io_err)?;
    writeln!(writer, "epochs {}", c.epochs).map_err(io_err)?;
    writeln!(writer, "batch_size {}", c.batch_size).map_err(io_err)?;
    writeln!(writer, "micro_batch {}", c.micro_batch).map_err(io_err)?;
    writeln!(writer, "grad_workers {}", c.grad_workers).map_err(io_err)?;
    writeln!(writer, "accum_steps {}", c.accum_steps).map_err(io_err)?;
    writeln!(writer, "learning_rate {}", f32_hex(c.learning_rate)).map_err(io_err)?;
    writeln!(writer, "schedule {}", schedule_to_string(c.schedule)).map_err(io_err)?;
    writeln!(writer, "dequantization {}", f32_hex(c.dequantization)).map_err(io_err)?;
    match c.clip_norm {
        Some(clip) => writeln!(writer, "clip_norm {}", f32_hex(clip)).map_err(io_err)?,
        None => writeln!(writer, "clip_norm none").map_err(io_err)?,
    }
    writeln!(
        writer,
        "validation_fraction {}",
        f32_hex(c.validation_fraction)
    )
    .map_err(io_err)?;
    match c.early_stop {
        Some(rule) => writeln!(
            writer,
            "early_stop {} {}",
            rule.patience,
            f32_hex(rule.min_delta)
        )
        .map_err(io_err)?,
        None => writeln!(writer, "early_stop none").map_err(io_err)?,
    }
    writeln!(writer, "checkpoint_every {}", c.checkpoint_every).map_err(io_err)?;
    writeln!(writer, "next_epoch {}", state.next_epoch).map_err(io_err)?;
    writeln!(writer, "steps {}", state.steps).map_err(io_err)?;
    writeln!(writer, "best_epoch {}", state.best_epoch).map_err(io_err)?;
    writeln!(writer, "best_metric {}", f32_hex(state.best_metric)).map_err(io_err)?;
    writeln!(writer, "stale_epochs {}", state.stale_epochs).map_err(io_err)?;
    writeln!(writer, "stopped {}", u8::from(state.stopped)).map_err(io_err)?;
    writeln!(writer, "corpus_digest {:016x}", state.corpus_digest).map_err(io_err)?;
    writeln!(writer, "adam_step_count {}", state.optimizer.step_count).map_err(io_err)?;
    let moment_tensors: Vec<Tensor> = state
        .optimizer
        .moments
        .iter()
        .flat_map(|(m, v)| [m.clone(), v.clone()])
        .collect();
    write_tensors("adam_moments", &moment_tensors, writer)?;
    write_tensors("best_weights", &state.best_weights, writer)?;
    writeln!(writer, "history {}", state.history.len()).map_err(io_err)?;
    for e in &state.history {
        let val = match e.val_nll {
            Some(v) => f32_hex(v),
            None => "none".to_string(),
        };
        writeln!(
            writer,
            "epoch {} train {} val {} lr {}",
            e.epoch,
            f32_hex(e.train_nll),
            val,
            f32_hex(e.learning_rate)
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// Saves a `PASSFLOW v2` checkpoint to a file. See
/// [`save_checkpoint_to_writer`].
///
/// The write is atomic: the checkpoint goes to a `.tmp` sibling, is synced
/// to disk and renamed over `path`, so a crash mid-write never destroys the
/// previous good checkpoint — the failure mode checkpointing exists to
/// survive.
///
/// # Errors
///
/// Returns [`FlowError::IncompatibleWeights`] wrapping any I/O failure.
pub fn save_checkpoint(
    flow: &PassFlow,
    state: Option<&TrainState>,
    path: impl AsRef<Path>,
) -> Result<()> {
    let path = path.as_ref();
    let mut bytes = Vec::new();
    save_checkpoint_to_writer(flow, state, &mut bytes)?;
    passflow_store::write_atomic(path, &bytes).map_err(|e| {
        FlowError::IncompatibleWeights(format!("cannot write checkpoint {path:?}: {e}"))
    })
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

fn parse_header_line(line: Option<std::io::Result<String>>, key: &str) -> Result<String> {
    let line = line
        .ok_or_else(|| FlowError::IncompatibleWeights(format!("missing {key} line")))?
        .map_err(|e| FlowError::IncompatibleWeights(format!("read failed: {e}")))?;
    line.strip_prefix(key)
        .map(|rest| rest.trim().to_string())
        .ok_or_else(|| FlowError::IncompatibleWeights(format!("expected {key:?}, got {line:?}")))
}

fn parse_usize(text: &str, key: &str) -> Result<usize> {
    text.parse()
        .map_err(|_| FlowError::IncompatibleWeights(format!("bad {key} value {text:?}")))
}

fn parse_u64(text: &str, key: &str) -> Result<u64> {
    text.parse()
        .map_err(|_| FlowError::IncompatibleWeights(format!("bad {key} value {text:?}")))
}

fn parse_f32_hex(text: &str, key: &str) -> Result<f32> {
    u32::from_str_radix(text.trim(), 16)
        .map(f32::from_bits)
        .map_err(|_| FlowError::IncompatibleWeights(format!("bad {key} value {text:?}")))
}

fn read_tensor_blocks<R: BufRead>(
    lines: &mut Lines<R>,
    count: usize,
    what: &str,
) -> Result<Vec<Tensor>> {
    let mut tensors = Vec::with_capacity(count);
    for index in 0..count {
        let shape_line = parse_header_line(lines.next(), "tensor")?;
        let mut parts = shape_line.split_whitespace();
        let rows = parse_usize(parts.next().unwrap_or(""), "tensor rows")?;
        let cols = parse_usize(parts.next().unwrap_or(""), "tensor cols")?;
        let data_line = lines
            .next()
            .ok_or_else(|| {
                FlowError::IncompatibleWeights(format!("missing data for {what} {index}"))
            })?
            .map_err(|e| FlowError::IncompatibleWeights(format!("read failed: {e}")))?;
        let values: Vec<f32> = data_line
            .split_whitespace()
            .map(|word| {
                u32::from_str_radix(word, 16)
                    .map(f32::from_bits)
                    .map_err(|_| {
                        FlowError::IncompatibleWeights(format!("bad weight word {word:?}"))
                    })
            })
            .collect::<Result<Vec<f32>>>()?;
        let tensor = Tensor::from_vec(rows, cols, values).map_err(|e| {
            FlowError::IncompatibleWeights(format!("{what} {index} has wrong size: {e}"))
        })?;
        tensors.push(tensor);
    }
    Ok(tensors)
}

fn schedule_from_string(text: &str) -> Result<Schedule> {
    let mut parts = text.split_whitespace();
    match parts.next() {
        Some("constant") => Ok(Schedule::Constant),
        Some("step") => {
            let every = parse_u64(parts.next().unwrap_or(""), "schedule every")?;
            let gamma = parse_f32_hex(parts.next().unwrap_or(""), "schedule gamma")?;
            Ok(Schedule::Step { every, gamma })
        }
        Some("warmup-cosine") => {
            let warmup = parse_u64(parts.next().unwrap_or(""), "schedule warmup")?;
            let period = parse_u64(parts.next().unwrap_or(""), "schedule period")?;
            let min_factor = parse_f32_hex(parts.next().unwrap_or(""), "schedule min_factor")?;
            Ok(Schedule::WarmupCosine {
                warmup,
                period,
                min_factor,
            })
        }
        other => Err(FlowError::IncompatibleWeights(format!(
            "unknown schedule {other:?}"
        ))),
    }
}

fn read_train_state<R: BufRead>(lines: &mut Lines<R>) -> Result<TrainState> {
    let seed = parse_u64(&parse_header_line(lines.next(), "seed")?, "seed")?;
    let epochs = parse_usize(&parse_header_line(lines.next(), "epochs")?, "epochs")?;
    let batch_size = parse_usize(
        &parse_header_line(lines.next(), "batch_size")?,
        "batch_size",
    )?;
    let micro_batch = parse_usize(
        &parse_header_line(lines.next(), "micro_batch")?,
        "micro_batch",
    )?;
    let grad_workers = parse_usize(
        &parse_header_line(lines.next(), "grad_workers")?,
        "grad_workers",
    )?;
    let accum_steps = parse_usize(
        &parse_header_line(lines.next(), "accum_steps")?,
        "accum_steps",
    )?;
    let learning_rate = parse_f32_hex(
        &parse_header_line(lines.next(), "learning_rate")?,
        "learning_rate",
    )?;
    let schedule = schedule_from_string(&parse_header_line(lines.next(), "schedule")?)?;
    let dequantization = parse_f32_hex(
        &parse_header_line(lines.next(), "dequantization")?,
        "dequantization",
    )?;
    let clip_text = parse_header_line(lines.next(), "clip_norm")?;
    let clip_norm = if clip_text == "none" {
        None
    } else {
        Some(parse_f32_hex(&clip_text, "clip_norm")?)
    };
    let validation_fraction = parse_f32_hex(
        &parse_header_line(lines.next(), "validation_fraction")?,
        "validation_fraction",
    )?;
    let es_text = parse_header_line(lines.next(), "early_stop")?;
    let early_stop = if es_text == "none" {
        None
    } else {
        let mut parts = es_text.split_whitespace();
        let patience = parse_usize(parts.next().unwrap_or(""), "early_stop patience")?;
        let min_delta = parse_f32_hex(parts.next().unwrap_or(""), "early_stop min_delta")?;
        Some(EarlyStopConfig::new(patience).with_min_delta(min_delta))
    };
    let checkpoint_every = parse_usize(
        &parse_header_line(lines.next(), "checkpoint_every")?,
        "checkpoint_every",
    )?;
    let next_epoch = parse_usize(
        &parse_header_line(lines.next(), "next_epoch")?,
        "next_epoch",
    )?;
    let steps = parse_u64(&parse_header_line(lines.next(), "steps")?, "steps")?;
    let best_epoch = parse_usize(
        &parse_header_line(lines.next(), "best_epoch")?,
        "best_epoch",
    )?;
    let best_metric = parse_f32_hex(
        &parse_header_line(lines.next(), "best_metric")?,
        "best_metric",
    )?;
    let stale_epochs = parse_usize(
        &parse_header_line(lines.next(), "stale_epochs")?,
        "stale_epochs",
    )?;
    let stopped = match parse_header_line(lines.next(), "stopped")?.as_str() {
        "0" => false,
        "1" => true,
        other => {
            return Err(FlowError::IncompatibleWeights(format!(
                "bad stopped flag {other:?}"
            )))
        }
    };
    let digest_text = parse_header_line(lines.next(), "corpus_digest")?;
    let corpus_digest = u64::from_str_radix(digest_text.trim(), 16).map_err(|_| {
        FlowError::IncompatibleWeights(format!("bad corpus_digest value {digest_text:?}"))
    })?;
    let step_count = parse_u64(
        &parse_header_line(lines.next(), "adam_step_count")?,
        "adam_step_count",
    )?;
    let num_moment_tensors = parse_usize(
        &parse_header_line(lines.next(), "adam_moments")?,
        "adam_moments",
    )?;
    if !num_moment_tensors.is_multiple_of(2) {
        return Err(FlowError::IncompatibleWeights(format!(
            "adam_moments count {num_moment_tensors} is not a multiple of two"
        )));
    }
    let moment_tensors = read_tensor_blocks(lines, num_moment_tensors, "adam moment")?;
    let mut moments = Vec::with_capacity(num_moment_tensors / 2);
    let mut iter = moment_tensors.into_iter();
    while let (Some(m), Some(v)) = (iter.next(), iter.next()) {
        moments.push((m, v));
    }
    let num_best = parse_usize(
        &parse_header_line(lines.next(), "best_weights")?,
        "best_weights",
    )?;
    let best_weights = read_tensor_blocks(lines, num_best, "best weight")?;
    let num_history = parse_usize(&parse_header_line(lines.next(), "history")?, "history")?;
    let mut history = Vec::with_capacity(num_history);
    for _ in 0..num_history {
        let line = parse_header_line(lines.next(), "epoch")?;
        let mut parts = line.split_whitespace();
        let epoch = parse_usize(parts.next().unwrap_or(""), "history epoch")?;
        if parts.next() != Some("train") {
            return Err(FlowError::IncompatibleWeights(format!(
                "malformed history line {line:?}"
            )));
        }
        let train_nll = parse_f32_hex(parts.next().unwrap_or(""), "history train")?;
        if parts.next() != Some("val") {
            return Err(FlowError::IncompatibleWeights(format!(
                "malformed history line {line:?}"
            )));
        }
        let val_text = parts.next().unwrap_or("");
        let val_nll = if val_text == "none" {
            None
        } else {
            Some(parse_f32_hex(val_text, "history val")?)
        };
        if parts.next() != Some("lr") {
            return Err(FlowError::IncompatibleWeights(format!(
                "malformed history line {line:?}"
            )));
        }
        let learning_rate = parse_f32_hex(parts.next().unwrap_or(""), "history lr")?;
        history.push(EpochStats {
            epoch,
            train_nll,
            val_nll,
            learning_rate,
        });
    }

    Ok(TrainState {
        config: TrainConfig {
            epochs,
            batch_size,
            micro_batch,
            grad_workers,
            accum_steps,
            learning_rate,
            schedule,
            dequantization,
            clip_norm,
            validation_fraction,
            early_stop,
            checkpoint_every,
            seed,
        },
        next_epoch,
        steps,
        optimizer: AdamState {
            step_count,
            moments,
        },
        best_epoch,
        best_metric,
        best_weights,
        stale_epochs,
        stopped,
        corpus_digest,
        history,
    })
}

/// Loads a checkpoint from a reader: either format version, with the
/// training-state section surfaced when present (`PASSFLOW v1` files load
/// as weights-only — full read compatibility).
///
/// # Errors
///
/// Returns [`FlowError::IncompatibleWeights`] if the stream is not a valid
/// checkpoint, or any construction error from [`PassFlow::new`].
pub fn load_checkpoint_from_reader<R: Read>(reader: R) -> Result<(PassFlow, Option<TrainState>)> {
    let mut lines = BufReader::new(reader).lines();
    let magic = lines
        .next()
        .ok_or_else(|| FlowError::IncompatibleWeights("empty checkpoint".into()))?
        .map_err(|e| FlowError::IncompatibleWeights(format!("read failed: {e}")))?;
    let version = match magic.trim() {
        MAGIC_V1 => 1,
        MAGIC_V2 => 2,
        other => {
            return Err(FlowError::IncompatibleWeights(format!(
                "bad magic line {other:?}"
            )))
        }
    };
    let max_len = parse_usize(&parse_header_line(lines.next(), "max_len")?, "max_len")?;
    let coupling_layers = parse_usize(
        &parse_header_line(lines.next(), "coupling_layers")?,
        "coupling_layers",
    )?;
    let hidden_size = parse_usize(
        &parse_header_line(lines.next(), "hidden_size")?,
        "hidden_size",
    )?;
    let residual_blocks = parse_usize(
        &parse_header_line(lines.next(), "residual_blocks")?,
        "residual_blocks",
    )?;
    let masking = masking_from_string(&parse_header_line(lines.next(), "masking")?)?;
    let num_tensors = parse_usize(&parse_header_line(lines.next(), "tensors")?, "tensors")?;

    let config = FlowConfig {
        max_len,
        coupling_layers,
        hidden_size,
        residual_blocks,
        masking,
    };
    // The RNG only provides the initial weights, which are immediately
    // overwritten by the checkpoint, so any seed works.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let flow = PassFlow::new(config, &mut rng)?;
    let tensors = read_tensor_blocks(&mut lines, num_tensors, "tensor")?;
    flow.load_weights(&tensors)?;

    if version == 1 {
        return Ok((flow, None));
    }
    let has_state = parse_usize(
        &parse_header_line(lines.next(), "train_state")?,
        "train_state",
    )?;
    let state = match has_state {
        0 => None,
        1 => Some(read_train_state(&mut lines)?),
        other => {
            return Err(FlowError::IncompatibleWeights(format!(
                "bad train_state flag {other}"
            )))
        }
    };
    Ok((flow, state))
}

/// Loads a checkpoint file written by [`save_checkpoint`] (or a v1 file
/// written by [`save_flow`], which carries no training state).
///
/// # Errors
///
/// See [`load_checkpoint_from_reader`].
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<(PassFlow, Option<TrainState>)> {
    let file = fs::File::open(path.as_ref())
        .map_err(|e| FlowError::IncompatibleWeights(format!("cannot open file: {e}")))?;
    load_checkpoint_from_reader(file)
}

/// Loads a flow from a reader in either checkpoint format, discarding any
/// training state.
///
/// # Errors
///
/// See [`load_checkpoint_from_reader`].
pub fn load_flow_from_reader<R: Read>(reader: R) -> Result<PassFlow> {
    load_checkpoint_from_reader(reader).map(|(flow, _)| flow)
}

/// Loads a flow from a checkpoint file written by [`save_flow`] or
/// [`save_checkpoint`].
///
/// # Errors
///
/// See [`load_checkpoint_from_reader`].
pub fn load_flow(path: impl AsRef<Path>) -> Result<PassFlow> {
    let file = fs::File::open(path.as_ref())
        .map_err(|e| FlowError::IncompatibleWeights(format!("cannot open file: {e}")))?;
    load_flow_from_reader(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use passflow_nn::rng as nnrng;

    fn tiny_flow(seed: u64) -> PassFlow {
        let mut rng = nnrng::seeded(seed);
        PassFlow::new(
            FlowConfig::tiny().with_masking(MaskStrategy::CharRun(2)),
            &mut rng,
        )
        .unwrap()
    }

    fn sample_state(flow: &PassFlow) -> TrainState {
        let weights = flow.weight_snapshot();
        let moments: Vec<(Tensor, Tensor)> =
            weights.iter().map(|w| (w.scale(0.5), w.square())).collect();
        TrainState {
            config: TrainConfig::tiny()
                .with_epochs(6)
                .with_validation_fraction(0.25)
                .with_early_stop(crate::train::EarlyStopConfig::new(2).with_min_delta(0.125))
                .with_schedule(Schedule::WarmupCosine {
                    warmup: 3,
                    period: 40,
                    min_factor: 0.25,
                }),
            next_epoch: 3,
            steps: 9,
            optimizer: AdamState {
                step_count: 9,
                moments,
            },
            best_epoch: 2,
            best_metric: 4.75,
            best_weights: weights,
            stale_epochs: 1,
            stopped: false,
            corpus_digest: 0xdead_beef_cafe_f00d,
            history: vec![
                EpochStats {
                    epoch: 0,
                    train_nll: 9.5,
                    val_nll: Some(9.25),
                    learning_rate: 2e-3,
                },
                EpochStats {
                    epoch: 1,
                    train_nll: 7.5,
                    val_nll: None,
                    learning_rate: 1e-3,
                },
            ],
        }
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let flow = tiny_flow(1);
        let mut buffer = Vec::new();
        save_flow_to_writer(&flow, &mut buffer).unwrap();
        let restored = load_flow_from_reader(buffer.as_slice()).unwrap();

        assert_eq!(restored.config(), flow.config());
        // Same exact densities for a handful of passwords.
        for pw in ["jimmy91", "123456", "qwerty"] {
            assert_eq!(
                flow.log_prob_password(pw).unwrap().to_bits(),
                restored.log_prob_password(pw).unwrap().to_bits(),
                "density mismatch for {pw}"
            );
        }
        // And bit-exact weights.
        for (a, b) in flow
            .weight_snapshot()
            .iter()
            .zip(restored.weight_snapshot().iter())
        {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn checkpoint_round_trip_preserves_full_train_state() {
        let flow = tiny_flow(5);
        let state = sample_state(&flow);
        let mut buffer = Vec::new();
        save_checkpoint_to_writer(&flow, Some(&state), &mut buffer).unwrap();
        let (restored_flow, restored_state) =
            load_checkpoint_from_reader(buffer.as_slice()).unwrap();
        assert_eq!(restored_flow.config(), flow.config());
        let restored_state = restored_state.expect("state present");
        assert_eq!(restored_state, state);
    }

    #[test]
    fn stateless_v2_checkpoint_loads_without_state() {
        let flow = tiny_flow(6);
        let mut buffer = Vec::new();
        save_checkpoint_to_writer(&flow, None, &mut buffer).unwrap();
        let text = String::from_utf8(buffer.clone()).unwrap();
        assert!(text.starts_with(MAGIC_V2));
        assert!(text.contains("train_state 0"));
        let (restored, state) = load_checkpoint_from_reader(buffer.as_slice()).unwrap();
        assert!(state.is_none());
        assert_eq!(restored.config(), flow.config());
    }

    #[test]
    fn v1_files_load_through_the_checkpoint_reader() {
        // v1 read-compat: a weights-only v1 file loads with no state and
        // bit-exact weights.
        let flow = tiny_flow(7);
        let mut buffer = Vec::new();
        save_flow_to_writer(&flow, &mut buffer).unwrap();
        let text = String::from_utf8(buffer.clone()).unwrap();
        assert!(text.starts_with(MAGIC_V1));
        let (restored, state) = load_checkpoint_from_reader(buffer.as_slice()).unwrap();
        assert!(state.is_none());
        for (a, b) in flow
            .weight_snapshot()
            .iter()
            .zip(restored.weight_snapshot().iter())
        {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn file_round_trip_works() {
        let flow = tiny_flow(2);
        let path = std::env::temp_dir().join("passflow_persist_test.pfw");
        save_flow(&flow, &path).unwrap();
        let restored = load_flow(&path).unwrap();
        assert_eq!(restored.config(), flow.config());
        let _ = fs::remove_file(path);
    }

    #[test]
    fn save_flow_replaces_an_existing_file_atomically() {
        let path = std::env::temp_dir().join(format!(
            "passflow_persist_test_overwrite_{}.pfw",
            std::process::id()
        ));
        save_flow(&tiny_flow(3), &path).unwrap();
        let flow = tiny_flow(4);
        save_flow(&flow, &path).unwrap();

        let restored = load_flow(&path).unwrap();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp_left = std::path::Path::new(&tmp).exists();
        let _ = fs::remove_file(&path);
        assert!(!tmp_left, "the .tmp sibling must be renamed away");
        assert_eq!(restored.config(), flow.config());
        for (a, b) in flow
            .weight_snapshot()
            .iter()
            .zip(restored.weight_snapshot().iter())
        {
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn checkpoint_file_round_trip_works() {
        let flow = tiny_flow(8);
        let state = sample_state(&flow);
        let path = std::env::temp_dir().join("passflow_persist_test_v2.pfw");
        save_checkpoint(&flow, Some(&state), &path).unwrap();
        let (_, restored) = load_checkpoint(&path).unwrap();
        assert_eq!(restored.unwrap(), state);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn corrupted_checkpoints_are_rejected() {
        // Wrong magic.
        assert!(matches!(
            load_flow_from_reader("NOT A CHECKPOINT".as_bytes()),
            Err(FlowError::IncompatibleWeights(_))
        ));
        // Truncated file: header only.
        let flow = tiny_flow(3);
        let mut buffer = Vec::new();
        save_flow_to_writer(&flow, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let truncated: String = text.lines().take(7).collect::<Vec<_>>().join("\n");
        assert!(load_flow_from_reader(truncated.as_bytes()).is_err());
        // Corrupted weight word.
        let corrupted = text.replacen("tensor", "tensor_bad", 1);
        assert!(load_flow_from_reader(corrupted.as_bytes()).is_err());
        // v2 with a truncated train-state section.
        let flow = tiny_flow(4);
        let state = sample_state(&flow);
        let mut buffer = Vec::new();
        save_checkpoint_to_writer(&flow, Some(&state), &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let cut = text.find("adam_moments").unwrap();
        assert!(load_checkpoint_from_reader(&text.as_bytes()[..cut]).is_err());
    }

    #[test]
    fn masking_strings_round_trip() {
        for masking in [
            MaskStrategy::CharRun(1),
            MaskStrategy::CharRun(3),
            MaskStrategy::Horizontal,
        ] {
            assert_eq!(
                masking_from_string(&masking_to_string(masking)).unwrap(),
                masking
            );
        }
        assert!(masking_from_string("diagonal").is_err());
    }

    #[test]
    fn schedule_strings_round_trip() {
        for schedule in [
            Schedule::Constant,
            Schedule::Step {
                every: 7,
                gamma: 0.25,
            },
            Schedule::WarmupCosine {
                warmup: 3,
                period: 99,
                min_factor: 0.125,
            },
        ] {
            assert_eq!(
                schedule_from_string(&schedule_to_string(schedule)).unwrap(),
                schedule
            );
        }
        assert!(schedule_from_string("linear 3").is_err());
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        assert!(matches!(
            load_flow("/definitely/not/a/real/path.pfw"),
            Err(FlowError::IncompatibleWeights(_))
        ));
        assert!(load_checkpoint("/definitely/not/a/real/path.pfw").is_err());
    }
}
