//! `PFATTACK v1` — the attack checkpoint artifact.
//!
//! A checkpoint captures everything a killed attack needs to continue as if
//! it had never stopped: the full knob configuration (validated knob-by-knob
//! on resume), digests of the target set and the guesser's weights, the
//! chunk-level progress cursor (per-chunk RNG streams are keyed by the chunk
//! index, so `chunks_done` *is* the RNG position), the dedup multiset as a
//! sorted [`GuessStreamWriter`] stream, the matched-latent mixture state of
//! Dynamic Sampling, and the report/match accounting accumulated so far.
//!
//! The contract (asserted by `tests/resume_attack.rs`): an attack killed at
//! any checkpoint and resumed produces the byte-identical
//! [`AttackOutcome`](super::AttackOutcome) — and the byte-identical
//! `PFGUESS v1` archive — as an uninterrupted run.
//!
//! ## Byte layout
//!
//! Little-endian throughout.
//!
//! ```text
//! [0..8)   magic  "PFATTACK"
//! [8..12)  version (1)
//! [12..16) reserved (0)
//! [16..N)  payload (sections below)
//! [N..N+8) FNV-1a checksum of the payload
//! ```
//!
//! Payload sections, in order: config knobs (budget, batch size, seed,
//! sync cadence, non-matched cap — u64 each), the strategy (tag byte plus
//! dynamic/smoothing parameters, f32s as raw bits), normalized checkpoint
//! budgets, target-set count + order-independent digest, guesser name +
//! optional weight digest, the progress cursor (`chunks_done`,
//! `guesses_made`, `next_checkpoint`), emitted reports, matched passwords in
//! match order, non-matched samples, matched latents (dim, rows as f32
//! bits, usage counts), and the dedup multiset (record count, byte length,
//! then a counts-bearing `PFGUESS` stream plus its running checksum).

use std::borrow::Cow;
use std::fs;
use std::path::Path;

use passflow_store::format::{fnv1a, FNV_SEED};
use passflow_store::{GuessStreamReader, GuessStreamWriter};

use crate::error::{FlowError, Result};
use crate::sample::{DynamicParams, GaussianSmoothing, GuessingStrategy, Penalization};

use super::attack::CheckpointReport;

const MAGIC: &[u8; 8] = b"PFATTACK";
const VERSION: u32 = 1;

/// Order-independent digest of a target set: per-target FNV-1a hashes folded
/// with wrapping addition, so iteration order never matters.
pub(crate) fn target_set_digest<'a>(targets: impl Iterator<Item = &'a String>) -> u64 {
    targets.fold(0u64, |acc, t| {
        acc.wrapping_add(fnv1a(FNV_SEED, t.as_bytes()))
    })
}

/// Helper for I/O and format failures.
fn persist_err(msg: impl Into<String>) -> FlowError {
    FlowError::AttackPersistence(msg.into())
}

/// Everything a `PFATTACK v1` file persists, in memory, except the dedup
/// multiset, which [`save`] takes and [`load`] returns beside it. The
/// accounting lists borrow the engine's own when saving, so a write copies
/// no guess.
pub(crate) struct CheckpointState<'a> {
    // --- configuration (validated knob-by-knob on resume) ---
    pub budget: u64,
    pub batch_size: u64,
    pub seed: u64,
    pub sync_every: u64,
    pub nonmatched_cap: u64,
    pub strategy: GuessingStrategy,
    /// Normalized checkpoint budgets (ascending, final budget last).
    pub checkpoints: Vec<u64>,
    pub target_count: u64,
    pub target_digest: u64,
    pub guesser_name: String,
    pub guesser_digest: Option<u64>,
    // --- progress cursor ---
    pub chunks_done: u64,
    pub guesses_made: u64,
    pub next_checkpoint: u64,
    pub reports: Cow<'a, [CheckpointReport]>,
    // --- accounting ---
    pub matched_passwords: Cow<'a, [String]>,
    pub nonmatched_samples: Cow<'a, [String]>,
    /// Latent dimensionality of the matched points (0 when not tracked).
    pub latent_dim: u32,
    pub matched_points: Cow<'a, [Vec<f32>]>,
    pub matched_usage: Cow<'a, [u32]>,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32_bits(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str16(&mut self, s: &str) {
        let len = u16::try_from(s.len()).expect("string fits in u16");
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn str32(&mut self, s: &str) {
        let len = u32::try_from(s.len()).expect("string fits in u32");
        self.u32(len);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| persist_err("checkpoint payload is truncated"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32_bits(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn f64_bits(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str16(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        string_from(self.take(len)?.to_vec())
    }
    fn str32(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        string_from(self.take(len)?.to_vec())
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn string_from(bytes: Vec<u8>) -> Result<String> {
    String::from_utf8(bytes).map_err(|_| persist_err("checkpoint contains invalid UTF-8"))
}

fn encode_strategy(enc: &mut Enc, strategy: &GuessingStrategy) {
    let dynamic = |enc: &mut Enc, p: &DynamicParams| {
        enc.u64(p.alpha as u64);
        enc.f32_bits(p.sigma);
        match p.penalization {
            Penalization::Step { gamma } => {
                enc.u8(0);
                enc.u32(gamma);
            }
            Penalization::None => {
                enc.u8(1);
                enc.u32(0);
            }
        }
    };
    match strategy {
        GuessingStrategy::Static => enc.u8(0),
        GuessingStrategy::Dynamic(p) => {
            enc.u8(1);
            dynamic(enc, p);
        }
        GuessingStrategy::DynamicWithSmoothing { params, smoothing } => {
            enc.u8(2);
            dynamic(enc, params);
            enc.f32_bits(smoothing.sigma);
            enc.u64(smoothing.max_attempts as u64);
        }
    }
}

fn decode_strategy(dec: &mut Dec<'_>) -> Result<GuessingStrategy> {
    let dynamic = |dec: &mut Dec<'_>| -> Result<DynamicParams> {
        let alpha = dec.u64()? as usize;
        let sigma = dec.f32_bits()?;
        let penalization = match dec.u8()? {
            0 => Penalization::Step { gamma: dec.u32()? },
            1 => {
                let _ = dec.u32()?;
                Penalization::None
            }
            tag => return Err(persist_err(format!("unknown penalization tag {tag}"))),
        };
        // `<=` alone would wave NaN bits through; demand a real positive.
        if sigma.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(persist_err("dynamic sigma is not positive"));
        }
        Ok(DynamicParams {
            alpha,
            sigma,
            penalization,
        })
    };
    match dec.u8()? {
        0 => Ok(GuessingStrategy::Static),
        1 => Ok(GuessingStrategy::Dynamic(dynamic(dec)?)),
        2 => {
            let params = dynamic(dec)?;
            let sigma = dec.f32_bits()?;
            let max_attempts = dec.u64()? as usize;
            if sigma.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || max_attempts == 0 {
                return Err(persist_err("smoothing parameters are invalid"));
            }
            Ok(GuessingStrategy::DynamicWithSmoothing {
                params,
                smoothing: GaussianSmoothing {
                    sigma,
                    max_attempts,
                },
            })
        }
        tag => Err(persist_err(format!("unknown strategy tag {tag}"))),
    }
}

// ---------------------------------------------------------------------------
// Save / load
// ---------------------------------------------------------------------------

/// Writes `state` and the dedup multiset `generated` (in byte order, as
/// `ShardedSet::sorted` yields it) to `path` atomically: a `.tmp` sibling
/// is renamed into place, so readers never observe a half-written
/// checkpoint.
pub(crate) fn save(
    state: &CheckpointState<'_>,
    generated: &[(&str, u64)],
    path: &Path,
) -> Result<()> {
    // The preamble comes first, so the payload is encoded in place.
    let mut enc = Enc { buf: Vec::new() };
    enc.buf.extend_from_slice(MAGIC);
    enc.u32(VERSION);
    enc.u32(0);

    // Section 1: config knobs.
    enc.u64(state.budget);
    enc.u64(state.batch_size);
    enc.u64(state.seed);
    enc.u64(state.sync_every);
    enc.u64(state.nonmatched_cap);
    encode_strategy(&mut enc, &state.strategy);
    enc.u32(u32::try_from(state.checkpoints.len()).expect("checkpoint list fits in u32"));
    for &cp in &state.checkpoints {
        enc.u64(cp);
    }
    enc.u64(state.target_count);
    enc.u64(state.target_digest);
    enc.str16(&state.guesser_name);
    match state.guesser_digest {
        Some(digest) => {
            enc.u8(1);
            enc.u64(digest);
        }
        None => {
            enc.u8(0);
            enc.u64(0);
        }
    }

    // Section 2: progress cursor + reports.
    enc.u64(state.chunks_done);
    enc.u64(state.guesses_made);
    enc.u64(state.next_checkpoint);
    enc.u32(u32::try_from(state.reports.len()).expect("report list fits in u32"));
    for report in state.reports.iter() {
        enc.u64(report.guesses);
        enc.u64(report.unique);
        enc.u64(report.matched);
        enc.f64_bits(report.matched_percent);
    }

    // Section 3: match accounting.
    enc.u64(state.matched_passwords.len() as u64);
    for p in state.matched_passwords.iter() {
        enc.str32(p);
    }
    enc.u64(state.nonmatched_samples.len() as u64);
    for p in state.nonmatched_samples.iter() {
        enc.str32(p);
    }

    // Section 4: matched latents (the Dynamic Sampling mixture state).
    enc.u32(state.latent_dim);
    enc.u64(state.matched_points.len() as u64);
    for point in state.matched_points.iter() {
        debug_assert_eq!(point.len(), state.latent_dim as usize);
        for &v in point {
            enc.f32_bits(v);
        }
    }
    for &usage in state.matched_usage.iter() {
        enc.u32(usage);
    }

    // Section 5: the dedup multiset as a sorted PFGUESS stream, whose byte
    // length is patched in once the stream is written.
    enc.u64(generated.len() as u64);
    let len_at = enc.buf.len();
    enc.u64(0);
    let mut writer = GuessStreamWriter::new(&mut enc.buf, true);
    for &(guess, count) in generated {
        writer
            .push(guess.as_bytes(), count)
            .map_err(|e| persist_err(format!("encoding dedup set: {e}")))?;
    }
    let stream_checksum = writer.checksum();
    let stream_len = (enc.buf.len() - len_at - 8) as u64;
    enc.buf[len_at..len_at + 8].copy_from_slice(&stream_len.to_le_bytes());
    enc.u64(stream_checksum);

    // The trailing checksum covers the payload, after the preamble.
    let checksum = fnv1a(FNV_SEED, &enc.buf[16..]);
    enc.u64(checksum);

    #[cfg(test)]
    SAVES.with(|n| n.set(n.get() + 1));
    passflow_store::write_atomic(path, &enc.buf)
        .map_err(|e| persist_err(format!("writing checkpoint {path:?}: {e}")))
}

#[cfg(test)]
thread_local! {
    /// Checkpoint writes started on this thread, for the engine's tests.
    pub(crate) static SAVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Reads and fully validates a `PFATTACK v1` file (magic, version, payload
/// checksum, section layout, UTF-8 strings, dedup-stream checksum). Returns
/// the state and the dedup multiset in byte order.
pub(crate) fn load(path: &Path) -> Result<(CheckpointState<'static>, Vec<(String, u64)>)> {
    let bytes =
        fs::read(path).map_err(|e| persist_err(format!("reading checkpoint {path:?}: {e}")))?;
    if bytes.len() < 24 {
        return Err(persist_err("checkpoint is shorter than its preamble"));
    }
    if &bytes[0..8] != MAGIC {
        return Err(persist_err("bad magic: not a PFATTACK file"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(persist_err(format!(
            "unsupported PFATTACK version {version} (supported: {VERSION})"
        )));
    }
    let payload = &bytes[16..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let computed = fnv1a(FNV_SEED, payload);
    if stored != computed {
        return Err(persist_err(format!(
            "payload checksum mismatch: stored {stored:016x}, computed {computed:016x}"
        )));
    }

    let mut dec = Dec {
        buf: payload,
        pos: 0,
    };

    let budget = dec.u64()?;
    let batch_size = dec.u64()?;
    let seed = dec.u64()?;
    let sync_every = dec.u64()?;
    let nonmatched_cap = dec.u64()?;
    let strategy = decode_strategy(&mut dec)?;
    let n_checkpoints = dec.u32()? as usize;
    let mut checkpoints = Vec::with_capacity(n_checkpoints.min(1 << 16));
    for _ in 0..n_checkpoints {
        checkpoints.push(dec.u64()?);
    }
    let target_count = dec.u64()?;
    let target_digest = dec.u64()?;
    let guesser_name = dec.str16()?;
    let guesser_digest = match dec.u8()? {
        0 => {
            let _ = dec.u64()?;
            None
        }
        1 => Some(dec.u64()?),
        tag => return Err(persist_err(format!("unknown guesser-digest flag {tag}"))),
    };

    let chunks_done = dec.u64()?;
    let guesses_made = dec.u64()?;
    let next_checkpoint = dec.u64()?;
    let n_reports = dec.u32()? as usize;
    let mut reports = Vec::with_capacity(n_reports.min(1 << 16));
    for _ in 0..n_reports {
        reports.push(CheckpointReport {
            guesses: dec.u64()?,
            unique: dec.u64()?,
            matched: dec.u64()?,
            matched_percent: dec.f64_bits()?,
        });
    }

    let n_matched = dec.u64()? as usize;
    let mut matched_passwords = Vec::with_capacity(n_matched.min(1 << 16));
    for _ in 0..n_matched {
        matched_passwords.push(dec.str32()?);
    }
    let n_nonmatched = dec.u64()? as usize;
    let mut nonmatched_samples = Vec::with_capacity(n_nonmatched.min(1 << 16));
    for _ in 0..n_nonmatched {
        nonmatched_samples.push(dec.str32()?);
    }

    let latent_dim = dec.u32()?;
    let n_points = dec.u64()? as usize;
    // Each point is `latent_dim` floats plus its u32 usage count; bound
    // them by the payload before reserving for any of them.
    let point_bytes = n_points.checked_mul((latent_dim as usize + 1) * 4);
    if point_bytes.is_none_or(|bytes| bytes > dec.buf.len() - dec.pos) {
        return Err(persist_err(format!(
            "{n_points} matched points of dimension {latent_dim} exceed the payload"
        )));
    }
    let mut matched_points = Vec::with_capacity(n_points.min(1 << 16));
    for _ in 0..n_points {
        let mut point = Vec::with_capacity(latent_dim as usize);
        for _ in 0..latent_dim {
            point.push(dec.f32_bits()?);
        }
        matched_points.push(point);
    }
    let mut matched_usage = Vec::with_capacity(n_points.min(1 << 16));
    for _ in 0..n_points {
        matched_usage.push(dec.u32()?);
    }

    let record_count = dec.u64()?;
    let stream_len = dec.u64()? as usize;
    let stream = dec.take(stream_len)?;
    let stored_stream_checksum = dec.u64()?;
    if !dec.done() {
        return Err(persist_err("trailing bytes after the dedup section"));
    }
    let mut reader = GuessStreamReader::new(stream, true);
    let mut generated = Vec::with_capacity((record_count as usize).min(1 << 20));
    while let Some((guess, count)) = reader
        .next_guess()
        .map_err(|e| persist_err(format!("decoding dedup set: {e}")))?
    {
        generated.push((string_from(guess)?, count));
    }
    if reader.records() != record_count {
        return Err(persist_err(format!(
            "dedup set has {} records, header claims {record_count}",
            reader.records()
        )));
    }
    if reader.checksum() != stored_stream_checksum {
        return Err(persist_err("dedup-stream checksum mismatch"));
    }

    let state = CheckpointState {
        budget,
        batch_size,
        seed,
        sync_every,
        nonmatched_cap,
        strategy,
        checkpoints,
        target_count,
        target_digest,
        guesser_name,
        guesser_digest,
        chunks_done,
        guesses_made,
        next_checkpoint,
        reports: reports.into(),
        matched_passwords: matched_passwords.into(),
        nonmatched_samples: nonmatched_samples.into(),
        latent_dim,
        matched_points: matched_points.into(),
        matched_usage: matched_usage.into(),
    };
    Ok((state, generated))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dedup multiset saved beside [`sample_state`].
    const GENERATED: [(&str, u64); 3] = [("123456", 1), ("hunter2", 4), ("zzz", 2)];

    fn sample_state() -> CheckpointState<'static> {
        CheckpointState {
            budget: 10_000,
            batch_size: 128,
            seed: 7,
            sync_every: 4,
            nonmatched_cap: 40,
            strategy: GuessingStrategy::DynamicWithSmoothing {
                params: DynamicParams::new(5, 0.12, 2),
                smoothing: GaussianSmoothing::default(),
            },
            checkpoints: vec![1_000, 5_000, 10_000],
            target_count: 3,
            target_digest: 0xdead_beef,
            guesser_name: "PassFlow".to_string(),
            guesser_digest: Some(42),
            chunks_done: 8,
            guesses_made: 1_024,
            next_checkpoint: 1,
            reports: vec![CheckpointReport {
                guesses: 1_000,
                unique: 900,
                matched: 2,
                matched_percent: 66.666,
            }]
            .into(),
            matched_passwords: vec!["hunter2".to_string(), "123456".to_string()].into(),
            nonmatched_samples: vec!["zzz".to_string()].into(),
            latent_dim: 2,
            matched_points: vec![vec![0.5, -0.5], vec![1.0, 2.0]].into(),
            matched_usage: vec![3, 0].into(),
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pfattack-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn round_trips_every_section() {
        let state = sample_state();
        let path = scratch("roundtrip.pfa");
        save(&state, &GENERATED, &path).unwrap();
        let (loaded, generated) = load(&path).unwrap();
        assert_eq!(loaded.budget, state.budget);
        assert_eq!(loaded.batch_size, state.batch_size);
        assert_eq!(loaded.seed, state.seed);
        assert_eq!(loaded.sync_every, state.sync_every);
        assert_eq!(loaded.nonmatched_cap, state.nonmatched_cap);
        assert_eq!(loaded.strategy, state.strategy);
        assert_eq!(loaded.checkpoints, state.checkpoints);
        assert_eq!(loaded.target_count, state.target_count);
        assert_eq!(loaded.target_digest, state.target_digest);
        assert_eq!(loaded.guesser_name, state.guesser_name);
        assert_eq!(loaded.guesser_digest, state.guesser_digest);
        assert_eq!(loaded.chunks_done, state.chunks_done);
        assert_eq!(loaded.guesses_made, state.guesses_made);
        assert_eq!(loaded.next_checkpoint, state.next_checkpoint);
        assert_eq!(loaded.reports, state.reports);
        assert_eq!(loaded.matched_passwords, state.matched_passwords);
        assert_eq!(loaded.nonmatched_samples, state.nonmatched_samples);
        assert_eq!(loaded.latent_dim, state.latent_dim);
        assert_eq!(loaded.matched_points, state.matched_points);
        assert_eq!(loaded.matched_usage, state.matched_usage);
        let generated: Vec<(&str, u64)> = generated.iter().map(|(g, c)| (g.as_str(), *c)).collect();
        assert_eq!(generated, GENERATED);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_a_typed_persistence_error() {
        let state = sample_state();
        let path = scratch("corrupt.pfa");
        save(&state, &GENERATED, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();

        // Flip a payload byte: checksum must catch it.
        bytes[30] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load(&path),
            Err(FlowError::AttackPersistence(msg)) if msg.contains("checksum")
        ));

        // Truncate mid-payload.
        bytes[30] ^= 0xff;
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(FlowError::AttackPersistence(_))));

        // Wrong magic.
        std::fs::write(&path, b"NOTATALLPFATTACKDATA....").unwrap();
        assert!(matches!(
            load(&path),
            Err(FlowError::AttackPersistence(msg)) if msg.contains("magic")
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_latent_dim_is_rejected_before_reserving() {
        let state = sample_state();
        let path = scratch("latent-dim.pfa");
        save(&state, &GENERATED, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Section 4 opens with latent_dim = 2, two points, then 0.5f32.
        let mut section = Vec::new();
        section.extend_from_slice(&2u32.to_le_bytes());
        section.extend_from_slice(&2u64.to_le_bytes());
        section.extend_from_slice(&0.5f32.to_bits().to_le_bytes());
        let at = bytes
            .windows(section.len())
            .position(|w| w == section.as_slice())
            .expect("matched-latent section present");

        // (latent_dim, n_points): huge points, and countless empty ones.
        for (latent_dim, n_points) in [(u32::MAX, 2u64), (0, 1 << 60)] {
            let mut patched = bytes.clone();
            patched[at..at + 4].copy_from_slice(&latent_dim.to_le_bytes());
            patched[at + 4..at + 12].copy_from_slice(&n_points.to_le_bytes());
            // Re-seal the trailer so only the size check can object.
            let end = patched.len() - 8;
            let sealed = fnv1a(FNV_SEED, &patched[16..end]);
            patched[end..].copy_from_slice(&sealed.to_le_bytes());
            std::fs::write(&path, &patched).unwrap();
            assert!(
                matches!(
                    load(&path),
                    Err(FlowError::AttackPersistence(msg)) if msg.contains("exceed the payload")
                ),
                "latent_dim={latent_dim} n_points={n_points}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn invalid_utf8_in_the_dedup_set_is_a_typed_persistence_error() {
        let state = sample_state();
        let path = scratch("dedup-utf8.pfa");
        save(&state, &GENERATED, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();

        // The dedup stream is the last section, so the last "zzz" is its
        // record (the earlier one is the non-matched sample).
        let at = bytes
            .windows(3)
            .rposition(|w| w == b"zzz")
            .expect("dedup record present");
        bytes[at] = 0xff;
        // Re-seal the trailer so the payload checksum cannot object.
        let end = bytes.len() - 8;
        let sealed = fnv1a(FNV_SEED, &bytes[16..end]);
        bytes[end..].copy_from_slice(&sealed.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load(&path),
            Err(FlowError::AttackPersistence(msg)) if msg.contains("invalid UTF-8")
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn target_digest_is_order_independent() {
        let a = ["alpha".to_string(), "beta".to_string()];
        let b = ["beta".to_string(), "alpha".to_string()];
        assert_eq!(target_set_digest(a.iter()), target_set_digest(b.iter()));
        let c = ["alpha".to_string()];
        assert_ne!(target_set_digest(a.iter()), target_set_digest(c.iter()));
    }
}
