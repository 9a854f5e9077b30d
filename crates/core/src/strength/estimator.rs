//! The Monte-Carlo guess-number estimator and its persisted sample table.
//!
//! Following Dell'Amico & Filippone (CCS 2015), draw `N` passwords
//! `x_1 … x_N` i.i.d. from the model and keep their log-probabilities
//! `ℓ_i = log p(x_i)`, sorted descending. For a query password with score
//! `ℓ`, the *guess number* — its expected position in a descending-
//! probability enumeration — is estimated by importance sampling:
//!
//! ```text
//! Ĝ(ℓ) = (1/N) · Σ_{i : ℓ_i > ℓ} exp(−ℓ_i)        (ties count half)
//! ```
//!
//! because each sample `x_i` stronger than the query represents
//! `1/(N·p(x_i))` distinct passwords at its probability level. Sorting once
//! and precomputing the running log-sum-exp of `−ℓ_i` (and of `−2ℓ_i`, for
//! the variance) turns every query into a binary search plus a rank
//! interpolation over the cumulative weights — microseconds per lookup,
//! with a standard-error-based confidence interval derived from the same
//! sums. See DESIGN.md ("Strength estimation") for the derivation and error
//! bounds.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use rand::RngCore;

use passflow_nn::rng as nnrng;

use crate::error::{FlowError, Result};

use super::ProbabilityModel;

/// Magic line identifying a persisted sample table; the version suffix is
/// bumped on any layout change so stale tables fail loudly.
const MAGIC_V1: &str = "PFSTRENGTH v1";

/// z-score of the two-sided 95% normal confidence interval.
const Z95: f64 = 1.959_964;

/// Passwords sampled per build chunk. Each chunk draws from its own RNG
/// stream keyed by the chunk index, so the table is a pure function of
/// `(model, samples, seed)` — never of the shard count that built it.
const BUILD_CHUNK: usize = 1024;

// ---------------------------------------------------------------------------
// Estimates
// ---------------------------------------------------------------------------

/// An optimal-attacker guess-number estimate with its confidence interval.
///
/// Ranks are reported on the log₂ scale (the "bits of security" strength
/// meters use); [`guess_number`](Self::guess_number) converts back. The
/// interval is the ±z·SE normal interval of the Monte-Carlo estimator at
/// 95% confidence, clamped to `rank ≥ 1`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrengthEstimate {
    /// log₂ of the estimated guess number (position in a descending-
    /// probability enumeration, starting at 1).
    pub log2_guess_number: f64,
    /// log₂ of the lower 95% confidence bound.
    pub log2_ci_low: f64,
    /// log₂ of the upper 95% confidence bound.
    pub log2_ci_high: f64,
    /// Table samples strictly more probable than the query.
    pub samples_above: usize,
}

impl StrengthEstimate {
    /// The estimated guess number (`2^log2_guess_number`).
    pub fn guess_number(&self) -> f64 {
        self.log2_guess_number.exp2()
    }

    /// The 95% confidence interval as plain guess numbers.
    pub fn ci(&self) -> (f64, f64) {
        (self.log2_ci_low.exp2(), self.log2_ci_high.exp2())
    }
}

/// A sampling-attack rank estimate: the expected number of **unique**
/// guesses the engine's static sampling attacker generates before (and
/// including) the query password, with a confidence interval.
///
/// This is the quantity an [`Attack`](crate::Attack) run measures directly
/// (see [`attack_unique_rank`](super::attack_unique_rank)): in an i.i.d.
/// guess stream, a password `y` precedes the query `x` with probability
/// `p(y) / (p(y) + p(x))`, so the expected unique rank is
///
/// ```text
/// R(x) = 1 + Σ_{y≠x} p(y) / (p(y) + p(x))
/// ```
///
/// and `Σ_y p(y)/(p(y)+p(x)) = E_{y∼p}[1/(p(y)+p(x))]`, estimated as
/// `(1/N) Σ_i 1/(p(x_i)+p(x))` over the table samples (the query's own
/// occurrences among the samples add at most ½ to the estimate, far inside
/// the interval). The interval combines the Monte-Carlo standard error with
/// the rank's own run-to-run variance (bounded by `R − 1`), so a single
/// engine measurement is expected to land inside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplingRankEstimate {
    /// Expected unique-guess rank (≥ 1).
    pub rank: f64,
    /// Lower 95% confidence bound (≥ 1).
    pub ci_low: f64,
    /// Upper 95% confidence bound.
    pub ci_high: f64,
}

impl SamplingRankEstimate {
    /// Whether a measured rank falls inside the confidence interval.
    pub fn contains(&self, measured: f64) -> bool {
        self.ci_low <= measured && measured <= self.ci_high
    }
}

// ---------------------------------------------------------------------------
// Sample table
// ---------------------------------------------------------------------------

/// A persisted, versioned Monte-Carlo sample table for one model.
///
/// Build once ([`build`](Self::build) /
/// [`build_sharded`](Self::build_sharded)), persist with
/// [`save`](Self::save), and answer strength queries forever after in
/// microseconds ([`estimate`](Self::estimate)) — no guess enumeration, no
/// model evaluation beyond scoring the query password itself.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleTable {
    model_name: String,
    seed: u64,
    /// Sample log-probabilities, sorted descending (most probable first).
    log_probs: Vec<f64>,
    /// `cum_log_w[i] = ln Σ_{j≤i} exp(−ℓ_j)` — running importance weights.
    cum_log_w: Vec<f64>,
    /// `cum_log_w2[i] = ln Σ_{j≤i} exp(−2ℓ_j)` — for the standard error.
    cum_log_w2: Vec<f64>,
    /// Samples the model declined to score (dropped from the table).
    dropped: usize,
}

/// Numerically stable `ln(eᵃ + eᵇ)`.
fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

impl SampleTable {
    /// Builds a table of `samples` passwords drawn from `model`, on one
    /// thread. Identical to [`build_sharded`](Self::build_sharded) with any
    /// shard count.
    pub fn build(model: &dyn ProbabilityModel, samples: usize, seed: u64) -> SampleTable {
        Self::build_sharded(model, samples, seed, 1)
    }

    /// Builds a table of `samples` passwords drawn from `model`, sampling
    /// and scoring chunks on `shards` worker threads.
    ///
    /// Mirroring the attack engine's guarantee, sharding is a throughput
    /// knob only: each chunk draws from an RNG stream keyed by
    /// `(seed, chunk index)` and chunk outputs are folded in chunk order,
    /// so the table is byte-identical for any shard count.
    pub fn build_sharded(
        model: &dyn ProbabilityModel,
        samples: usize,
        seed: u64,
        shards: usize,
    ) -> SampleTable {
        let num_chunks = samples.div_ceil(BUILD_CHUNK);
        let mut workers = vec![(); passflow_nn::clamp_threads(shards)];
        let chunk_scores = passflow_nn::fan_out(num_chunks, &mut workers, |chunk, _| {
            let len = BUILD_CHUNK.min(samples - chunk * BUILD_CHUNK);
            let mut rng = nnrng::derived(seed, chunk as u64);
            let rng: &mut dyn RngCore = &mut rng;
            let guesses = model.generate_batch(len, rng);
            model.password_log_probs(&guesses)
        });

        let mut log_probs: Vec<f64> = Vec::with_capacity(samples);
        let mut dropped = 0usize;
        for score in chunk_scores.into_iter().flatten() {
            match score {
                Some(lp) => log_probs.push(lp),
                None => dropped += 1,
            }
        }
        // Descending by probability; total order via total_cmp so NaNs (a
        // misbehaving model) cannot poison the sort.
        log_probs.sort_by(|a, b| b.total_cmp(a));
        Self::from_sorted(model.name(), seed, log_probs, dropped)
    }

    /// Assembles a table from already-sorted log-probabilities (descending),
    /// rebuilding the cumulative weight arrays.
    fn from_sorted(
        model_name: &str,
        seed: u64,
        log_probs: Vec<f64>,
        dropped: usize,
    ) -> SampleTable {
        let mut cum_log_w = Vec::with_capacity(log_probs.len());
        let mut cum_log_w2 = Vec::with_capacity(log_probs.len());
        let mut acc = f64::NEG_INFINITY;
        let mut acc2 = f64::NEG_INFINITY;
        for &lp in &log_probs {
            acc = log_add_exp(acc, -lp);
            acc2 = log_add_exp(acc2, -2.0 * lp);
            cum_log_w.push(acc);
            cum_log_w2.push(acc2);
        }
        SampleTable {
            model_name: model_name.to_string(),
            seed,
            log_probs,
            cum_log_w,
            cum_log_w2,
            dropped,
        }
    }

    /// Name of the model the table was built from (a [`Guesser::name`]
    /// label; callers should score queries with the same model).
    ///
    /// [`Guesser::name`]: crate::Guesser::name
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Seed the samples were drawn with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of scored samples backing the estimator.
    pub fn len(&self) -> usize {
        self.log_probs.len()
    }

    /// Whether the table holds no samples.
    pub fn is_empty(&self) -> bool {
        self.log_probs.is_empty()
    }

    /// Samples the model could not score during the build (excluded from
    /// the table; a nonzero count slightly biases ranks downward).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Optimal-attacker guess number for a password with natural-log
    /// probability `log_prob`: one binary search over the sorted samples
    /// plus a rank interpolation over the precomputed cumulative weights.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn estimate(&self, log_prob: f64) -> StrengthEstimate {
        assert!(!self.is_empty(), "cannot estimate from an empty table");
        let n = self.log_probs.len() as f64;
        // Descending order: strictly-greater prefix, then the tied run.
        let above = self.log_probs.partition_point(|&v| v > log_prob);
        let geq = self.log_probs.partition_point(|&v| v >= log_prob);
        let ties = geq - above;

        // Rank interpolation: all strictly-stronger samples count fully,
        // samples tied with the query count half (the query sits in the
        // middle of its probability level).
        let log_w_above = if above > 0 {
            self.cum_log_w[above - 1]
        } else {
            f64::NEG_INFINITY
        };
        let log_w2_above = if above > 0 {
            self.cum_log_w2[above - 1]
        } else {
            f64::NEG_INFINITY
        };
        let (log_w, log_w2) = if ties > 0 {
            let tie = (ties as f64 * 0.5).ln() - log_prob;
            let tie2 = (ties as f64 * 0.5).ln() - 2.0 * log_prob;
            (
                log_add_exp(log_w_above, tie),
                log_add_exp(log_w2_above, tie2),
            )
        } else {
            (log_w_above, log_w2_above)
        };

        let log_g = log_w - n.ln();
        let g = log_g.exp(); // +inf beyond ~e709 — handled by f64 semantics.

        // Rank offset: with no tied samples the query sits just after the
        // stronger mass (`+1`); with ties, half the tie weight is already in
        // `g` and the query's expected position within its own level of K
        // equal-probability passwords is (K+1)/2 = K/2 + ½, so only ½ more.
        let offset = if ties > 0 { 0.5 } else { 1.0 };
        let rank = g + offset;

        // SE of the mean of N importance weights: Var = (M2 − G²)/N with
        // M2 = (1/N)·Σ wᵢ². Computed relative to G so extreme scales stay
        // finite: (se/G)² = (M2/G² − 1)/N.
        let se_rel = if g > 0.0 && log_w2 > f64::NEG_INFINITY {
            let log_m2 = log_w2 - n.ln();
            ((log_m2 - 2.0 * log_g).exp() - 1.0).max(0.0).sqrt() / n.sqrt()
        } else {
            0.0
        };
        let low = ((g * (1.0 - Z95 * se_rel)).max(0.0) + offset).max(1.0);
        let high = (g * (1.0 + Z95 * se_rel) + offset).max(1.0);

        StrengthEstimate {
            log2_guess_number: rank.max(1.0).log2(),
            log2_ci_low: low.log2(),
            log2_ci_high: high.log2(),
            samples_above: above,
        }
    }

    /// Convenience: scores `password` with `model` and estimates its guess
    /// number; `None` if the model cannot score it.
    pub fn estimate_password(
        &self,
        model: &dyn ProbabilityModel,
        password: &str,
    ) -> Option<StrengthEstimate> {
        model
            .password_log_prob(password)
            .map(|lp| self.estimate(lp))
    }

    /// Sampling-attack rank for a password with natural-log probability
    /// `log_prob` — the expected unique-guess count of the engine's static
    /// sampling attacker (see [`SamplingRankEstimate`]). O(N) per query.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn sampling_rank(&self, log_prob: f64) -> SamplingRankEstimate {
        assert!(!self.is_empty(), "cannot estimate from an empty table");
        let n = self.log_probs.len() as f64;
        // t_i = 1/(p(x_i) + p(x)), computed as exp(−ln(e^{ℓ_i} + e^ℓ})).
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for &lp in &self.log_probs {
            let t = (-log_add_exp(lp, log_prob)).exp();
            sum += t;
            sum_sq += t * t;
        }
        let mean = sum / n;
        let rank = 1.0 + mean;
        // Monte-Carlo variance of the mean …
        let var_mc = ((sum_sq / n) - mean * mean).max(0.0) / n;
        // … plus the rank's own run-to-run variance, Σ q(1−q) ≤ R − 1.
        let var_rank = (rank - 1.0).max(0.0);
        let half_width = Z95 * (var_mc + var_rank).sqrt();
        SamplingRankEstimate {
            rank,
            ci_low: (rank - half_width).max(1.0),
            ci_high: rank + half_width,
        }
    }

    // -----------------------------------------------------------------
    // Persistence
    // -----------------------------------------------------------------

    /// Serializes the table to a writer in the versioned `PFSTRENGTH v1`
    /// text format (log-probabilities as hexadecimal IEEE-754 bit patterns,
    /// like the `PASSFLOW` checkpoint formats — bit-exact round trips,
    /// diff-able files).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::IncompatibleWeights`] on I/O failure.
    pub fn save_to_writer<W: Write>(&self, writer: &mut W) -> Result<()> {
        let io_err =
            |e: std::io::Error| FlowError::IncompatibleWeights(format!("write failed: {e}"));
        writeln!(writer, "{MAGIC_V1}").map_err(io_err)?;
        writeln!(writer, "model {}", self.model_name).map_err(io_err)?;
        writeln!(writer, "seed {}", self.seed).map_err(io_err)?;
        writeln!(writer, "dropped {}", self.dropped).map_err(io_err)?;
        writeln!(writer, "samples {}", self.log_probs.len()).map_err(io_err)?;
        for line in self.log_probs.chunks(256) {
            let words: Vec<String> = line
                .iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect();
            writeln!(writer, "{}", words.join(" ")).map_err(io_err)?;
        }
        writeln!(writer, "end").map_err(io_err)
    }

    /// Saves the table to a file (see [`save_to_writer`](Self::save_to_writer)).
    /// The write is atomic: on failure the previous file at `path` is kept.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::IncompatibleWeights`] on I/O failure.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let mut buf = Vec::new();
        self.save_to_writer(&mut buf)?;
        passflow_store::write_atomic(path.as_ref(), &buf)
            .map_err(|e| FlowError::IncompatibleWeights(format!("write failed: {e}")))
    }

    /// Deserializes a table from a reader, validating the format version
    /// and rebuilding the cumulative weight arrays.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::IncompatibleWeights`] if the header, version or
    /// sample block is malformed.
    pub fn load_from_reader<R: Read>(reader: R) -> Result<SampleTable> {
        let malformed = |msg: &str| FlowError::IncompatibleWeights(format!("sample table: {msg}"));
        let mut lines = BufReader::new(reader).lines();
        let mut next_line = |what: &str| -> Result<String> {
            lines
                .next()
                .transpose()
                .map_err(|e| malformed(&format!("read failed: {e}")))?
                .ok_or_else(|| malformed(&format!("missing {what}")))
        };

        let magic = next_line("magic")?;
        if magic.trim() != MAGIC_V1 {
            return Err(malformed(&format!(
                "unsupported format {:?} (expected {MAGIC_V1:?})",
                magic.trim()
            )));
        }
        let field = |line: String, key: &str| -> Result<String> {
            line.strip_prefix(key)
                .map(|rest| rest.trim().to_string())
                .ok_or_else(|| malformed(&format!("expected {key:?} line, got {line:?}")))
        };
        let model_name = field(next_line("model")?, "model")?;
        let seed: u64 = field(next_line("seed")?, "seed")?
            .parse()
            .map_err(|_| malformed("bad seed"))?;
        let dropped: usize = field(next_line("dropped")?, "dropped")?
            .parse()
            .map_err(|_| malformed("bad dropped count"))?;
        let samples: usize = field(next_line("samples")?, "samples")?
            .parse()
            .map_err(|_| malformed("bad sample count"))?;

        let mut log_probs: Vec<f64> = Vec::with_capacity(samples);
        while log_probs.len() < samples {
            let line = next_line("sample block")?;
            for word in line.split_whitespace() {
                let bits = u64::from_str_radix(word, 16)
                    .map_err(|_| malformed(&format!("bad sample word {word:?}")))?;
                log_probs.push(f64::from_bits(bits));
            }
        }
        if log_probs.len() != samples {
            return Err(malformed("sample block longer than declared"));
        }
        if next_line("end marker")?.trim() != "end" {
            return Err(malformed("missing end marker"));
        }
        if log_probs.windows(2).any(|w| w[0].total_cmp(&w[1]).is_lt()) {
            return Err(malformed("samples are not sorted descending"));
        }
        Ok(Self::from_sorted(&model_name, seed, log_probs, dropped))
    }

    /// Loads a table from a file (see
    /// [`load_from_reader`](Self::load_from_reader)).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::IncompatibleWeights`] if the file cannot be
    /// read or is malformed.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<SampleTable> {
        let file = fs::File::open(path)
            .map_err(|e| FlowError::IncompatibleWeights(format!("open failed: {e}")))?;
        Self::load_from_reader(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// A toy exact model: four passwords with fixed probabilities.
    struct Toy;

    const TOY: [(&str, f64); 4] = [("a", 0.4), ("b", 0.3), ("c", 0.2), ("d", 0.1)];

    impl crate::engine::Guesser for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn generate_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
            (0..n)
                .map(|_| {
                    let u = (rng.next_u32() as f64) / (u32::MAX as f64);
                    let mut acc = 0.0;
                    for (pw, p) in TOY {
                        acc += p;
                        if u <= acc {
                            return pw.to_string();
                        }
                    }
                    "d".to_string()
                })
                .collect()
        }
    }

    impl ProbabilityModel for Toy {
        fn password_log_prob(&self, password: &str) -> Option<f64> {
            TOY.iter()
                .find(|(pw, _)| *pw == password)
                .map(|(_, p)| p.ln())
        }
    }

    #[test]
    fn estimates_recover_exact_ranks_on_a_toy_model() {
        let table = SampleTable::build(&Toy, 4_000, 3);
        assert_eq!(table.dropped(), 0);
        // True descending-probability ranks: a=1, b=2, c=3, d=4.
        for (i, (pw, _)) in TOY.iter().enumerate() {
            let lp = Toy.password_log_prob(pw).unwrap();
            let est = table.estimate(lp);
            let true_rank = (i + 1) as f64;
            let (lo, hi) = est.ci();
            assert!(
                lo <= true_rank && true_rank <= hi,
                "{pw}: rank {true_rank} outside [{lo:.2}, {hi:.2}] (est {:.2})",
                est.guess_number()
            );
        }
    }

    #[test]
    fn estimates_are_monotone_in_probability() {
        let table = SampleTable::build(&Toy, 2_000, 5);
        let ranks: Vec<f64> = TOY
            .iter()
            .map(|(pw, _)| {
                table
                    .estimate(Toy.password_log_prob(pw).unwrap())
                    .guess_number()
            })
            .collect();
        for pair in ranks.windows(2) {
            assert!(pair[0] <= pair[1], "ranks must grow as probability falls");
        }
        // An impossible password ranks beyond every sample.
        let worst = table.estimate(-40.0);
        assert!(worst.guess_number() >= ranks[3]);
        assert_eq!(worst.samples_above, table.len());
    }

    #[test]
    fn sharded_build_is_identical_to_sequential() {
        let sequential = SampleTable::build(&Toy, 3_000, 7);
        for shards in [2, 4, 8] {
            let sharded = SampleTable::build_sharded(&Toy, 3_000, 7, shards);
            assert_eq!(sharded, sequential, "shards={shards} diverged");
        }
    }

    #[test]
    fn save_load_round_trips_bit_exactly() {
        let table = SampleTable::build(&Toy, 1_500, 11);
        let mut buf = Vec::new();
        table.save_to_writer(&mut buf).unwrap();
        let loaded = SampleTable::load_from_reader(&buf[..]).unwrap();
        assert_eq!(loaded, table);
        assert_eq!(loaded.model_name(), "toy");
        assert_eq!(loaded.seed(), 11);
    }

    #[test]
    fn failed_save_keeps_the_previous_table() {
        let dir = std::env::temp_dir().join(format!("pfstrength-save-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.pfs");
        let previous = SampleTable::build(&Toy, 256, 1);
        previous.save(&path).unwrap();
        let before = fs::read(&path).unwrap();
        // A directory squatting on the tmp name makes the write fail.
        fs::create_dir_all(dir.join("table.pfs.tmp")).unwrap();
        assert!(SampleTable::build(&Toy, 512, 2).save(&path).is_err());
        assert_eq!(fs::read(&path).unwrap(), before);
        assert_eq!(SampleTable::load(&path).unwrap(), previous);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loader_rejects_malformed_tables() {
        let bad_magic = b"PFSTRENGTH v9\nmodel t\nseed 0\ndropped 0\nsamples 0\nend\n";
        assert!(SampleTable::load_from_reader(&bad_magic[..]).is_err());

        let table = SampleTable::build(&Toy, 64, 1);
        let mut buf = Vec::new();
        table.save_to_writer(&mut buf).unwrap();
        // Truncated sample block.
        let cut = buf.len() - 40;
        assert!(SampleTable::load_from_reader(&buf[..cut]).is_err());

        // Unsorted samples are rejected.
        let unsorted =
            b"PFSTRENGTH v1\nmodel t\nseed 0\ndropped 0\nsamples 2\nbff0000000000000 bfe0000000000000\nend\n";
        assert!(SampleTable::load_from_reader(&unsorted[..]).is_err());
    }

    #[test]
    fn sampling_rank_tracks_theory_on_the_toy_model() {
        let table = SampleTable::build(&Toy, 4_000, 13);
        // Exact expected unique rank of "a": 1 + Σ_{y≠a} p(y)/(p(y)+p(a)).
        let pa = 0.4;
        let exact: f64 = 1.0 + [0.3, 0.2, 0.1].iter().map(|p| p / (p + pa)).sum::<f64>();
        let est = table.sampling_rank(pa.ln());
        assert!(
            est.contains(exact),
            "exact {exact:.3} outside [{:.3}, {:.3}]",
            est.ci_low,
            est.ci_high
        );
        assert!(est.ci_low >= 1.0);
    }

    #[test]
    #[should_panic(expected = "empty table")]
    fn empty_table_estimates_panic() {
        let table = SampleTable::from_sorted("empty", 0, Vec::new(), 0);
        let _ = table.estimate(-1.0);
    }
}
