//! `PFTRACE v1` request traces: record, synthesize and replay serving
//! workloads deterministically.
//!
//! A trace is a compact, versioned binary artifact describing a request
//! stream — inter-arrival gaps, endpoint mix and (heavy-tailed) batch
//! sizes — without storing any password text. Each record carries a
//! `pw_seed` from which its passwords are *derived* (SplitMix64 over a
//! lowercase+digits charset), so:
//!
//! * traces are small (16 bytes per request, no matter the batch size),
//! * replaying the same trace always issues the byte-identical request
//!   multiset, on any machine, at any lane count — which is what makes
//!   "multi-lane serving is bit-identical to single-lane" an assertable
//!   property at the workload level rather than per-request,
//! * recorded production traffic could be re-seeded, shipped and replayed
//!   without ever moving a real password.
//!
//! ## Byte layout (all integers little-endian)
//!
//! ```text
//! header — 32 bytes
//!   0   8  magic          b"PFTRACE1"
//!   8   4  version        u32 = 1
//!   12  8  record_count   u64
//!   20  8  seed           u64 (synth seed, or 0 for recorded traces)
//!   28  4  checksum       u32 FNV-1a over all record bytes
//! record — 16 bytes, record_count times
//!   0   4  gap_us         u32 microseconds since the previous request
//!   4   1  endpoint       u8: 0 = /v1/score, 1 = /v1/logprob, 2 = /v1/screen
//!   5   1  batch          u8 passwords in the request (1..=255)
//!   6   2  reserved       u16 = 0
//!   8   8  pw_seed        u64 SplitMix64 seed for the password derivation
//! ```
//!
//! Loading rejects bad magic, unknown versions, truncated or oversized
//! bodies, and checksum mismatches — a corrupt benchmark input fails
//! loudly instead of silently measuring the wrong workload.

use std::io::Read;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use passflow_nn::fan_out;
use passflow_store::io::splitmix64;

use crate::client::Connection;
use crate::json;

/// Magic bytes opening every trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"PFTRACE1";
/// Current format version.
pub const TRACE_VERSION: u32 = 1;
/// Header size in bytes.
const HEADER_LEN: usize = 32;
/// Record size in bytes.
const RECORD_LEN: usize = 16;

/// The endpoint a trace record replays against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/score` — strength scoring.
    Score,
    /// `POST /v1/logprob` — log-probabilities only.
    LogProb,
    /// `POST /v1/screen` — scoring plus breach membership.
    Screen,
}

impl Endpoint {
    fn from_byte(byte: u8) -> Result<Endpoint, String> {
        match byte {
            0 => Ok(Endpoint::Score),
            1 => Ok(Endpoint::LogProb),
            2 => Ok(Endpoint::Screen),
            other => Err(format!("unknown endpoint tag {other}")),
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            Endpoint::Score => 0,
            Endpoint::LogProb => 1,
            Endpoint::Screen => 2,
        }
    }

    /// The request path this endpoint replays against.
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Score => "/v1/score",
            Endpoint::LogProb => "/v1/logprob",
            Endpoint::Screen => "/v1/screen",
        }
    }
}

/// One request in a trace: when (relative), where, and how big.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Microseconds since the previous record (0 for the first, or for
    /// requests fired back-to-back in a burst).
    pub gap_us: u32,
    /// Which endpoint the request hits.
    pub endpoint: Endpoint,
    /// Passwords in the request body (1..=255).
    pub batch: u8,
    /// Seed the request's passwords are derived from.
    pub pw_seed: u64,
}

impl TraceRecord {
    /// Derives this record's passwords: `batch` strings of 6–13
    /// lowercase+digit characters from SplitMix64 over `pw_seed`. Pure —
    /// same record, same passwords, forever.
    pub fn passwords(&self) -> Vec<String> {
        const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let mut state = self.pw_seed;
        (0..self.batch.max(1))
            .map(|_| {
                let len = 6 + (splitmix64(&mut state) % 8) as usize;
                (0..len)
                    .map(|_| CHARSET[(splitmix64(&mut state) % CHARSET.len() as u64) as usize])
                    .map(char::from)
                    .collect()
            })
            .collect()
    }

    /// The JSON request body replay sends (passwords derived on the fly).
    pub fn body(&self) -> String {
        let items: Vec<String> = self
            .passwords()
            .into_iter()
            .map(|p| format!("\"{p}\""))
            .collect();
        format!("{{\"passwords\":[{}]}}", items.join(","))
    }

    fn to_bytes(self) -> [u8; RECORD_LEN] {
        let mut bytes = [0u8; RECORD_LEN];
        bytes[0..4].copy_from_slice(&self.gap_us.to_le_bytes());
        bytes[4] = self.endpoint.to_byte();
        bytes[5] = self.batch;
        // bytes 6..8 reserved, already zero
        bytes[8..16].copy_from_slice(&self.pw_seed.to_le_bytes());
        bytes
    }

    fn from_bytes(bytes: &[u8]) -> Result<TraceRecord, String> {
        if bytes[6] != 0 || bytes[7] != 0 {
            return Err("reserved record bytes must be zero".to_string());
        }
        Ok(TraceRecord {
            gap_us: u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")),
            endpoint: Endpoint::from_byte(bytes[4])?,
            batch: bytes[5],
            pw_seed: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        })
    }
}

/// Tuning for [`Trace::synth`]: a seeded synthetic workload shaped like
/// real password-screening traffic — bursty arrivals, a heavy-tailed
/// batch-size distribution, and a configurable endpoint mix.
#[derive(Clone, Copy, Debug)]
pub struct TraceSynthProfile {
    /// Mean inter-arrival gap in microseconds (exponential, with bursts).
    pub mean_gap_us: u32,
    /// Out of 1000 requests, how many arrive back-to-back with the
    /// previous one (gap 0) — models clients firing batched check-ups.
    pub burst_per_mille: u32,
    /// Out of 1000 requests, how many hit `/v1/screen`.
    pub screen_per_mille: u32,
    /// Out of 1000 requests, how many hit `/v1/logprob`.
    pub logprob_per_mille: u32,
    /// Cap on the heavy-tailed per-request batch size (1..=255).
    pub max_batch: u8,
}

impl Default for TraceSynthProfile {
    fn default() -> Self {
        TraceSynthProfile {
            mean_gap_us: 500,
            burst_per_mille: 300,
            screen_per_mille: 100,
            logprob_per_mille: 100,
            max_batch: 32,
        }
    }
}

/// A versioned request trace: the synth seed (0 for recorded traces) plus
/// the ordered records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The seed [`Trace::synth`] was called with (0 for recorded traces).
    pub seed: u64,
    /// The request stream, in arrival order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Synthesizes a `count`-request trace from `seed`. Fully
    /// deterministic: same seed and profile, same trace, any machine.
    pub fn synth(seed: u64, count: usize, profile: &TraceSynthProfile) -> Trace {
        let mut state = seed ^ 0x5055_4654_5241_4345; // domain-separate from pw seeds
        let records = (0..count)
            .map(|_| {
                let roll = splitmix64(&mut state) % 1000;
                let endpoint = if roll < profile.screen_per_mille as u64 {
                    Endpoint::Screen
                } else if roll < (profile.screen_per_mille + profile.logprob_per_mille) as u64 {
                    Endpoint::LogProb
                } else {
                    Endpoint::Score
                };
                let gap_us = if splitmix64(&mut state) % 1000 < profile.burst_per_mille as u64 {
                    0
                } else {
                    // Exponential inter-arrival via inverse CDF.
                    let u = to_unit(splitmix64(&mut state));
                    (-(profile.mean_gap_us as f64) * u.ln()).min(u32::MAX as f64) as u32
                };
                // Heavy-tailed batch size: Pareto(α≈1.16) truncated at
                // max_batch — mostly singletons, occasional big batches.
                let u = to_unit(splitmix64(&mut state));
                let batch = (1.0 / u.powf(1.0 / 1.16))
                    .min(profile.max_batch.max(1) as f64)
                    .max(1.0) as u8;
                let pw_seed = splitmix64(&mut state);
                TraceRecord {
                    gap_us,
                    endpoint,
                    batch,
                    pw_seed,
                }
            })
            .collect();
        Trace { seed, records }
    }

    /// Serializes the trace (header + records + checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.records.len() * RECORD_LEN);
        for record in &self.records {
            body.extend_from_slice(&record.to_bytes());
        }
        let mut bytes = Vec::with_capacity(HEADER_LEN + body.len());
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes
    }

    /// Parses a serialized trace.
    ///
    /// # Errors
    ///
    /// Rejects bad magic, unknown versions, length mismatches, nonzero
    /// reserved bytes, unknown endpoint tags and checksum mismatches.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, String> {
        if bytes.len() < HEADER_LEN {
            return Err(format!("trace too short: {} bytes", bytes.len()));
        }
        if bytes[0..8] != TRACE_MAGIC {
            return Err("bad magic: not a PFTRACE file".to_string());
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != TRACE_VERSION {
            return Err(format!("unsupported trace version {version}"));
        }
        let count = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        let seed = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let checksum = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes"));
        let body = &bytes[HEADER_LEN..];
        if count.checked_mul(RECORD_LEN) != Some(body.len()) {
            return Err(format!(
                "length mismatch: header says {count} records, body holds {} bytes",
                body.len()
            ));
        }
        if fnv1a(body) != checksum {
            return Err("checksum mismatch: trace is corrupt".to_string());
        }
        let records = body
            .chunks_exact(RECORD_LEN)
            .map(TraceRecord::from_bytes)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace { seed, records })
    }

    /// Writes the trace to `path` atomically: a failed write leaves the
    /// previous file at `path` intact.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        passflow_store::write_atomic(path, &self.to_bytes())
    }

    /// Loads a trace from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; format errors surface as `InvalidData`.
    pub fn load(path: &Path) -> std::io::Result<Trace> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Trace::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Total passwords across all records (the workload's row count).
    pub fn total_passwords(&self) -> u64 {
        self.records.iter().map(|r| r.batch.max(1) as u64).sum()
    }
}

/// One replayed request's observable outcome — everything that must be
/// invariant across lane counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Index of the trace record this outcome belongs to.
    pub index: usize,
    /// HTTP status the server answered.
    pub status: u16,
    /// Exact IEEE-754 bit patterns (`log_prob_bits`) per password, in
    /// request order; `"null"` for unencodable passwords. Empty for
    /// non-200 answers.
    pub bits: Vec<String>,
    /// Breach verdicts (`"true"`/`"false"`/`"null"`) per password for
    /// `/v1/screen` records; empty for the scoring endpoints.
    pub verdicts: Vec<String>,
}

/// Replays `trace` against a live server on `addr` with a pool of
/// `clients` keep-alive connections, honoring inter-arrival gaps.
///
/// Records are dispatched in trace order: each client claims the next
/// record, sleeps until its cumulative offset from replay start, fires,
/// and parses the response. Outcomes come back in record order, so two
/// replays of the same trace are directly comparable — the
/// cross-lane-count bit-identity check in `tests/trace.rs` and the bench
/// is `assert_eq!(outcomes_a, outcomes_b)`. Clients wait on the network,
/// not the CPU, so their count is not clamped to the host's cores.
///
/// # Errors
///
/// Returns the first connection-level error in record order (HTTP error
/// statuses are outcomes, not errors). A client whose connection failed
/// sends nothing more.
pub fn replay(
    addr: SocketAddr,
    trace: &Trace,
    clients: usize,
) -> std::io::Result<Vec<ReplayOutcome>> {
    // Cumulative send offsets from replay start.
    let mut offsets = Vec::with_capacity(trace.records.len());
    let mut acc = Duration::ZERO;
    for record in &trace.records {
        acc += Duration::from_micros(record.gap_us as u64);
        offsets.push(acc);
    }
    let mut conns = (0..clients.max(1))
        .map(|_| Connection::open(addr, Duration::from_secs(30)).map(Some))
        .collect::<std::io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let outcomes = fan_out(trace.records.len(), &mut conns, |index, conn| {
        // Claims are handed out in increasing order, so a claim failed
        // here comes after the error that closed this client.
        let Some(live) = conn.as_mut() else {
            return Err(std::io::Error::other(
                "replay client closed by an earlier error",
            ));
        };
        let target = start + offsets[index];
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let record = &trace.records[index];
        let response = live
            .request("POST", record.endpoint.path(), Some(&record.body()))
            .inspect_err(|_| *conn = None)?;
        let (bits, verdicts) = if response.status == 200 {
            extract_outcome_fields(&response.text())
        } else {
            (Vec::new(), Vec::new())
        };
        Ok(ReplayOutcome {
            index,
            status: response.status,
            bits,
            verdicts,
        })
    });
    outcomes.into_iter().collect()
}

/// Pulls the per-password `log_prob_bits` strings (and, for screen
/// responses, the `breached` verdicts) out of a response body; `"null"`
/// for null results.
fn extract_outcome_fields(body: &str) -> (Vec<String>, Vec<String>) {
    let Ok(doc) = json::parse(body) else {
        return (Vec::new(), Vec::new());
    };
    let Some(results) = doc.get("results").and_then(|r| r.as_arr()) else {
        return (Vec::new(), Vec::new());
    };
    let bits = results
        .iter()
        .map(|entry| {
            entry
                .get("log_prob_bits")
                .and_then(|b| b.as_str())
                .unwrap_or("null")
                .to_string()
        })
        .collect();
    let verdicts = results
        .iter()
        .filter_map(|entry| entry.get("breached").map(|v| v.to_string()))
        .collect();
    (bits, verdicts)
}

/// Maps a u64 to (0, 1] — never 0, so `ln` and `powf` stay finite.
fn to_unit(x: u64) -> f64 {
    ((x >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// FNV-1a over `bytes` (32-bit).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &byte in bytes {
        hash ^= byte as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_is_deterministic_and_seed_sensitive() {
        let profile = TraceSynthProfile::default();
        let a = Trace::synth(7, 200, &profile);
        let b = Trace::synth(7, 200, &profile);
        let c = Trace::synth(8, 200, &profile);
        assert_eq!(a, b, "same seed must synthesize the same trace");
        assert_ne!(a, c, "different seeds must differ");
        assert!(a
            .records
            .iter()
            .all(|r| (1..=255).contains(&(r.batch as u32))));
        // The endpoint mix must actually mix.
        assert!(a.records.iter().any(|r| r.endpoint == Endpoint::Score));
        assert!(a.records.iter().any(|r| r.endpoint == Endpoint::Screen));
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let trace = Trace::synth(42, 300, &TraceSynthProfile::default());
        let bytes = trace.to_bytes();
        let parsed = Trace::from_bytes(&bytes).expect("valid trace");
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_bytes(), bytes, "re-serialization is stable");
    }

    #[test]
    fn corruption_is_rejected() {
        let trace = Trace::synth(1, 10, &TraceSynthProfile::default());
        let good = trace.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Trace::from_bytes(&bad_magic).unwrap_err().contains("magic"));

        let mut bad_version = good.clone();
        bad_version[8] = 99;
        assert!(Trace::from_bytes(&bad_version)
            .unwrap_err()
            .contains("version"));

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(Trace::from_bytes(&flipped)
            .unwrap_err()
            .contains("checksum"));

        let truncated = &good[..good.len() - RECORD_LEN];
        assert!(Trace::from_bytes(truncated)
            .unwrap_err()
            .contains("mismatch"));

        // A header claiming 2^60 records over an empty, correctly
        // checksummed body: the byte count overflows and must still read
        // as a length mismatch, not a panic or an empty trace.
        let mut huge = good[..HEADER_LEN].to_vec();
        huge[12..20].copy_from_slice(&(1u64 << 60).to_le_bytes());
        huge[28..32].copy_from_slice(&fnv1a(&[]).to_le_bytes());
        assert!(Trace::from_bytes(&huge)
            .unwrap_err()
            .contains("length mismatch"));
    }

    #[test]
    fn passwords_derive_deterministically_from_the_record_seed() {
        let record = TraceRecord {
            gap_us: 0,
            endpoint: Endpoint::Score,
            batch: 5,
            pw_seed: 0xDEADBEEF,
        };
        let a = record.passwords();
        let b = record.passwords();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|p| (6..=13).contains(&p.len())));
        assert!(a.iter().all(|p| p
            .bytes()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())));
        let other = TraceRecord {
            pw_seed: 0xDEADBEF0,
            ..record
        };
        assert_ne!(a, other.passwords(), "different seeds, different passwords");
    }
}
