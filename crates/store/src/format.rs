//! The `PFDIGEST v1` digest store, and the crate's shared primitives.
//!
//! A digest store is a sorted set of truncated SHA-1 digests with optional
//! breach counts, in the sorted-block container shared with `PFGUESS v1`
//! (layout: `sorted.rs`; full field spec: DESIGN.md, "Artifact schemas").
//! This module holds what is the digest format's own: [`DigestConfig`],
//! which is also its key codec, digest lookups, k-anonymity
//! `range` queries and the password entry points.
//!
//! Digest keys are fixed-width. Within a block the first record's digest is
//! stored raw; every following record stores one byte of shared-prefix
//! length with its predecessor plus the differing suffix — sorted digests
//! share long prefixes, so this is the "delta" form of a digest list. The
//! index stores each block's first digest at the same fixed width. Any
//! digest or digest-prefix range costs one index binary search plus one
//! positioned read per touched block, so lookups never scan the artifact.
//!
//! The module also owns the error type, LEB128 varints and FNV-1a-64 that
//! the whole crate (and `passflow-core`'s checkpoints) share.

use std::path::Path;

use crate::sha1;
use crate::sorted::{
    self, KeyCodec, SortedBuilder, SortedCursor, SortedStore, SortedWriter, Stats,
};

/// Errors raised by the store layer.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure reading or writing an artifact.
    Io(std::io::Error),
    /// A malformed artifact, query or record stream (message says where).
    Format(String),
    /// A positioned read failed even after the bounded retry discipline in
    /// [`crate::io::read_exact_at`] — the artifact is (for now) unreachable,
    /// not provably corrupt. Serving layers treat this as "store
    /// unavailable": degrade or 503, never 500, and feed the circuit
    /// breaker.
    Unavailable {
        /// What the store was doing when the read failed.
        context: String,
        /// The final I/O error after retries were exhausted.
        error: std::io::Error,
    },
}

impl StoreError {
    /// Whether this is a retryable-availability failure (as opposed to
    /// provable corruption or a write-path I/O error).
    pub fn is_unavailable(&self) -> bool {
        matches!(self, StoreError::Unavailable { .. })
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Format(msg) => write!(f, "format error: {msg}"),
            StoreError::Unavailable { context, error } => {
                write!(f, "store unavailable ({context}): {error}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Store-layer result type.
pub type Result<T> = std::result::Result<T, StoreError>;

pub(crate) fn format_err<T>(msg: impl Into<String>) -> Result<T> {
    Err(StoreError::Format(msg.into()))
}

/// Tuning knobs baked into an artifact's header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DigestConfig {
    /// Stored bytes per digest (4..=20, truncated from SHA-1's 20). 16
    /// bytes keep the accidental-collision odds negligible (`2⁻¹²⁸`-ish
    /// per pair) at 20% less space than full digests.
    pub digest_bytes: usize,
    /// Whether per-record breach counts are stored. Without counts every
    /// lookup reports a count of 1 (pure membership).
    pub counts: bool,
    /// Records per compressed block — the random-access granularity. Small
    /// blocks seek less data per query; large blocks compress better.
    pub records_per_block: usize,
}

impl Default for DigestConfig {
    fn default() -> Self {
        DigestConfig {
            digest_bytes: 16,
            counts: true,
            records_per_block: 1024,
        }
    }
}

impl DigestConfig {
    /// Checks the invariants enforced on both write and load.
    pub fn validate(&self) -> Result<()> {
        if !(4..=sha1::DIGEST_LEN).contains(&self.digest_bytes) {
            return format_err(format!(
                "digest_bytes must be 4..=20, got {}",
                self.digest_bytes
            ));
        }
        if self.records_per_block == 0 || self.records_per_block > u32::MAX as usize {
            return format_err("records_per_block must be positive and fit in u32");
        }
        Ok(())
    }
}

/// A record key: full-width digest storage, significant up to
/// `digest_bytes` (the tail is zero so array comparison orders correctly).
pub type RawDigest = [u8; sha1::DIGEST_LEN];

/// Truncates `digest` to `digest_bytes`, zero-padding the tail.
pub fn truncate_digest(digest: &[u8], digest_bytes: usize) -> RawDigest {
    let mut out = [0u8; sha1::DIGEST_LEN];
    let take = digest.len().min(digest_bytes);
    out[..take].copy_from_slice(&digest[..take]);
    out
}

// ---------------------------------------------------------------------------
// Primitive codecs
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint from a byte source — the crate's one decoder,
/// behind both the slice reader below and the guess stream reader.
/// `Ok(None)` means the source ended before the first byte; a source that
/// ends mid-varint, or a varint longer than 64 bits, is an error.
pub(crate) fn decode_varint(mut next: impl FnMut() -> Result<Option<u8>>) -> Result<Option<u64>> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let Some(byte) = next()? else {
            return if shift == 0 {
                Ok(None)
            } else {
                format_err("truncated varint")
            };
        };
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(Some(v));
        }
    }
    format_err("varint longer than 64 bits")
}

/// Reads a LEB128 varint from `data[*pos..]`.
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let next = || {
        let byte = data.get(*pos).copied();
        *pos += usize::from(byte.is_some());
        Ok(byte)
    };
    decode_varint(next)?.ok_or_else(|| StoreError::Format("truncated varint".to_string()))
}

/// Folds `bytes` into a running FNV-1a 64-bit hash (start from
/// [`FNV_SEED`]). The workspace's one FNV-1a-64: the store's record
/// checksums, the attack checkpoint format and the engine's state digests
/// all use it.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis (checksum seed).
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// An [`std::io::Write`] sink folding every byte written into an FNV-1a-64
/// hash (the field, seeded with [`FNV_SEED`]), so a digest of serialized
/// bytes needs no buffer to hold them.
#[derive(Clone, Debug)]
pub struct Fnv1aWriter(pub u64);

impl std::io::Write for Fnv1aWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 = fnv1a(self.0, buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The digest key codec
// ---------------------------------------------------------------------------

impl KeyCodec for DigestConfig {
    type Key = RawDigest;
    const MAGIC: &'static [u8; 8] = b"PFDIGEST";
    const NAME: &'static str = "PFDIGEST";
    const RUN_PREFIX: &'static str = "pfdigest";

    fn counts(&self) -> bool {
        self.counts
    }

    fn records_per_block(&self) -> usize {
        self.records_per_block
    }

    fn check(&self) -> Result<()> {
        self.validate()
    }

    fn flags(&self) -> [u8; 4] {
        [self.digest_bytes as u8, u8::from(self.counts), 0, 0]
    }

    fn from_header(flags: [u8; 4], records_per_block: usize) -> Result<Self> {
        let config = DigestConfig {
            digest_bytes: usize::from(flags[0]),
            counts: match flags[1] {
                0 => false,
                1 => true,
                other => return format_err(format!("bad counts flag {other}")),
            },
            records_per_block,
        };
        config.validate()?;
        Ok(config)
    }

    fn key_bytes<'k>(&self, key: &'k RawDigest) -> &'k [u8] {
        &key[..self.digest_bytes]
    }

    fn key_from_vec(&self, bytes: Vec<u8>) -> RawDigest {
        truncate_digest(&bytes, self.digest_bytes)
    }

    fn word_key(&self, word: &str) -> Result<RawDigest> {
        Ok(truncate_digest(
            &sha1::password_digest(word),
            self.digest_bytes,
        ))
    }

    fn encode_key(&self, prev: Option<&[u8]>, key: &[u8], out: &mut Vec<u8>) {
        let shared = prev.map_or(0, |prev| {
            let shared = prev.iter().zip(key).take_while(|(a, b)| a == b).count();
            out.push(shared as u8);
            shared
        });
        out.extend_from_slice(&key[shared..]);
    }

    fn decode_key(
        &self,
        raw: &[u8],
        pos: &mut usize,
        first: bool,
        key: &mut RawDigest,
    ) -> Result<()> {
        let db = self.digest_bytes;
        let shared = if first {
            0
        } else {
            let Some(&shared) = raw.get(*pos) else {
                return format_err("truncated record header in block");
            };
            *pos += 1;
            if usize::from(shared) >= db {
                return format_err("shared-prefix length out of range");
            }
            usize::from(shared)
        };
        let Some(suffix) = raw.get(*pos..*pos + (db - shared)) else {
            return format_err("truncated record in block");
        };
        key[shared..db].copy_from_slice(suffix);
        *pos += db - shared;
        Ok(())
    }

    fn encode_index_key(&self, key: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(key);
    }

    fn decode_index_key(&self, raw: &[u8], pos: &mut usize) -> Result<RawDigest> {
        let Some(bytes) = raw.get(*pos..*pos + self.digest_bytes) else {
            return format_err("truncated index entry");
        };
        *pos += self.digest_bytes;
        Ok(truncate_digest(bytes, self.digest_bytes))
    }

    /// The count hashed is the count a reader will *see* (1 when counts are
    /// disabled), so the checksum binds exactly the records a cursor replays.
    fn checksum(hash: u64, key: &[u8], count: u64) -> u64 {
        fnv1a(fnv1a(hash, key), &count.to_le_bytes())
    }

    fn show(key: &[u8]) -> String {
        sha1::to_hex(key)
    }
}

/// Summary of a finished digest store.
pub type DigestStats = Stats;

/// Streams a **strictly ascending** digest sequence into a `PFDIGEST v1`
/// store, committed atomically by `finish`.
pub type ArtifactWriter = SortedWriter<DigestConfig>;

/// An open, random-access `PFDIGEST v1` store.
pub type DigestStore = SortedStore<DigestConfig>;

/// Streaming, block-at-a-time iteration over a digest store.
pub type RecordCursor<'a> = SortedCursor<'a, DigestConfig>;

/// Bounded-memory streaming construction of `PFDIGEST v1` stores (an
/// external merge sort over password or digest streams).
pub type DigestStoreBuilder = SortedBuilder<DigestConfig>;

impl ArtifactWriter {
    /// Appends one record. `digest` may be a full SHA-1 digest or already
    /// truncated; only the first `digest_bytes` matter. A zero `count` is
    /// stored as 1 (a present record was seen at least once).
    ///
    /// # Errors
    ///
    /// Rejects records that are not strictly greater than their
    /// predecessor (the caller owns sorting and dedup), and I/O failures.
    pub fn push(&mut self, digest: &[u8], count: u64) -> Result<()> {
        let db = check_digest_len(digest, self.config())?;
        self.push_key(&digest[..db], count)
    }
}

/// The store width, or an error for a digest shorter than it.
fn check_digest_len(digest: &[u8], config: DigestConfig) -> Result<usize> {
    let db = config.digest_bytes;
    if digest.len() < db {
        return format_err(format!(
            "digest is {} bytes, store needs at least {db}",
            digest.len()
        ));
    }
    Ok(db)
}

/// One suffix revealed by a k-anonymity range query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeEntry {
    /// Uppercase hex of the stored digest *after* the queried prefix.
    pub suffix: String,
    /// Breach count (1 for membership-only stores).
    pub count: u64,
}

impl DigestStore {
    /// Looks up a digest (full or truncated); returns its count, or `None`
    /// if absent. Counts are 1 for membership-only stores.
    ///
    /// # Errors
    ///
    /// I/O or block-decoding failures.
    pub fn contains_digest(&self, digest: &[u8]) -> Result<Option<u64>> {
        self.lookup(&truncate_digest(digest, self.config().digest_bytes))
    }

    /// Looks up `SHA1(password)`; the serving screen endpoint and the
    /// offline strength reports share this exact path.
    ///
    /// # Errors
    ///
    /// I/O or block-decoding failures.
    pub fn contains_password(&self, password: &str) -> Result<Option<u64>> {
        self.contains_digest(&sha1::password_digest(password))
    }

    /// K-anonymity range query: all stored records whose digest starts
    /// with `prefix_hex` (1 to `2·digest_bytes` hex characters, any case),
    /// as `(suffix, count)` pairs in ascending digest order.
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] for an empty, non-hex or too-long prefix;
    /// I/O or block-decoding failures.
    pub fn range(&self, prefix_hex: &str) -> Result<Vec<RangeEntry>> {
        let db = self.config().digest_bytes;
        let Some(nibbles) = sha1::parse_nibbles(prefix_hex) else {
            return format_err(format!("prefix {prefix_hex:?} is not hexadecimal"));
        };
        if nibbles.is_empty() || nibbles.len() > db * 2 {
            return format_err(format!(
                "prefix must be 1..={} hex characters, got {}",
                db * 2,
                nibbles.len()
            ));
        }

        // Bounds of the prefix range: nibbles padded with 0x0 / 0xF.
        let mut lo = [0u8; sha1::DIGEST_LEN];
        let mut hi = [0u8; sha1::DIGEST_LEN];
        hi[..db].fill(0xff);
        for (i, &nib) in nibbles.iter().enumerate() {
            let byte = i / 2;
            if i % 2 == 0 {
                lo[byte] = nib << 4;
                hi[byte] = (nib << 4) | 0x0f;
            } else {
                lo[byte] |= nib;
                hi[byte] = (hi[byte] & 0xf0) | nib;
            }
        }

        let mut out = Vec::new();
        self.scan(
            &lo,
            |digest| *digest > hi,
            |digest, count| {
                let hex = sha1::to_hex(&digest[..db]);
                out.push(RangeEntry {
                    suffix: hex[nibbles.len()..].to_string(),
                    count,
                });
                Ok(())
            },
        )?;
        Ok(out)
    }
}

impl DigestStoreBuilder {
    /// Ingests one password (count 1); duplicates accumulate.
    ///
    /// # Errors
    ///
    /// Spill I/O failures.
    pub fn add_password(&mut self, password: &str) -> Result<()> {
        self.add_digest(&sha1::password_digest(password), 1)
    }

    /// Ingests a raw digest with an explicit count (full or pre-truncated;
    /// only the first `digest_bytes` are significant).
    ///
    /// # Errors
    ///
    /// Spill I/O failures, or a digest shorter than the store width.
    pub fn add_digest(&mut self, digest: &[u8], count: u64) -> Result<()> {
        let config = self.config();
        let db = check_digest_len(digest, config)?;
        self.add_key(truncate_digest(digest, db), count)
    }
}

/// Unions N shard stores into one at `out`: digests deduplicated, breach
/// counts summed. All inputs must share the same [`DigestConfig`] (digest
/// width, counts flag, block size) — that is what guarantees the merged
/// store is byte-identical to a one-pass build over the union, for any
/// merge tree or input order.
///
/// # Errors
///
/// No inputs, mismatched configs, unreadable inputs, or write failures.
pub fn merge_artifacts<P: AsRef<Path>>(inputs: &[P], out: impl AsRef<Path>) -> Result<DigestStats> {
    sorted::merge::<DigestConfig, P>(inputs, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorted::Header;

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        // Truncated varint is an error, not a panic.
        assert!(read_varint(&[0x80], &mut 0).is_err());
    }

    #[test]
    fn header_round_trips() {
        let header = Header {
            config: DigestConfig {
                digest_bytes: 12,
                counts: false,
                records_per_block: 77,
            },
            record_count: 123,
            block_count: 2,
            index_offset: 9_000,
            checksum: 0xdead_beef,
        };
        let decoded = Header::<DigestConfig>::decode(&header.encode()).unwrap();
        assert_eq!(decoded.config, header.config);
        assert_eq!(decoded.record_count, 123);
        assert_eq!(decoded.index_offset, 9_000);
        assert_eq!(decoded.checksum, 0xdead_beef);
        assert!(Header::<DigestConfig>::decode(b"NOTMAGIC........................").is_err());
    }

    #[test]
    fn writer_rejects_unsorted_input() {
        let dir = std::env::temp_dir().join(format!("pfdigest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unsorted.pfd");
        let mut w = ArtifactWriter::create(&path, DigestConfig::default()).unwrap();
        w.push(&[5u8; 20], 1).unwrap();
        assert!(w.push(&[5u8; 20], 1).is_err(), "duplicates rejected");
        assert!(w.push(&[4u8; 20], 1).is_err(), "descending rejected");
        drop(w);
        assert!(!path.exists(), "unfinished writer leaves nothing behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
