//! The `PFDIGEST v1` artifact: layout, writer, reader and verification.
//!
//! A digest store is a sorted set of truncated SHA-1 digests with optional
//! breach counts, packed for random access (full field spec: DESIGN.md,
//! "Artifact schemas"):
//!
//! ```text
//! ┌────────────────────┐ offset 0
//! │ header   (64 B)    │ magic, version, config, counts, index offset,
//! │                    │ record checksum
//! ├────────────────────┤ offset 64
//! │ block 0            │ ≤ records_per_block prefix-compressed records
//! │ block 1            │
//! │ …                  │
//! ├────────────────────┤ header.index_offset
//! │ block index        │ per block: first digest, offset, length, count
//! └────────────────────┘
//! ```
//!
//! Within a block the first record's digest is stored raw; every following
//! record stores one byte of shared-prefix length with its predecessor plus
//! the differing suffix — sorted digests share long prefixes, so this is
//! the "delta" form of a digest list. Counts are LEB128 varints. The block
//! index is loaded into memory on open; any digest or digest-prefix range
//! then costs **one** index binary search plus one positioned read per
//! touched block, so lookups never scan the artifact.
//!
//! Byte determinism is load-bearing: the encoded artifact is a pure
//! function of `(config, sorted record stream)`, which is what lets the
//! tests assert that a one-pass build and a 4-shard
//! [`merge`](crate::merge::merge_artifacts) produce byte-identical files.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::io::{FileIo, RetryPolicy, StoreIo};
use crate::sha1;

/// Artifact magic bytes.
pub const MAGIC: &[u8; 8] = b"PFDIGEST";
/// Artifact format version.
pub const VERSION: u32 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: u64 = 64;

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

/// Reads a LEB128 varint from `data[*pos..]`.
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let Some(&byte) = data.get(*pos) else {
            return format_err("truncated varint in block");
        };
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    format_err("varint longer than 64 bits")
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

/// Folds one served record into the running checksum. The count hashed is
/// the count a reader will *see* (1 when counts are disabled), so the
/// checksum binds exactly the bytes [`RecordCursor`] replays.
fn checksum_record(hash: u64, digest: &[u8], count: u64) -> u64 {
    fnv1a(fnv1a(hash, digest), &count.to_le_bytes())
}

// ---------------------------------------------------------------------------
// Header + index
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Header {
    config: DigestConfig,
    record_count: u64,
    block_count: u64,
    index_offset: u64,
    checksum: u64,
}

impl Header {
    fn encode(&self) -> [u8; HEADER_LEN as usize] {
        let mut out = [0u8; HEADER_LEN as usize];
        out[..8].copy_from_slice(MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12] = self.config.digest_bytes as u8;
        out[13] = u8::from(self.config.counts);
        out[16..20].copy_from_slice(&(self.config.records_per_block as u32).to_le_bytes());
        out[24..32].copy_from_slice(&self.record_count.to_le_bytes());
        out[32..40].copy_from_slice(&self.block_count.to_le_bytes());
        out[40..48].copy_from_slice(&self.index_offset.to_le_bytes());
        out[48..56].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    fn decode(raw: &[u8]) -> Result<Header> {
        if raw.len() < HEADER_LEN as usize {
            return format_err("file shorter than the PFDIGEST header");
        }
        if &raw[..8] != MAGIC {
            return format_err("bad magic (not a PFDIGEST artifact)");
        }
        let version = u32::from_le_bytes(raw[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return format_err(format!("unsupported PFDIGEST version {version}"));
        }
        let config = DigestConfig {
            digest_bytes: raw[12] as usize,
            counts: match raw[13] {
                0 => false,
                1 => true,
                other => return format_err(format!("bad counts flag {other}")),
            },
            records_per_block: u32::from_le_bytes(raw[16..20].try_into().expect("4 bytes"))
                as usize,
        };
        config.validate()?;
        Ok(Header {
            config,
            record_count: u64::from_le_bytes(raw[24..32].try_into().expect("8 bytes")),
            block_count: u64::from_le_bytes(raw[32..40].try_into().expect("8 bytes")),
            index_offset: u64::from_le_bytes(raw[40..48].try_into().expect("8 bytes")),
            checksum: u64::from_le_bytes(raw[48..56].try_into().expect("8 bytes")),
        })
    }
}

/// One block's entry in the in-memory index.
#[derive(Clone, Debug)]
struct IndexEntry {
    /// First digest in the block (truncated, zero-padded).
    first: RawDigest,
    /// Absolute file offset of the encoded block.
    offset: u64,
    /// Encoded byte length of the block.
    len: u32,
    /// Records in the block.
    records: u32,
}

impl IndexEntry {
    fn encoded_len(digest_bytes: usize) -> usize {
        digest_bytes + 8 + 4 + 4
    }

    fn encode(&self, digest_bytes: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.first[..digest_bytes]);
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.records.to_le_bytes());
    }

    fn decode(raw: &[u8], digest_bytes: usize) -> IndexEntry {
        let d = digest_bytes;
        IndexEntry {
            first: truncate_digest(&raw[..d], d),
            offset: u64::from_le_bytes(raw[d..d + 8].try_into().expect("8 bytes")),
            len: u32::from_le_bytes(raw[d + 8..d + 12].try_into().expect("4 bytes")),
            records: u32::from_le_bytes(raw[d + 12..d + 16].try_into().expect("4 bytes")),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Summary of a finished artifact.
#[derive(Clone, Copy, Debug)]
pub struct DigestStats {
    /// Unique digests written.
    pub record_count: u64,
    /// Blocks written.
    pub block_count: u64,
    /// Total artifact size in bytes.
    pub bytes: u64,
}

/// Streams a **strictly ascending** record sequence into an artifact.
///
/// The writer encodes blocks as records arrive, accumulates the index in
/// memory, and on [`finish`](Self::finish) appends the index, patches the
/// header and atomically renames a `.tmp` sibling over the target path —
/// a crashed build never leaves a half-written artifact behind.
pub struct ArtifactWriter {
    file: BufWriter<File>,
    config: DigestConfig,
    block: Vec<u8>,
    block_first: RawDigest,
    block_records: u32,
    prev: Option<RawDigest>,
    index: Vec<IndexEntry>,
    offset: u64,
    record_count: u64,
    checksum: u64,
    tmp_path: PathBuf,
    final_path: PathBuf,
    finished: bool,
}

impl ArtifactWriter {
    /// Opens a writer targeting `path` (written via a `.tmp` sibling).
    ///
    /// # Errors
    ///
    /// Invalid config or file-creation failures.
    pub fn create(path: impl AsRef<Path>, config: DigestConfig) -> Result<ArtifactWriter> {
        config.validate()?;
        let final_path = path.as_ref().to_path_buf();
        let mut tmp_os = final_path.clone().into_os_string();
        tmp_os.push(".tmp");
        let tmp_path = PathBuf::from(tmp_os);
        let mut file = BufWriter::new(File::create(&tmp_path)?);
        // Placeholder header; patched in finish() once totals are known.
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(ArtifactWriter {
            file,
            config,
            block: Vec::new(),
            block_first: [0u8; sha1::DIGEST_LEN],
            block_records: 0,
            prev: None,
            index: Vec::new(),
            offset: HEADER_LEN,
            record_count: 0,
            checksum: FNV_SEED,
            tmp_path,
            final_path,
            finished: false,
        })
    }

    /// Appends one record. `digest` may be a full SHA-1 digest or already
    /// truncated; only the first `digest_bytes` matter. A zero `count` is
    /// stored as 1 (a present record was seen at least once).
    ///
    /// # Errors
    ///
    /// Rejects records that are not strictly greater than their
    /// predecessor (the caller owns sorting and dedup), and I/O failures.
    pub fn push(&mut self, digest: &[u8], count: u64) -> Result<()> {
        let db = self.config.digest_bytes;
        if digest.len() < db {
            return format_err(format!(
                "digest is {} bytes, store needs at least {db}",
                digest.len()
            ));
        }
        let key = truncate_digest(digest, db);
        if let Some(prev) = &self.prev {
            if key <= *prev {
                return format_err(format!(
                    "records must be strictly ascending ({} after {})",
                    sha1::to_hex(&key[..db]),
                    sha1::to_hex(&prev[..db]),
                ));
            }
        }
        let served_count = if self.config.counts { count.max(1) } else { 1 };

        if self.block_records == 0 {
            self.block_first = key;
            self.block.extend_from_slice(&key[..db]);
        } else {
            let prev = self.prev.expect("non-first record has a predecessor");
            let shared = key[..db]
                .iter()
                .zip(prev[..db].iter())
                .take_while(|(a, b)| a == b)
                .count();
            self.block.push(shared as u8);
            self.block.extend_from_slice(&key[shared..db]);
        }
        if self.config.counts {
            write_varint(&mut self.block, served_count);
        }
        self.checksum = checksum_record(self.checksum, &key[..db], served_count);
        self.prev = Some(key);
        self.block_records += 1;
        self.record_count += 1;
        if self.block_records as usize == self.config.records_per_block {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.block_records == 0 {
            return Ok(());
        }
        self.index.push(IndexEntry {
            first: self.block_first,
            offset: self.offset,
            len: self.block.len() as u32,
            records: self.block_records,
        });
        self.file.write_all(&self.block)?;
        self.offset += self.block.len() as u64;
        self.block.clear();
        self.block_records = 0;
        Ok(())
    }

    /// Flushes the final block, writes the index, patches the header and
    /// renames the artifact into place.
    ///
    /// # Errors
    ///
    /// I/O failures; the `.tmp` file is removed on drop if this fails.
    pub fn finish(mut self) -> Result<DigestStats> {
        self.flush_block()?;
        let index_offset = self.offset;
        let mut encoded = Vec::with_capacity(
            self.index.len() * IndexEntry::encoded_len(self.config.digest_bytes),
        );
        for entry in &self.index {
            entry.encode(self.config.digest_bytes, &mut encoded);
        }
        self.file.write_all(&encoded)?;

        let header = Header {
            config: self.config,
            record_count: self.record_count,
            block_count: self.index.len() as u64,
            index_offset,
            checksum: self.checksum,
        };
        self.file.flush()?;
        let file = self.file.get_mut();
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header.encode())?;
        file.sync_all()?;
        std::fs::rename(&self.tmp_path, &self.final_path)?;
        self.finished = true;
        Ok(DigestStats {
            record_count: header.record_count,
            block_count: header.block_count,
            bytes: index_offset + encoded.len() as u64,
        })
    }
}

impl Drop for ArtifactWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = std::fs::remove_file(&self.tmp_path);
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One suffix revealed by a k-anonymity range query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeEntry {
    /// Uppercase hex of the stored digest *after* the queried prefix.
    pub suffix: String,
    /// Breach count (1 for membership-only stores).
    pub count: u64,
}

/// Outcome of a full [`DigestStore::verify`] pass.
#[derive(Clone, Copy, Debug)]
pub struct VerifyReport {
    /// Records decoded across all blocks.
    pub record_count: u64,
    /// Blocks decoded.
    pub block_count: u64,
    /// Recomputed stream checksum (equals the header's on success).
    pub checksum: u64,
}

/// An open, random-access `PFDIGEST v1` artifact.
///
/// The block index lives in memory; record data is read positionally per
/// query, so the store is `Send + Sync` and cheap to share behind an `Arc`
/// across serving threads.
pub struct DigestStore {
    io: Box<dyn StoreIo>,
    retry: RetryPolicy,
    config: DigestConfig,
    record_count: u64,
    checksum: u64,
    index: Vec<IndexEntry>,
    file_len: u64,
    path: PathBuf,
}

impl std::fmt::Debug for DigestStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DigestStore")
            .field("path", &self.path)
            .field("records", &self.record_count)
            .field("blocks", &self.index.len())
            .field("config", &self.config)
            .finish()
    }
}

impl DigestStore {
    /// Opens an artifact, validating the header and loading the index.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`StoreError::Format`] for anything structurally
    /// wrong: bad magic/version/config, truncated file, index out of
    /// bounds or out of order, record counts that do not add up.
    pub fn open(path: impl AsRef<Path>) -> Result<DigestStore> {
        let io = FileIo::open(path.as_ref())?;
        DigestStore::open_with_io(path, Box::new(io))
    }

    /// Opens an artifact through a caller-supplied [`StoreIo`] — the seam
    /// the chaos suite uses to slide a
    /// [`FaultyIo`](crate::io::FaultyIo) under a live store. Header and
    /// index reads go through the same bounded-retry discipline as query
    /// reads.
    ///
    /// # Errors
    ///
    /// As [`DigestStore::open`], plus [`StoreError::Unavailable`] when the
    /// supplied io cannot complete the header/index reads.
    pub fn open_with_io(path: impl AsRef<Path>, io: Box<dyn StoreIo>) -> Result<DigestStore> {
        let path = path.as_ref().to_path_buf();
        let retry = RetryPolicy::default();
        let file_len = io.byte_len().map_err(|error| StoreError::Unavailable {
            context: "reading artifact length".to_string(),
            error,
        })?;
        let mut raw_header = [0u8; HEADER_LEN as usize];
        if file_len < HEADER_LEN {
            return format_err("file shorter than the PFDIGEST header");
        }
        crate::io::read_exact_at(io.as_ref(), &mut raw_header, 0, &retry).map_err(|error| {
            StoreError::Unavailable {
                context: "reading the PFDIGEST header".to_string(),
                error,
            }
        })?;
        let header = Header::decode(&raw_header)?;
        let db = header.config.digest_bytes;

        let entry_len = IndexEntry::encoded_len(db) as u64;
        let index_len = header
            .block_count
            .checked_mul(entry_len)
            .ok_or_else(|| StoreError::Format("index size overflows".to_string()))?;
        if header.index_offset < HEADER_LEN
            || header.index_offset.checked_add(index_len) != Some(file_len)
        {
            return format_err("index offset/length disagree with the file size (truncated?)");
        }
        let mut raw_index = vec![0u8; index_len as usize];
        crate::io::read_exact_at(io.as_ref(), &mut raw_index, header.index_offset, &retry)
            .map_err(|error| StoreError::Unavailable {
                context: "reading the block index".to_string(),
                error,
            })?;

        let mut index = Vec::with_capacity(header.block_count as usize);
        let mut total_records = 0u64;
        let mut end_of_prev = HEADER_LEN;
        for chunk in raw_index.chunks_exact(entry_len as usize) {
            let entry = IndexEntry::decode(chunk, db);
            if entry.offset != end_of_prev {
                return format_err("block offsets are not contiguous");
            }
            end_of_prev = entry.offset + u64::from(entry.len);
            if end_of_prev > header.index_offset {
                return format_err("block extends past the index");
            }
            if entry.records == 0 || entry.records as usize > header.config.records_per_block {
                return format_err("block record count out of range");
            }
            if let Some(last) = index.last() {
                let last: &IndexEntry = last;
                if entry.first <= last.first {
                    return format_err("index first-digests are not ascending");
                }
            }
            total_records += u64::from(entry.records);
            index.push(entry);
        }
        if end_of_prev != header.index_offset {
            return format_err("gap between the last block and the index");
        }
        if total_records != header.record_count {
            return format_err("index record counts disagree with the header");
        }

        Ok(DigestStore {
            io,
            retry,
            config: header.config,
            record_count: header.record_count,
            checksum: header.checksum,
            index,
            file_len,
            path,
        })
    }

    /// The artifact's configuration.
    pub fn config(&self) -> DigestConfig {
        self.config
    }

    /// Unique digests stored.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Number of compressed blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Total artifact size in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The path the store was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Overrides the bounded-retry policy applied to positioned reads.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Positioned read through the pluggable io, with bounded retry; the
    /// exhausted/permanent case surfaces as [`StoreError::Unavailable`].
    fn read_exact_at(&self, buf: &mut [u8], offset: u64, context: &str) -> Result<()> {
        crate::io::read_exact_at(self.io.as_ref(), buf, offset, &self.retry).map_err(|error| {
            StoreError::Unavailable {
                context: context.to_string(),
                error,
            }
        })
    }

    /// Reads and decodes block `i` into `out` (cleared first).
    fn decode_block_into(&self, i: usize, out: &mut Vec<(RawDigest, u64)>) -> Result<()> {
        let entry = &self.index[i];
        let mut raw = vec![0u8; entry.len as usize];
        self.read_exact_at(&mut raw, entry.offset, "reading a record block")?;
        out.clear();
        let db = self.config.digest_bytes;
        let mut prev = [0u8; sha1::DIGEST_LEN];
        let mut pos = 0usize;
        for r in 0..entry.records {
            if r == 0 {
                let Some(bytes) = raw.get(..db) else {
                    return format_err("block too short for its first record");
                };
                prev[..db].copy_from_slice(bytes);
                pos = db;
            } else {
                let Some(&shared) = raw.get(pos) else {
                    return format_err("truncated record header in block");
                };
                pos += 1;
                let shared = shared as usize;
                if shared >= db {
                    return format_err("shared-prefix length out of range");
                }
                let Some(suffix) = raw.get(pos..pos + (db - shared)) else {
                    return format_err("truncated record suffix in block");
                };
                prev[shared..db].copy_from_slice(suffix);
                pos += db - shared;
            }
            let count = if self.config.counts {
                read_varint(&raw, &mut pos)?
            } else {
                1
            };
            out.push((prev, count));
        }
        if pos != raw.len() {
            return format_err("trailing bytes after the last record in a block");
        }
        if out.first().map(|(d, _)| *d) != Some(entry.first) {
            return format_err("block's first record disagrees with the index");
        }
        Ok(())
    }

    /// Index of the block that could contain `key`, if any.
    fn block_for(&self, key: &RawDigest) -> Option<usize> {
        let n = self.index.partition_point(|e| e.first <= *key);
        n.checked_sub(1)
    }

    /// Looks up a digest (full or truncated); returns its count, or `None`
    /// if absent. Counts are 1 for membership-only stores.
    ///
    /// # Errors
    ///
    /// I/O or block-decoding failures.
    pub fn contains_digest(&self, digest: &[u8]) -> Result<Option<u64>> {
        let key = truncate_digest(digest, self.config.digest_bytes);
        let Some(block) = self.block_for(&key) else {
            return Ok(None);
        };
        let mut records = Vec::with_capacity(self.config.records_per_block);
        self.decode_block_into(block, &mut records)?;
        Ok(records
            .binary_search_by(|(d, _)| d.cmp(&key))
            .ok()
            .map(|i| records[i].1))
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
        let db = self.config.digest_bytes;
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
        let start = self.block_for(&lo).unwrap_or(0);
        let mut records = Vec::with_capacity(self.config.records_per_block);
        for i in start..self.index.len() {
            if self.index[i].first > hi {
                break;
            }
            self.decode_block_into(i, &mut records)?;
            for (digest, count) in &records {
                if *digest < lo {
                    continue;
                }
                if *digest > hi {
                    break;
                }
                let hex = sha1::to_hex(&digest[..db]);
                out.push(RangeEntry {
                    suffix: hex[nibbles.len()..].to_string(),
                    count: *count,
                });
            }
        }
        Ok(out)
    }

    /// A streaming cursor over every record in ascending order.
    pub fn records(&self) -> RecordCursor<'_> {
        RecordCursor {
            store: self,
            block: 0,
            pos: 0,
            records: Vec::new(),
        }
    }

    /// Fully decodes the artifact, checking sort order, per-block
    /// structure and the header checksum — the deep integrity pass behind
    /// `digest_tool verify`.
    ///
    /// # Errors
    ///
    /// The first structural violation found.
    pub fn verify(&self) -> Result<VerifyReport> {
        let mut cursor = self.records();
        let mut checksum = FNV_SEED;
        let mut count = 0u64;
        let db = self.config.digest_bytes;
        let mut prev: Option<RawDigest> = None;
        while let Some((digest, record_count)) = cursor.next_record()? {
            if let Some(p) = &prev {
                if digest <= *p {
                    return format_err("records are not strictly ascending across blocks");
                }
            }
            checksum = checksum_record(checksum, &digest[..db], record_count);
            prev = Some(digest);
            count += 1;
        }
        if count != self.record_count {
            return format_err(format!(
                "decoded {count} records, header claims {}",
                self.record_count
            ));
        }
        if checksum != self.checksum {
            return format_err("record checksum mismatch (artifact corrupted)");
        }
        Ok(VerifyReport {
            record_count: count,
            block_count: self.index.len() as u64,
            checksum,
        })
    }
}

/// Streaming, block-at-a-time record iteration (used by merge and verify).
pub struct RecordCursor<'a> {
    store: &'a DigestStore,
    block: usize,
    pos: usize,
    records: Vec<(RawDigest, u64)>,
}

impl RecordCursor<'_> {
    /// The next record in ascending digest order, or `None` at the end.
    ///
    /// # Errors
    ///
    /// I/O or block-decoding failures.
    pub fn next_record(&mut self) -> Result<Option<(RawDigest, u64)>> {
        loop {
            if self.pos < self.records.len() {
                let record = self.records[self.pos];
                self.pos += 1;
                return Ok(Some(record));
            }
            if self.block >= self.store.block_count() {
                return Ok(None);
            }
            self.store
                .decode_block_into(self.block, &mut self.records)?;
            self.block += 1;
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let decoded = Header::decode(&header.encode()).unwrap();
        assert_eq!(decoded.config, header.config);
        assert_eq!(decoded.record_count, 123);
        assert_eq!(decoded.index_offset, 9_000);
        assert_eq!(decoded.checksum, 0xdead_beef);
        assert!(Header::decode(b"NOTMAGIC........................").is_err());
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
