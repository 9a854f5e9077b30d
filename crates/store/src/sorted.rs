//! The sorted-block container under `PFDIGEST v1` and `PFGUESS v1`.
//!
//! Both artifacts are the same container: a sorted, deduplicated record set
//! with optional counts, packed into prefix-compressed blocks behind a
//! trailing index (full field spec: DESIGN.md, "Artifact schemas"):
//!
//! ```text
//! ┌────────────────────┐ offset 0
//! │ header   (64 B)    │ magic, version, key-codec flags, block size,
//! │                    │ counts, index offset, record checksum
//! ├────────────────────┤ offset 64
//! │ block 0            │ ≤ records_per_block prefix-compressed records
//! │ block 1            │
//! │ …                  │
//! ├────────────────────┤ header.index_offset
//! │ block index        │ per block: first key, offset, length, count
//! └────────────────────┘
//! ```
//!
//! Everything but the key encoding is written once here: the header, the
//! atomic block writer, index loading and validation, positioned reads with
//! retry, block decoding, point lookups, the record cursor, `verify`, the
//! bounded-memory external-sort builder and the N-way merge. What differs
//! between the formats is a [`KeyCodec`], implemented by each format's
//! config type: `DigestConfig` stores fixed-width truncated SHA-1 digests,
//! `GuessConfig` stores variable-length guess bytes. The codec is a type
//! parameter, so block decode on the serving path is statically dispatched.
//!
//! Byte determinism is load-bearing: an artifact is a pure function of
//! `(config, sorted record stream)`, so a one-pass build and any merge tree
//! over shards of the same records produce byte-identical files.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::format::{format_err, read_varint, write_varint, Result, StoreError, FNV_SEED};
use crate::guess::{GuessStreamReader, GuessStreamWriter};
use crate::io::{
    read_exact_at, AtomicFile, FaultyWrite, FileIo, RetryPolicy, ScratchFile, StoreIo,
};

/// Container version both formats read and write.
const VERSION: u32 = 1;
/// Fixed header length in bytes; blocks start right after it.
pub(crate) const HEADER_LEN: u64 = 64;
/// Bytes of an index entry after its key: offset, length and record count.
const ENTRY_FIXED_LEN: usize = 8 + 4 + 4;

/// Default builder spill threshold: ~28 MB of buffered digest records.
pub const DEFAULT_MEMORY_RECORDS: usize = 1 << 20;

/// How one format encodes its keys inside the shared container.
///
/// A key has *significant bytes* (what is ordered, compressed and
/// checksummed) and an owned form returned by lookups and cursors.
pub trait KeyCodec: Copy + Eq + fmt::Debug {
    /// An owned key, ordered exactly like its significant bytes.
    type Key: Ord + Clone + Default + fmt::Debug;
    /// Magic bytes at offset 0.
    const MAGIC: &'static [u8; 8];
    /// Format name used in error messages.
    const NAME: &'static str;
    /// File-name prefix of the builder's scratch runs.
    const RUN_PREFIX: &'static str;

    /// Whether per-record counts are stored.
    fn counts(&self) -> bool;
    /// Records per full block.
    fn records_per_block(&self) -> usize;
    /// The config's invariants, checked on write and on load.
    fn check(&self) -> Result<()>;
    /// Header bytes 12..16.
    fn flags(&self) -> [u8; 4];
    /// Rebuilds and checks a config from header bytes 12..16 and the block size.
    fn from_header(flags: [u8; 4], records_per_block: usize) -> Result<Self>;
    /// The significant bytes of `key`.
    fn key_bytes<'k>(&self, key: &'k Self::Key) -> &'k [u8];
    /// The key whose significant bytes are `bytes`.
    fn key_from_vec(&self, bytes: Vec<u8>) -> Self::Key;
    /// The key a wordlist line stands for.
    fn word_key(&self, word: &str) -> Result<Self::Key>;
    /// Appends `key` to a block; `prev` is `None` for a block's first record.
    fn encode_key(&self, prev: Option<&[u8]>, key: &[u8], out: &mut Vec<u8>);
    /// Decodes one key at `raw[*pos..]` over `key`, which holds the
    /// predecessor unless `first`.
    fn decode_key(
        &self,
        raw: &[u8],
        pos: &mut usize,
        first: bool,
        key: &mut Self::Key,
    ) -> Result<()>;
    /// Appends a block's first key to the index.
    fn encode_index_key(&self, key: &[u8], out: &mut Vec<u8>);
    /// Decodes an index key at `raw[*pos..]`.
    fn decode_index_key(&self, raw: &[u8], pos: &mut usize) -> Result<Self::Key>;
    /// Folds one served record into the running record checksum.
    fn checksum(hash: u64, key: &[u8], count: u64) -> u64;
    /// Renders `key` for error messages.
    fn show(key: &[u8]) -> String;
}

// ---------------------------------------------------------------------------
// Header + index
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub(crate) struct Header<C> {
    pub(crate) config: C,
    pub(crate) record_count: u64,
    pub(crate) block_count: u64,
    pub(crate) index_offset: u64,
    pub(crate) checksum: u64,
}

impl<C: KeyCodec> Header<C> {
    pub(crate) fn encode(&self) -> [u8; HEADER_LEN as usize] {
        let mut out = [0u8; HEADER_LEN as usize];
        out[..8].copy_from_slice(C::MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.config.flags());
        out[16..20].copy_from_slice(&(self.config.records_per_block() as u32).to_le_bytes());
        out[24..32].copy_from_slice(&self.record_count.to_le_bytes());
        out[32..40].copy_from_slice(&self.block_count.to_le_bytes());
        out[40..48].copy_from_slice(&self.index_offset.to_le_bytes());
        out[48..56].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    pub(crate) fn decode(raw: &[u8]) -> Result<Header<C>> {
        if raw.len() < HEADER_LEN as usize {
            return format_err(format!("file shorter than the {} header", C::NAME));
        }
        if &raw[..8] != C::MAGIC {
            return format_err(format!("bad magic (not a {} file)", C::NAME));
        }
        let u32_at = |at: usize| u32::from_le_bytes(raw[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().expect("8 bytes"));
        let version = u32_at(8);
        if version != VERSION {
            return format_err(format!("unsupported {} version {version}", C::NAME));
        }
        let flags = raw[12..16].try_into().expect("4 bytes");
        Ok(Header {
            config: C::from_header(flags, u32_at(16) as usize)?,
            record_count: u64_at(24),
            block_count: u64_at(32),
            index_offset: u64_at(40),
            checksum: u64_at(48),
        })
    }
}

/// One block's entry in the in-memory index.
#[derive(Clone, Debug)]
struct IndexEntry<K> {
    /// First key in the block.
    first: K,
    /// Absolute file offset of the encoded block.
    offset: u64,
    /// Encoded byte length of the block.
    len: u32,
    /// Records in the block.
    records: u32,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Summary of a finished artifact.
#[derive(Clone, Copy, Debug)]
pub struct Stats {
    /// Unique records written.
    pub record_count: u64,
    /// Blocks written.
    pub block_count: u64,
    /// Total artifact size in bytes.
    pub bytes: u64,
}

/// Streams a **strictly ascending** record sequence into an artifact.
///
/// Blocks are encoded as records arrive and the encoded index accumulates in
/// memory. [`finish`](Self::finish) appends the index, patches the header
/// and commits the `.tmp` sibling over the target path; a writer dropped
/// before that leaves nothing behind.
pub struct SortedWriter<C: KeyCodec> {
    out: AtomicFile,
    config: C,
    block: Vec<u8>,
    block_records: u32,
    block_count: u64,
    /// Significant bytes of the last record pushed.
    prev: Vec<u8>,
    /// The encoded index: a block's key is appended at its first record,
    /// the offset/length/count when the block is flushed.
    index: Vec<u8>,
    offset: u64,
    record_count: u64,
    checksum: u64,
}

impl<C: KeyCodec> SortedWriter<C> {
    /// Opens a writer targeting `path` (written via a `.tmp` sibling).
    ///
    /// # Errors
    ///
    /// Invalid config or file-creation failures.
    pub fn create(path: impl AsRef<Path>, config: C) -> Result<SortedWriter<C>> {
        config.check()?;
        let mut out = AtomicFile::create(path.as_ref())?;
        // Placeholder header; patched in finish() once totals are known.
        out.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(SortedWriter {
            out,
            config,
            block: Vec::new(),
            block_records: 0,
            block_count: 0,
            prev: Vec::new(),
            index: Vec::new(),
            offset: HEADER_LEN,
            record_count: 0,
            checksum: FNV_SEED,
        })
    }

    /// The artifact's configuration.
    pub(crate) fn config(&self) -> C {
        self.config
    }

    /// Appends one record by its significant bytes. A zero `count` is
    /// stored as 1 (a present record was seen at least once).
    pub(crate) fn push_key(&mut self, key: &[u8], count: u64) -> Result<()> {
        if self.record_count > 0 && key <= self.prev.as_slice() {
            return format_err(format!(
                "records must be strictly ascending ({} after {})",
                C::show(key),
                C::show(&self.prev),
            ));
        }
        let served = if self.config.counts() {
            count.max(1)
        } else {
            1
        };
        let prev = if self.block_records == 0 {
            self.config.encode_index_key(key, &mut self.index);
            None
        } else {
            Some(self.prev.as_slice())
        };
        self.config.encode_key(prev, key, &mut self.block);
        if self.config.counts() {
            write_varint(&mut self.block, served);
        }
        self.checksum = C::checksum(self.checksum, key, served);
        self.prev.clear();
        self.prev.extend_from_slice(key);
        self.block_records += 1;
        self.record_count += 1;
        if self.block_records as usize == self.config.records_per_block() {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.block_records == 0 {
            return Ok(());
        }
        self.index.extend_from_slice(&self.offset.to_le_bytes());
        self.index
            .extend_from_slice(&(self.block.len() as u32).to_le_bytes());
        self.index
            .extend_from_slice(&self.block_records.to_le_bytes());
        self.out.write_all(&self.block)?;
        self.offset += self.block.len() as u64;
        self.block.clear();
        self.block_records = 0;
        self.block_count += 1;
        Ok(())
    }

    /// Flushes the final block, writes the index, patches the header and
    /// commits the artifact into place.
    ///
    /// # Errors
    ///
    /// I/O failures; the `.tmp` file is removed if this fails.
    pub fn finish(mut self) -> Result<Stats> {
        self.flush_block()?;
        let index_offset = self.offset;
        self.out.write_all(&self.index)?;
        let header = Header {
            config: self.config,
            record_count: self.record_count,
            block_count: self.block_count,
            index_offset,
            checksum: self.checksum,
        };
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&header.encode())?;
        self.out.commit()?;
        Ok(Stats {
            record_count: header.record_count,
            block_count: header.block_count,
            bytes: index_offset + self.index.len() as u64,
        })
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Outcome of a full `verify` pass.
#[derive(Clone, Copy, Debug)]
pub struct VerifyReport {
    /// Records decoded across all blocks.
    pub record_count: u64,
    /// Blocks decoded.
    pub block_count: u64,
    /// Recomputed record checksum (equals the header's on success).
    pub checksum: u64,
}

/// An open, random-access artifact.
///
/// The block index lives in memory; record data is read positionally per
/// query through a pluggable [`StoreIo`] with bounded retry, so the store is
/// `Send + Sync` and cheap to share behind an `Arc` across serving threads.
pub struct SortedStore<C: KeyCodec> {
    io: Box<dyn StoreIo>,
    retry: RetryPolicy,
    config: C,
    record_count: u64,
    checksum: u64,
    index: Vec<IndexEntry<C::Key>>,
    file_len: u64,
    path: PathBuf,
}

impl<C: KeyCodec> fmt::Debug for SortedStore<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(C::NAME)
            .field("path", &self.path)
            .field("records", &self.record_count)
            .field("blocks", &self.index.len())
            .field("config", &self.config)
            .finish()
    }
}

impl<C: KeyCodec> SortedStore<C> {
    /// Opens an artifact, validating the header and loading the index.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`StoreError::Format`] for anything structurally
    /// wrong: bad magic/version/config, truncated file, index out of
    /// bounds or out of order, record counts that do not add up.
    pub fn open(path: impl AsRef<Path>) -> Result<SortedStore<C>> {
        let io = FileIo::open(path.as_ref())?;
        SortedStore::open_with_io(path, Box::new(io))
    }

    /// Opens an artifact through a caller-supplied [`StoreIo`] — the seam
    /// the chaos suite uses to slide a
    /// [`FaultyIo`](crate::io::FaultyIo) under a live store. Header and
    /// index reads go through the same bounded-retry discipline as query
    /// reads.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open), plus [`StoreError::Unavailable`] when the
    /// supplied io cannot complete the header/index reads.
    pub fn open_with_io(path: impl AsRef<Path>, io: Box<dyn StoreIo>) -> Result<SortedStore<C>> {
        let retry = RetryPolicy::default();
        let file_len = io.byte_len().map_err(|error| StoreError::Unavailable {
            context: format!("reading the {} length", C::NAME),
            error,
        })?;
        if file_len < HEADER_LEN {
            return format_err(format!("file shorter than the {} header", C::NAME));
        }
        let mut raw_header = [0u8; HEADER_LEN as usize];
        let context = format!("reading the {} header", C::NAME);
        read_retrying(io.as_ref(), &retry, &mut raw_header, 0, &context)?;
        let header = Header::<C>::decode(&raw_header)?;

        if header.index_offset < HEADER_LEN || header.index_offset > file_len {
            return format_err("index offset outside the file (truncated?)");
        }
        let index_len = file_len - header.index_offset;
        // Every entry holds at least one key byte; bound the count by the
        // bytes before reserving anything.
        if header.block_count > index_len / (ENTRY_FIXED_LEN as u64 + 1) {
            return format_err("block count exceeds what the index bytes can hold");
        }
        let mut raw = vec![0u8; index_len as usize];
        let context = "reading the block index";
        read_retrying(io.as_ref(), &retry, &mut raw, header.index_offset, context)?;

        let rpb = header.config.records_per_block();
        let mut index: Vec<IndexEntry<C::Key>> = Vec::with_capacity(header.block_count as usize);
        let mut total_records = 0u64;
        let mut end_of_prev = HEADER_LEN;
        let mut pos = 0usize;
        for block in 0..header.block_count {
            let first = header.config.decode_index_key(&raw, &mut pos)?;
            let Some(fixed) = raw.get(pos..pos + ENTRY_FIXED_LEN) else {
                return format_err("truncated index entry");
            };
            pos += ENTRY_FIXED_LEN;
            let entry = IndexEntry {
                first,
                offset: u64::from_le_bytes(fixed[..8].try_into().expect("8 bytes")),
                len: u32::from_le_bytes(fixed[8..12].try_into().expect("4 bytes")),
                records: u32::from_le_bytes(fixed[12..].try_into().expect("4 bytes")),
            };
            if entry.offset != end_of_prev {
                return format_err("block offsets are not contiguous");
            }
            end_of_prev = entry.offset + u64::from(entry.len);
            if end_of_prev > header.index_offset {
                return format_err("block extends past the index");
            }
            if entry.records == 0 || entry.records as usize > rpb {
                return format_err("block record count out of range");
            }
            // The writer fills every block but the last.
            if block + 1 < header.block_count && entry.records as usize != rpb {
                return format_err("a block before the last is not full");
            }
            // Every record takes at least one byte.
            if entry.records > entry.len {
                return format_err("block record count exceeds its byte length");
            }
            if index.last().is_some_and(|last| entry.first <= last.first) {
                return format_err("index first keys are not ascending");
            }
            total_records += u64::from(entry.records);
            index.push(entry);
        }
        if pos != raw.len() {
            return format_err("trailing bytes after the last index entry");
        }
        if end_of_prev != header.index_offset {
            return format_err("gap between the last block and the index");
        }
        if total_records != header.record_count {
            return format_err("index record counts disagree with the header");
        }
        Ok(SortedStore {
            io,
            retry,
            config: header.config,
            record_count: header.record_count,
            checksum: header.checksum,
            index,
            file_len,
            path: path.as_ref().to_path_buf(),
        })
    }

    /// The artifact's configuration.
    pub fn config(&self) -> C {
        self.config
    }

    /// Unique records stored.
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

    /// The path the artifact was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads and decodes block `i` into `out` (cleared first).
    fn decode_block_into(&self, i: usize, out: &mut Vec<(C::Key, u64)>) -> Result<()> {
        let entry = &self.index[i];
        let mut raw = vec![0u8; entry.len as usize];
        let context = "reading a record block";
        read_retrying(
            self.io.as_ref(),
            &self.retry,
            &mut raw,
            entry.offset,
            context,
        )?;
        out.clear();
        out.reserve(entry.records as usize);
        let mut key = C::Key::default();
        let mut pos = 0usize;
        for r in 0..entry.records {
            self.config.decode_key(&raw, &mut pos, r == 0, &mut key)?;
            let count = if self.config.counts() {
                read_varint(&raw, &mut pos)?
            } else {
                1
            };
            out.push((key.clone(), count));
        }
        if pos != raw.len() {
            return format_err("trailing bytes after the last record in a block");
        }
        if out.first().map(|(k, _)| k) != Some(&entry.first) {
            return format_err("block's first record disagrees with the index");
        }
        Ok(())
    }

    /// Index of the block that could contain `key`, if any.
    fn block_for(&self, key: &C::Key) -> Option<usize> {
        let n = self.index.partition_point(|e| e.first <= *key);
        n.checked_sub(1)
    }

    /// The count stored for `key`, or `None` if absent.
    pub(crate) fn lookup(&self, key: &C::Key) -> Result<Option<u64>> {
        let Some(block) = self.block_for(key) else {
            return Ok(None);
        };
        let mut records = Vec::new();
        self.decode_block_into(block, &mut records)?;
        Ok(records
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| records[i].1))
    }

    /// Visits, in ascending order, every record from `lo` on until the
    /// first key for which `past` holds. Blocks whose first key is `past`
    /// are never read.
    pub(crate) fn scan(
        &self,
        lo: &C::Key,
        past: impl Fn(&C::Key) -> bool,
        mut visit: impl FnMut(&C::Key, u64) -> Result<()>,
    ) -> Result<()> {
        let start = self.block_for(lo).unwrap_or(0);
        let mut records = Vec::new();
        for i in start..self.index.len() {
            if past(&self.index[i].first) {
                break;
            }
            self.decode_block_into(i, &mut records)?;
            for (key, count) in &records {
                if key < lo {
                    continue;
                }
                if past(key) {
                    return Ok(());
                }
                visit(key, *count)?;
            }
        }
        Ok(())
    }

    /// A streaming cursor over every record in ascending order.
    pub fn records(&self) -> SortedCursor<'_, C> {
        SortedCursor {
            store: self,
            block: 0,
            pos: 0,
            records: Vec::new(),
        }
    }

    /// Fully decodes the artifact, checking sort order, per-block structure
    /// and the header checksum — the deep integrity pass behind
    /// `passflow digest verify` and `passflow archive verify`.
    ///
    /// # Errors
    ///
    /// The first structural violation found.
    pub fn verify(&self) -> Result<VerifyReport> {
        let mut cursor = self.records();
        let mut checksum = FNV_SEED;
        let mut count = 0u64;
        let mut prev: Option<C::Key> = None;
        while let Some((key, record_count)) = cursor.next_record()? {
            if prev.as_ref().is_some_and(|p| key <= *p) {
                return format_err("records are not strictly ascending across blocks");
            }
            checksum = C::checksum(checksum, self.config.key_bytes(&key), record_count);
            prev = Some(key);
            count += 1;
        }
        if count != self.record_count {
            return format_err(format!(
                "decoded {count} records, header claims {}",
                self.record_count
            ));
        }
        if checksum != self.checksum {
            return format_err(format!("record checksum mismatch ({} corrupted)", C::NAME));
        }
        Ok(VerifyReport {
            record_count: count,
            block_count: self.index.len() as u64,
            checksum,
        })
    }
}

/// Positioned read with bounded retry; failures surface as
/// [`StoreError::Unavailable`].
fn read_retrying(
    io: &dyn StoreIo,
    retry: &RetryPolicy,
    buf: &mut [u8],
    offset: u64,
    context: &str,
) -> Result<()> {
    read_exact_at(io, buf, offset, retry).map_err(|error| StoreError::Unavailable {
        context: context.to_string(),
        error,
    })
}

/// Streaming, block-at-a-time record iteration (used by merge and verify).
pub struct SortedCursor<'a, C: KeyCodec> {
    store: &'a SortedStore<C>,
    block: usize,
    pos: usize,
    records: Vec<(C::Key, u64)>,
}

impl<C: KeyCodec> SortedCursor<'_, C> {
    /// The next record in ascending key order, or `None` at the end.
    ///
    /// # Errors
    ///
    /// I/O or block-decoding failures.
    pub fn next_record(&mut self) -> Result<Option<(C::Key, u64)>> {
        loop {
            if let Some(record) = self.records.get(self.pos) {
                self.pos += 1;
                return Ok(Some(record.clone()));
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

// ---------------------------------------------------------------------------
// Builder (external merge sort)
// ---------------------------------------------------------------------------

/// Monotonic suffix so concurrent builders never collide on scratch names.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Bounded-memory streaming construction of an artifact.
///
/// The builder holds at most `memory_records` records in RAM. When the
/// buffer fills it is sorted, equal keys are merged (counts summed) and the
/// run is spilled to a scratch file; [`finish`](Self::finish) k-way merges
/// every run plus the final buffer straight into a [`SortedWriter`]. Build
/// memory is bounded by the spill threshold regardless of input size, and
/// the artifact is byte-identical to an unbounded in-memory build.
///
/// Spill runs are counted [`GuessStreamWriter`] streams of the keys'
/// significant bytes, each behind a `ScratchFile` drop-guard, so runs are
/// unlinked when the builder goes away on *any* path — normal completion,
/// a spill dying mid-write, or the final merge failing.
pub struct SortedBuilder<C: KeyCodec> {
    config: C,
    memory_records: usize,
    scratch_dir: PathBuf,
    buffer: Vec<(C::Key, u64)>,
    runs: Vec<ScratchFile>,
    ingested: u64,
    /// Chaos seam: `(nth_spill, byte_budget)` — the nth spill (0-based)
    /// writes through a [`FaultyWrite`] capped at `byte_budget` bytes.
    spill_fault: Option<(u64, u64)>,
    spills: u64,
}

impl<C: KeyCodec> SortedBuilder<C> {
    /// Creates a builder; scratch runs default to [`std::env::temp_dir`].
    pub fn new(config: C) -> SortedBuilder<C> {
        SortedBuilder {
            config,
            memory_records: DEFAULT_MEMORY_RECORDS,
            scratch_dir: std::env::temp_dir(),
            buffer: Vec::new(),
            runs: Vec::new(),
            ingested: 0,
            spill_fault: None,
            spills: 0,
        }
    }

    /// Caps in-memory buffered records before a sorted run is spilled.
    #[must_use]
    pub fn with_memory_records(mut self, n: usize) -> SortedBuilder<C> {
        self.memory_records = n.max(1);
        self
    }

    /// Directory for spilled sorted runs (must exist and be writable).
    #[must_use]
    pub fn with_scratch_dir(mut self, dir: impl Into<PathBuf>) -> SortedBuilder<C> {
        self.scratch_dir = dir.into();
        self
    }

    /// Chaos seam: make the `nth` spill (0-based) fail after `byte_budget`
    /// bytes. The chaos suite uses this to prove spill files never outlive
    /// a builder whose write path died.
    #[must_use]
    pub fn with_injected_spill_fault(mut self, nth: u64, byte_budget: u64) -> SortedBuilder<C> {
        self.spill_fault = Some((nth, byte_budget));
        self
    }

    /// Records ingested so far (pre-dedup).
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// The artifact's configuration.
    pub(crate) fn config(&self) -> C {
        self.config
    }

    /// Ingests one key with a count; duplicates accumulate.
    pub(crate) fn add_key(&mut self, key: C::Key, count: u64) -> Result<()> {
        self.buffer.push((key, count.max(1)));
        self.ingested += 1;
        if self.buffer.len() >= self.memory_records {
            self.spill()?;
        }
        Ok(())
    }

    /// Ingests every non-empty line of a wordlist reader with count 1: a
    /// digest store keys a line by its SHA-1, a guess archive by the line.
    ///
    /// # Errors
    ///
    /// Read or spill failures, or a line the format cannot store.
    pub fn add_wordlist(&mut self, reader: impl BufRead) -> Result<u64> {
        let mut added = 0u64;
        for line in reader.lines() {
            let line = line?;
            if !line.is_empty() {
                let key = self.config.word_key(&line)?;
                self.add_key(key, 1)?;
                added += 1;
            }
        }
        Ok(added)
    }

    /// Sorts and dedups `buffer` in place (counts summed, saturating).
    fn compact(buffer: &mut Vec<(C::Key, u64)>) {
        buffer.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        buffer.dedup_by(|next, kept| {
            if next.0 == kept.0 {
                kept.1 = kept.1.saturating_add(next.1);
                true
            } else {
                false
            }
        });
    }

    /// Spills the compacted buffer as one sorted run file (always counted,
    /// whatever the artifact's counts flag — the final writer decides what
    /// is served).
    fn spill(&mut self) -> Result<()> {
        Self::compact(&mut self.buffer);
        if self.buffer.is_empty() {
            return Ok(());
        }
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("{}-run-{}-{seq}.tmp", C::RUN_PREFIX, std::process::id());
        // Guard before create: a write failure below (or any later error
        // in the builder's life) unlinks the partial run on drop.
        let guard = ScratchFile::new(self.scratch_dir.join(name));
        let file = File::create(guard.path())?;
        let fault = self.spill_fault.filter(|&(nth, _)| nth == self.spills);
        self.spills += 1;
        let (config, buffer) = (self.config, &self.buffer);
        let write_records = |out: &mut dyn Write| -> Result<()> {
            let mut stream = GuessStreamWriter::new(out, true);
            for (key, count) in buffer {
                stream.push(config.key_bytes(key), *count)?;
            }
            stream.flush()
        };
        match fault {
            Some((_, budget)) => {
                write_records(&mut BufWriter::new(FaultyWrite::new(file, budget)))?;
            }
            None => write_records(&mut BufWriter::new(file))?,
        }
        self.buffer.clear();
        self.runs.push(guard);
        Ok(())
    }

    /// Merges all spilled runs plus the live buffer into the artifact at
    /// `path`, returning its stats. Consumes the builder; scratch runs are
    /// deleted afterwards.
    ///
    /// # Errors
    ///
    /// I/O failures at any stage; the target path is written atomically.
    pub fn finish(mut self, path: impl AsRef<Path>) -> Result<Stats> {
        Self::compact(&mut self.buffer);
        let buffer = std::mem::take(&mut self.buffer);
        let mut sources: Vec<Box<dyn KeyedSource<C::Key>>> =
            Vec::with_capacity(self.runs.len() + 1);
        for run in &self.runs {
            let file = BufReader::new(File::open(run.path())?);
            sources.push(Box::new(RunSource {
                config: self.config,
                stream: GuessStreamReader::new(file, true),
            }));
        }
        sources.push(Box::new(buffer.into_iter()));
        write_union(self.config, sources, path)
        // `self` drops here; the ScratchFile guards remove the run files.
    }
}

// ---------------------------------------------------------------------------
// K-way merge
// ---------------------------------------------------------------------------

/// A sorted, deduplicated record stream: a spill run, the builder's final
/// buffer or an open artifact.
trait KeyedSource<K> {
    /// The next record in ascending key order, or `None` when drained.
    fn next_record(&mut self) -> Result<Option<(K, u64)>>;
}

impl<C: KeyCodec> KeyedSource<C::Key> for SortedCursor<'_, C> {
    fn next_record(&mut self) -> Result<Option<(C::Key, u64)>> {
        SortedCursor::next_record(self)
    }
}

impl<K> KeyedSource<K> for std::vec::IntoIter<(K, u64)> {
    fn next_record(&mut self) -> Result<Option<(K, u64)>> {
        Ok(self.next())
    }
}

/// A spilled sorted run: a counted stream, EOF-terminated.
struct RunSource<C> {
    config: C,
    stream: GuessStreamReader<BufReader<File>>,
}

impl<C: KeyCodec> KeyedSource<C::Key> for RunSource<C> {
    fn next_record(&mut self) -> Result<Option<(C::Key, u64)>> {
        let record = self.stream.next_guess()?;
        Ok(record.map(|(bytes, count)| (self.config.key_from_vec(bytes), count)))
    }
}

/// Writes the union of `sources` to `path`: strictly ascending keys, equal
/// keys collapsed with saturating count sums. Every input stream is already
/// sorted, so this is one streaming pass with one heap entry per input.
fn write_union<C: KeyCodec>(
    config: C,
    mut sources: Vec<Box<dyn KeyedSource<C::Key> + '_>>,
    path: impl AsRef<Path>,
) -> Result<Stats> {
    let mut writer = SortedWriter::create(path, config)?;
    // Heap of (next key, source index); counts live in `heads`.
    let mut heads: Vec<Option<u64>> = vec![None; sources.len()];
    let mut heap: BinaryHeap<Reverse<(C::Key, usize)>> = BinaryHeap::new();
    for (i, source) in sources.iter_mut().enumerate() {
        if let Some((key, count)) = source.next_record()? {
            heads[i] = Some(count);
            heap.push(Reverse((key, i)));
        }
    }
    while let Some(Reverse((key, i))) = heap.pop() {
        let mut count = heads[i].take().expect("queued source has a head");
        if let Some((next, c)) = sources[i].next_record()? {
            heads[i] = Some(c);
            heap.push(Reverse((next, i)));
        }
        // Absorb every other source currently sitting on the same key.
        while let Some(Reverse((k, j))) = heap.peek() {
            if *k != key {
                break;
            }
            let j = *j;
            heap.pop();
            count = count.saturating_add(heads[j].take().expect("queued source has a head"));
            if let Some((next, c)) = sources[j].next_record()? {
                heads[j] = Some(c);
                heap.push(Reverse((next, j)));
            }
        }
        writer.push_key(config.key_bytes(&key), count)?;
    }
    writer.finish()
}

/// Unions N shard artifacts into one at `out`: keys deduplicated, counts
/// summed (saturating). All inputs must share one config — that is what
/// makes the output byte-identical to a one-pass build over the union, for
/// **any** merge tree or input order.
pub(crate) fn merge<C: KeyCodec, P: AsRef<Path>>(
    inputs: &[P],
    out: impl AsRef<Path>,
) -> Result<Stats> {
    if inputs.is_empty() {
        return format_err(format!("merge needs at least one input {}", C::NAME));
    }
    let stores: Vec<SortedStore<C>> = inputs
        .iter()
        .map(SortedStore::open)
        .collect::<Result<_>>()?;
    let config = stores[0].config();
    for store in &stores[1..] {
        if store.config() != config {
            return format_err(format!(
                "mismatched shard configs: {:?} vs {:?} ({})",
                config,
                store.config(),
                store.path().display()
            ));
        }
    }
    let sources = stores
        .iter()
        .map(|s| Box::new(s.records()) as Box<dyn KeyedSource<C::Key> + '_>)
        .collect();
    write_union(config, sources, out)
}
