//! `PFGUESS v1` — sorted, prefix-compressed, mergeable guess archives.
//!
//! A guess archive is the on-disk form of an attack run's dedup set: every
//! distinct guess the engine emitted, sorted in byte order, with the number
//! of times it was produced. It is the sorted-block container shared with
//! `PFDIGEST v1` (layout: `sorted.rs`; field spec: DESIGN.md, "Artifact
//! schemas"), keyed by the raw guess bytes instead of truncated digests:
//! variable-length keys, prefix-compressed within blocks, with a trailing
//! index for seek-free range extraction (the `twobit.rs` idiom: jump to the
//! block that could hold a prefix, decode forward, stop at the successor
//! key).
//!
//! The container gives the archive the digest store's discipline:
//!
//! * records are **strictly ascending**; building is a bounded-memory
//!   external merge sort ([`GuessArchiveBuilder`]);
//! * the artifact is a **pure function of the record multiset and config**,
//!   so [`merge_archives`] over any merge tree — pairwise, 4-way, reversed —
//!   produces a file byte-identical to a single-pass build over the union
//!   (asserted with `fs::read` equality in `tests/store.rs`);
//! * writes land via a `.tmp` sibling and an atomic rename; a crashed build
//!   leaves nothing behind.
//!
//! This module holds what is the archive's own: [`GuessConfig`], which is
//! also its key codec, guess lookups, prefix extraction, and the headerless
//! record stream ([`GuessStreamWriter`] / [`GuessStreamReader`]). Builder
//! spill runs use that stream, and `passflow-core` embeds it inside
//! `PFATTACK v1` checkpoints to persist the engine's dedup-set state.

use std::io::{BufRead, Write};
use std::path::Path;

use crate::format::{decode_varint, fnv1a, format_err, read_varint, write_varint, FNV_SEED};
use crate::format::{Result, StoreError};
use crate::sorted::{
    self, KeyCodec, SortedBuilder, SortedCursor, SortedStore, SortedWriter, Stats,
};

/// Corruption guard: no sane guess is longer than this.
pub const MAX_GUESS_LEN: usize = 1 << 16;

/// Tuning knobs baked into a guess archive's header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuessConfig {
    /// Whether per-guess emission counts are stored. Without counts every
    /// lookup reports a count of 1 (pure membership).
    pub counts: bool,
    /// Records per compressed block — the random-access granularity.
    pub records_per_block: usize,
}

impl Default for GuessConfig {
    fn default() -> Self {
        GuessConfig {
            counts: true,
            records_per_block: 1024,
        }
    }
}

impl GuessConfig {
    /// Checks the invariants enforced on both write and load.
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] when `records_per_block` is zero or does not
    /// fit in a `u32`.
    pub fn validate(&self) -> Result<()> {
        if self.records_per_block == 0 || self.records_per_block > u32::MAX as usize {
            return format_err("records_per_block must be positive and fit in u32");
        }
        Ok(())
    }
}

/// Rejects guesses longer than [`MAX_GUESS_LEN`].
fn check_guess_len(guess: &[u8]) -> Result<()> {
    if guess.len() > MAX_GUESS_LEN {
        return format_err(format!(
            "guess is {} bytes, limit is {MAX_GUESS_LEN}",
            guess.len()
        ));
    }
    Ok(())
}

/// Appends one guess key: `varint(shared)` with `prev` (absent for a
/// block's first record) · `varint(suffix_len)` · suffix.
fn encode_guess(prev: Option<&[u8]>, guess: &[u8], out: &mut Vec<u8>) {
    let shared = prev.map_or(0, |prev| {
        let shared = prev.iter().zip(guess).take_while(|(a, b)| a == b).count();
        write_varint(out, shared as u64);
        shared
    });
    write_varint(out, (guess.len() - shared) as u64);
    out.extend_from_slice(&guess[shared..]);
}

/// Rejects a record whose shared prefix and suffix do not fit.
fn check_record_shape(shared: usize, prev_len: usize, suffix_len: u64) -> Result<usize> {
    if shared > prev_len {
        return format_err("shared prefix longer than the previous guess");
    }
    match usize::try_from(suffix_len) {
        Ok(len) if len <= MAX_GUESS_LEN - shared => Ok(len),
        _ => format_err(format!(
            "guess longer than the {MAX_GUESS_LEN}-byte limit (corrupted?)"
        )),
    }
}

/// Folds one served record into the running checksum. The length is hashed
/// first so `("ab", "c")` and `("a", "bc")` cannot collide; the count
/// hashed is the count a reader will *see* (1 when counts are disabled).
fn checksum_guess(hash: u64, guess: &[u8], count: u64) -> u64 {
    let h = fnv1a(hash, &(guess.len() as u64).to_le_bytes());
    fnv1a(fnv1a(h, guess), &count.to_le_bytes())
}

// ---------------------------------------------------------------------------
// Headerless record stream (spill runs, PFATTACK embedding)
// ---------------------------------------------------------------------------

/// Writes the `PFGUESS` record codec as a headerless continuous stream:
/// every record is `varint(shared) · varint(suffix_len) · suffix`
/// (`· varint(count)` when counts are on), prefix-compressed against its
/// predecessor. Builder spill runs and the dedup-set section of
/// `PFATTACK v1` checkpoints are exactly this stream.
pub struct GuessStreamWriter<W: Write> {
    out: W,
    counts: bool,
    prev: Vec<u8>,
    records: u64,
    checksum: u64,
    scratch: Vec<u8>,
}

impl<W: Write> GuessStreamWriter<W> {
    /// Starts a stream over `out`.
    pub fn new(out: W, counts: bool) -> GuessStreamWriter<W> {
        GuessStreamWriter {
            out,
            counts,
            prev: Vec::new(),
            records: 0,
            checksum: FNV_SEED,
            scratch: Vec::new(),
        }
    }

    /// Appends one record. A zero `count` is stored as 1.
    ///
    /// # Errors
    ///
    /// Rejects records not strictly greater than their predecessor,
    /// over-long guesses, and I/O failures.
    pub fn push(&mut self, guess: &[u8], count: u64) -> Result<()> {
        check_guess_len(guess)?;
        if self.records > 0 && guess <= self.prev.as_slice() {
            return format_err(format!(
                "records must be strictly ascending ({guess:?} after {:?})",
                self.prev
            ));
        }
        let served = if self.counts { count.max(1) } else { 1 };
        self.scratch.clear();
        // Every stream record carries its shared length, the first one 0.
        encode_guess(Some(&self.prev), guess, &mut self.scratch);
        if self.counts {
            write_varint(&mut self.scratch, served);
        }
        self.out.write_all(&self.scratch)?;
        self.checksum = checksum_guess(self.checksum, guess, served);
        self.prev.clear();
        self.prev.extend_from_slice(guess);
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Running FNV-1a checksum of the served records.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn flush(&mut self) -> Result<()> {
        self.out.flush()?;
        Ok(())
    }
}

/// Reads back a [`GuessStreamWriter`] stream. A clean EOF at a record
/// boundary ends the stream; EOF mid-record is a format error. Embedded
/// users (checkpoint payloads) instead read exactly the record count they
/// persisted and never rely on EOF.
pub struct GuessStreamReader<R: BufRead> {
    input: R,
    counts: bool,
    prev: Vec<u8>,
    records: u64,
    checksum: u64,
}

impl<R: BufRead> GuessStreamReader<R> {
    /// Starts reading a stream from `input`.
    pub fn new(input: R, counts: bool) -> GuessStreamReader<R> {
        GuessStreamReader {
            input,
            counts,
            prev: Vec::new(),
            records: 0,
            checksum: FNV_SEED,
        }
    }

    /// One byte, absorbing EINTR; `None` at EOF.
    fn read_byte(&mut self) -> Result<Option<u8>> {
        let mut byte = [0u8; 1];
        loop {
            match self.input.read(&mut byte) {
                Ok(0) => return Ok(None),
                Ok(_) => return Ok(Some(byte[0])),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// A varint inside a record, where EOF is corruption.
    fn read_varint(&mut self) -> Result<u64> {
        decode_varint(|| self.read_byte())?
            .ok_or_else(|| StoreError::Format("unexpected EOF inside a guess record".to_string()))
    }

    /// The next record, or `None` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// I/O failures and structural corruption (truncated records, shared
    /// prefixes longer than the predecessor, over-long guesses).
    pub fn next_guess(&mut self) -> Result<Option<(Vec<u8>, u64)>> {
        // Only the first varint of a record may meet a clean EOF.
        let Some(shared) = decode_varint(|| self.read_byte())? else {
            return Ok(None);
        };
        let shared = usize::try_from(shared).unwrap_or(usize::MAX);
        let suffix_len = self.read_varint()?;
        let suffix_len = check_record_shape(shared, self.prev.len(), suffix_len)?;
        self.prev.truncate(shared);
        self.prev.resize(shared + suffix_len, 0);
        let mut done = 0usize;
        while done < suffix_len {
            match self.input.read(&mut self.prev[shared + done..]) {
                Ok(0) => return format_err("unexpected EOF inside a guess record"),
                Ok(n) => done += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        let count = if self.counts { self.read_varint()? } else { 1 };
        self.records += 1;
        self.checksum = checksum_guess(self.checksum, &self.prev, count);
        Ok(Some((self.prev.clone(), count)))
    }

    /// Records decoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Running FNV-1a checksum of the decoded records.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

// ---------------------------------------------------------------------------
// The guess key codec
// ---------------------------------------------------------------------------

impl KeyCodec for GuessConfig {
    type Key = Vec<u8>;
    const MAGIC: &'static [u8; 8] = b"PFGUESS\0";
    const NAME: &'static str = "PFGUESS";
    const RUN_PREFIX: &'static str = "pfguess";

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
        [u8::from(self.counts), 0, 0, 0]
    }

    fn from_header(flags: [u8; 4], records_per_block: usize) -> Result<Self> {
        let config = GuessConfig {
            counts: match flags[0] {
                0 => false,
                1 => true,
                other => return format_err(format!("bad counts flag {other}")),
            },
            records_per_block,
        };
        config.validate()?;
        Ok(config)
    }

    fn key_bytes<'k>(&self, key: &'k Vec<u8>) -> &'k [u8] {
        key
    }

    fn key_from_vec(&self, bytes: Vec<u8>) -> Vec<u8> {
        bytes
    }

    fn word_key(&self, word: &str) -> Result<Vec<u8>> {
        check_guess_len(word.as_bytes())?;
        Ok(word.as_bytes().to_vec())
    }

    fn encode_key(&self, prev: Option<&[u8]>, key: &[u8], out: &mut Vec<u8>) {
        encode_guess(prev, key, out);
    }

    fn decode_key(
        &self,
        raw: &[u8],
        pos: &mut usize,
        first: bool,
        key: &mut Vec<u8>,
    ) -> Result<()> {
        let shared = if first {
            0
        } else {
            usize::try_from(read_varint(raw, pos)?).unwrap_or(usize::MAX)
        };
        let suffix_len = read_varint(raw, pos)?;
        let suffix_len = check_record_shape(shared, key.len(), suffix_len)?;
        let Some(suffix) = raw.get(*pos..*pos + suffix_len) else {
            return format_err("truncated record suffix in block");
        };
        key.truncate(shared);
        key.extend_from_slice(suffix);
        *pos += suffix_len;
        Ok(())
    }

    fn encode_index_key(&self, key: &[u8], out: &mut Vec<u8>) {
        write_varint(out, key.len() as u64);
        out.extend_from_slice(key);
    }

    fn decode_index_key(&self, raw: &[u8], pos: &mut usize) -> Result<Vec<u8>> {
        let len = check_record_shape(0, 0, read_varint(raw, pos)?)?;
        let Some(first) = raw.get(*pos..*pos + len) else {
            return format_err("truncated index first-key");
        };
        *pos += len;
        Ok(first.to_vec())
    }

    fn checksum(hash: u64, key: &[u8], count: u64) -> u64 {
        checksum_guess(hash, key, count)
    }

    fn show(key: &[u8]) -> String {
        format!("{:?}", String::from_utf8_lossy(key))
    }
}

/// Summary of a finished guess archive.
pub type GuessStats = Stats;

/// Streams a **strictly ascending** guess sequence into a `PFGUESS v1`
/// archive, committed atomically by `finish`.
pub type GuessArchiveWriter = SortedWriter<GuessConfig>;

/// An open, random-access `PFGUESS v1` archive.
pub type GuessArchive = SortedStore<GuessConfig>;

/// Streaming, block-at-a-time iteration over a guess archive.
pub type GuessCursor<'a> = SortedCursor<'a, GuessConfig>;

/// Bounded-memory streaming construction of `PFGUESS v1` archives (the
/// digest store's external merge sort over guess keys).
pub type GuessArchiveBuilder = SortedBuilder<GuessConfig>;

impl GuessArchiveWriter {
    /// Appends one guess. A zero `count` is stored as 1.
    ///
    /// # Errors
    ///
    /// Rejects guesses that are not strictly greater (in byte order) than
    /// their predecessor, over-long guesses, and I/O failures.
    pub fn push(&mut self, guess: &str, count: u64) -> Result<()> {
        self.push_bytes(guess.as_bytes(), count)
    }

    /// Appends one record keyed by raw bytes.
    ///
    /// # Errors
    ///
    /// As [`push`](Self::push).
    pub fn push_bytes(&mut self, guess: &[u8], count: u64) -> Result<()> {
        check_guess_len(guess)?;
        self.push_key(guess, count)
    }
}

impl GuessArchive {
    /// Looks up one guess; returns its emission count, or `None` if absent.
    /// Counts are 1 for membership-only archives.
    ///
    /// # Errors
    ///
    /// I/O or block-decoding failures.
    pub fn contains(&self, guess: &str) -> Result<Option<u64>> {
        self.lookup(&guess.as_bytes().to_vec())
    }

    /// Range extraction: every stored guess starting with `prefix`, in
    /// ascending byte order, as `(guess, count)` pairs. Jumps straight to
    /// the first candidate block via the index and stops at the prefix's
    /// byte successor, so cost is proportional to the range, not the
    /// archive.
    ///
    /// # Errors
    ///
    /// I/O or block-decoding failures, or non-UTF-8 record bytes
    /// (corruption: the writer only accepts strings).
    pub fn extract_prefix(&self, prefix: &str) -> Result<Vec<(String, u64)>> {
        let lo = prefix.as_bytes().to_vec();
        let hi = prefix_successor(&lo);
        let mut out = Vec::new();
        self.scan(
            &lo,
            |guess| hi.as_ref().is_some_and(|hi| guess >= hi),
            |guess, count| {
                let guess = String::from_utf8(guess.clone())
                    .map_err(|_| StoreError::Format("non-UTF-8 guess record".to_string()))?;
                out.push((guess, count));
                Ok(())
            },
        )?;
        Ok(out)
    }
}

/// The smallest byte string greater than every string with prefix `p`
/// (`None` when no upper bound exists — all-0xFF or empty prefixes).
fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut s = prefix.to_vec();
    while let Some(&last) = s.last() {
        if last == 0xff {
            s.pop();
        } else {
            *s.last_mut().expect("non-empty") = last + 1;
            return Some(s);
        }
    }
    None
}

impl GuessArchiveBuilder {
    /// Ingests one guess with an emission count; duplicates accumulate.
    ///
    /// # Errors
    ///
    /// Spill I/O failures, or an over-long guess.
    pub fn add_guess(&mut self, guess: &str, count: u64) -> Result<()> {
        let key = self.config().word_key(guess)?;
        self.add_key(key, count)
    }
}

/// Unions N shard archives into one at `out`: guesses deduplicated, counts
/// summed (saturating). All inputs must share the same [`GuessConfig`] —
/// that is what guarantees the merged archive is byte-identical to a
/// one-pass build over the union, for **any** merge tree or input order.
///
/// # Errors
///
/// No inputs, mismatched configs, unreadable inputs, or write failures.
pub fn merge_archives<P: AsRef<Path>>(inputs: &[P], out: impl AsRef<Path>) -> Result<GuessStats> {
    sorted::merge::<GuessConfig, P>(inputs, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorted::HEADER_LEN;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pfguess-unit-{}-{tag}.pfg", std::process::id()))
    }

    #[test]
    fn stream_round_trips_with_checksum() {
        let mut encoded = Vec::new();
        let records: Vec<(&str, u64)> = vec![
            ("alpha", 3),
            ("alphabet", 1),
            ("beta", 7),
            ("betamax", 2),
            ("gamma", 1),
        ];
        let mut writer = GuessStreamWriter::new(&mut encoded, true);
        for (guess, count) in &records {
            writer.push(guess.as_bytes(), *count).unwrap();
        }
        let (written, checksum) = (writer.records(), writer.checksum());
        assert_eq!(written, 5);

        let mut reader = GuessStreamReader::new(encoded.as_slice(), true);
        for (guess, count) in &records {
            let (g, c) = reader.next_guess().unwrap().unwrap();
            assert_eq!((g.as_slice(), c), (guess.as_bytes(), *count));
        }
        assert!(reader.next_guess().unwrap().is_none(), "clean EOF");
        assert_eq!(reader.checksum(), checksum, "reader recomputes the sum");
    }

    #[test]
    fn stream_rejects_unsorted_and_truncated_input() {
        let mut encoded = Vec::new();
        let mut writer = GuessStreamWriter::new(&mut encoded, true);
        writer.push(b"mango", 1).unwrap();
        assert!(writer.push(b"mango", 1).is_err(), "duplicates rejected");
        assert!(writer.push(b"apple", 1).is_err(), "descending rejected");
        drop(writer);

        encoded.truncate(encoded.len() - 1);
        let mut reader = GuessStreamReader::new(encoded.as_slice(), true);
        assert!(reader.next_guess().is_err(), "truncated record is an error");
    }

    #[test]
    fn archive_round_trips_and_serves_lookups() {
        let path = temp_path("roundtrip");
        let config = GuessConfig {
            counts: true,
            records_per_block: 3,
        };
        let mut writer = GuessArchiveWriter::create(&path, config).unwrap();
        let guesses: Vec<String> = (0..25).map(|i| format!("pw{i:03}")).collect();
        for (i, guess) in guesses.iter().enumerate() {
            writer.push(guess, i as u64 + 1).unwrap();
        }
        let stats = writer.finish().unwrap();
        assert_eq!(stats.record_count, 25);
        assert_eq!(stats.block_count, 9, "25 records over 3-record blocks");

        let archive = GuessArchive::open(&path).unwrap();
        assert_eq!(archive.record_count(), 25);
        assert_eq!(archive.contains("pw007").unwrap(), Some(8));
        assert_eq!(archive.contains("pw777").unwrap(), None);
        let range = archive.extract_prefix("pw01").unwrap();
        assert_eq!(range.len(), 10, "pw010..=pw019");
        assert_eq!(range[0], ("pw010".to_string(), 11));
        assert_eq!(archive.extract_prefix("zz").unwrap(), Vec::new());
        let all = archive.extract_prefix("").unwrap();
        assert_eq!(all.len(), 25, "empty prefix extracts everything");
        archive.verify().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_archives_are_valid() {
        let path = temp_path("empty");
        let writer = GuessArchiveWriter::create(&path, GuessConfig::default()).unwrap();
        let stats = writer.finish().unwrap();
        assert_eq!(stats.record_count, 0);
        let archive = GuessArchive::open(&path).unwrap();
        assert_eq!(archive.record_count(), 0);
        assert_eq!(archive.contains("anything").unwrap(), None);
        archive.verify().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn prefix_successor_handles_ff_tails() {
        assert_eq!(prefix_successor(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_successor(b"ab\xff"), Some(b"ac".to_vec()));
        assert_eq!(prefix_successor(b"\xff\xff"), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn corrupted_archives_fail_verify() {
        let path = temp_path("corrupt");
        let mut writer = GuessArchiveWriter::create(&path, GuessConfig::default()).unwrap();
        for i in 0..100 {
            writer.push(&format!("guess{i:04}"), 1).unwrap();
        }
        writer.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize + 10] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let archive = GuessArchive::open(&path).unwrap();
        assert!(archive.verify().is_err(), "bit flip must fail verify");
        std::fs::remove_file(&path).unwrap();
    }
}
