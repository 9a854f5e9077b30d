//! # passflow-store
//!
//! The packed sorted digest store of the PassFlow reproduction: a std-only
//! `PFDIGEST v1` binary artifact holding sorted, prefix-compressed,
//! truncated SHA-1 digests with optional breach counts, indexed for O(1)
//! seeks to any digest-prefix range.
//!
//! The same artifact serves two workloads (DESIGN.md, "Breach screening
//! store"):
//!
//! * **HIBP-style breach/blocklist screening** — `passflow-serve` answers
//!   `GET /v1/range/{prefix5}` (k-anonymity: the client reveals 20 bits of
//!   `SHA1(password)` and matches the suffix locally) and
//!   `POST /v1/screen` (model strength + breach membership in one
//!   response) straight off an open [`DigestStore`];
//! * **mergeable guess archives** — attack shards persist their dedup'd
//!   guess streams as `PFGUESS v1` sorted archives ([`GuessArchiveBuilder`],
//!   same external-merge-sort skeleton, keyed by raw guess bytes instead of
//!   digests) and later union shard outputs with [`merge_archives`],
//!   dedup'ing guesses and summing emission counts across runs. The
//!   headerless form of the same codec ([`GuessStreamWriter`]) carries the
//!   dedup-set state inside `PFATTACK v1` attack checkpoints.
//!
//! Everything is deterministic at the byte level: building in one pass and
//! merging N shard builds of the same records produce identical files, so
//! artifacts can be content-addressed and diffed.
//!
//! ```rust
//! use passflow_store::{DigestConfig, DigestStore, DigestStoreBuilder};
//!
//! let dir = std::env::temp_dir();
//! let path = dir.join(format!("pfdigest-doc-{}.pfd", std::process::id()));
//! let mut builder = DigestStoreBuilder::new(DigestConfig::default());
//! builder.add_password("password123")?;
//! builder.add_password("password123")?;
//! builder.add_password("letmein")?;
//! builder.finish(&path)?;
//!
//! let store = DigestStore::open(&path)?;
//! assert_eq!(store.contains_password("password123")?, Some(2));
//! assert_eq!(store.contains_password("correct horse")?, None);
//! // k-anonymity: SHA1("password123") starts with CBFDA…
//! assert!(!store.range("CBFDA")?.is_empty());
//! std::fs::remove_file(&path)?;
//! # Ok::<(), passflow_store::StoreError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod format;
pub mod guess;
pub mod io;
pub mod merge;
pub mod sha1;

pub use builder::{DigestStoreBuilder, DEFAULT_MEMORY_RECORDS};
pub use format::{
    DigestConfig, DigestStats, DigestStore, RangeEntry, RawDigest, RecordCursor, Result,
    StoreError, VerifyReport,
};
pub use guess::{
    merge_archives, GuessArchive, GuessArchiveBuilder, GuessArchiveWriter, GuessConfig,
    GuessCursor, GuessStats, GuessStreamReader, GuessStreamWriter, MAX_GUESS_LEN,
};
pub use io::{
    write_atomic, FaultInjector, FaultPlan, FaultyIo, FaultyWrite, FileIo, RetryPolicy, StoreIo,
};
pub use merge::merge_artifacts;
