//! # passflow-store
//!
//! Std-only sorted storage for the PassFlow reproduction: one sorted-block
//! container — sorted, deduplicated keys with optional counts, packed into
//! prefix-compressed blocks behind a trailing index — written once and
//! instantiated with two key codecs (DESIGN.md, "Breach screening"):
//!
//! * **`PFDIGEST v1` breach screening** keys records by truncated SHA-1
//!   digests. `passflow serve` answers `GET /v1/range/{prefix5}`
//!   (k-anonymity: the client reveals 20 bits of `SHA1(password)` and
//!   matches the suffix locally) and `POST /v1/screen` (model strength +
//!   breach membership in one response) straight off an open
//!   [`DigestStore`];
//! * **`PFGUESS v1` mergeable guess archives** key records by raw guess
//!   bytes. Attack shards persist their dedup'd guess streams as archives
//!   ([`GuessArchiveBuilder`]) and later union shard outputs with
//!   [`merge_archives`], dedup'ing guesses and summing emission counts
//!   across runs. The headerless form of the guess codec
//!   ([`GuessStreamWriter`]) carries the dedup-set state inside
//!   `PFATTACK v1` attack checkpoints.
//!
//! Both formats share the builder, the atomic writer, the reader and its
//! integrity checks, so their public types ([`DigestStore`],
//! [`GuessArchive`], …) are aliases of one generic container.
//!
//! From the shell, the root crate's `passflow digest` and
//! `passflow archive` subcommands build, merge, query and verify both
//! formats, e.g. `cargo run --release -- digest build --out breach.pfd dump.txt`.
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

pub mod format;
pub mod guess;
pub mod io;
pub mod sha1;
mod sorted;

pub use format::{
    merge_artifacts, DigestConfig, DigestStats, DigestStore, DigestStoreBuilder, RangeEntry,
    RawDigest, RecordCursor, Result, StoreError,
};
pub use guess::{
    merge_archives, GuessArchive, GuessArchiveBuilder, GuessArchiveWriter, GuessConfig,
    GuessCursor, GuessStats, GuessStreamReader, GuessStreamWriter, MAX_GUESS_LEN,
};
pub use io::{
    write_atomic, FaultInjector, FaultPlan, FaultyIo, FaultyWrite, FileIo, RetryPolicy, StoreIo,
};
pub use sorted::{VerifyReport, DEFAULT_MEMORY_RECORDS};
