//! `passflow digest` and `passflow archive`: build, merge, query and verify
//! `PFDIGEST v1` breach-digest stores and `PFGUESS v1` guess archives.
//!
//! ```text
//! passflow digest build  --out breach.pfd [--no-counts] [--digest-bytes 16]
//!                        [--block-records 1024] [--memory-records N]
//!                        [wordlist…]          # stdin when no files given
//! passflow digest merge  --out merged.pfd shard1.pfd shard2.pfd …
//! passflow digest query  --digest breach.pfd (--password PW | --prefix HEX | --hash HEX)
//! passflow digest verify --digest breach.pfd
//! passflow digest hash   PASSWORD             # prints SHA1(password) hex
//!
//! passflow archive build   --out run.pfg [--no-counts] [--block-records 1024]
//!                          [--memory-records N] [wordlist…]   # stdin when no files
//! passflow archive merge   --out merged.pfg shard1.pfg shard2.pfg …
//! passflow archive query   --archive run.pfg --guess PASSWORD
//! passflow archive extract --archive run.pfg --prefix STR     # guess:count lines
//! passflow archive verify  --archive run.pfg
//! ```
//!
//! Both formats are one sorted-block container, so the two subcommands
//! share their wordlist input, merge and verify handling. Exit status is
//! non-zero on any failure, so CI can drive the build → verify → serve and
//! attack → merge → verify pipelines from a shell script.

use std::fmt::Debug;
use std::io::{BufRead, BufReader};

use passflow_store::{
    merge_archives, merge_artifacts, sha1, DigestConfig, DigestStats, DigestStore,
    DigestStoreBuilder, GuessArchive, GuessArchiveBuilder, GuessConfig, VerifyReport,
    DEFAULT_MEMORY_RECORDS,
};

use super::args::Flags;

const DIGEST_USAGE: &str = "usage: passflow digest <build|merge|query|verify|hash> [options]\n\
     \x20 build  --out FILE [--no-counts] [--digest-bytes N] [--block-records N] \
     [--memory-records N] [wordlist…]\n\
     \x20 merge  --out FILE shard.pfd…\n\
     \x20 query  --digest FILE (--password PW | --prefix HEX | --hash HEX)\n\
     \x20 verify --digest FILE\n\
     \x20 hash   PASSWORD";

const ARCHIVE_USAGE: &str =
    "usage: passflow archive <build|merge|query|extract|verify> [options]\n\
     \x20 build   --out FILE [--no-counts] [--block-records N] [--memory-records N] \
     [wordlist…]\n\
     \x20 merge   --out FILE shard.pfg…\n\
     \x20 query   --archive FILE --guess PASSWORD\n\
     \x20 extract --archive FILE --prefix STR\n\
     \x20 verify  --archive FILE";

/// Runs `passflow digest`.
pub fn digest(args: Vec<String>) -> Result<(), String> {
    let Some((command, args)) = args.split_first() else {
        return Err(DIGEST_USAGE.to_string());
    };
    let args = args.to_vec();
    match command.as_str() {
        "build" => {
            let valued = [
                "--out",
                "--digest-bytes",
                "--block-records",
                "--memory-records",
            ];
            let flags = Flags::parse(args, &valued, &["--no-counts"])?;
            let config = DigestConfig {
                digest_bytes: flags.parsed("--digest-bytes")?.unwrap_or(16),
                counts: !flags.switch("--no-counts"),
                records_per_block: flags.parsed("--block-records")?.unwrap_or(1024),
            };
            let out = flags.required("--out")?;
            let mut builder = DigestStoreBuilder::new(config).with_memory_records(
                flags
                    .parsed("--memory-records")?
                    .unwrap_or(DEFAULT_MEMORY_RECORDS),
            );
            let total = read_wordlists(&flags.positional, |r| builder.add_wordlist(r))?;
            let stats = builder.finish(out).map_err(|e| e.to_string())?;
            report_written(out, &stats, "digests", &format!("{total} passwords"));
            Ok(())
        }
        "merge" => merge(args, |inputs, out| merge_artifacts(inputs, out), "digests"),
        "query" => {
            let flags = Flags::parse(args, &["--digest", "--password", "--prefix", "--hash"], &[])?;
            flags.no_positional()?;
            let path = flags.required("--digest")?;
            let store = DigestStore::open(path).map_err(|e| format!("{path}: {e}"))?;
            let lookup = |digest: &[u8], hex: String| -> Result<(), String> {
                match store.contains_digest(digest).map_err(|e| e.to_string())? {
                    Some(count) => println!("BREACHED {hex} count={count}"),
                    None => println!("CLEAN {hex}"),
                }
                Ok(())
            };
            match (
                flags.value("--password"),
                flags.value("--prefix"),
                flags.value("--hash"),
            ) {
                (Some(pw), None, None) => {
                    let digest = sha1::password_digest(pw);
                    lookup(&digest, sha1::to_hex(&digest))
                }
                (None, Some(prefix), None) => {
                    let entries = store.range(prefix).map_err(|e| e.to_string())?;
                    for entry in &entries {
                        println!("{}:{}", entry.suffix, entry.count);
                    }
                    eprintln!(
                        "{} suffixes under prefix {}",
                        entries.len(),
                        prefix.to_ascii_uppercase()
                    );
                    Ok(())
                }
                (None, None, Some(hex)) => {
                    let digest = sha1::from_hex(hex).ok_or("--hash must be hex of even length")?;
                    if digest.len() < store.config().digest_bytes {
                        return Err(format!(
                            "--hash needs at least {} bytes of digest",
                            store.config().digest_bytes
                        ));
                    }
                    lookup(&digest, hex.to_ascii_uppercase())
                }
                _ => Err("query needs exactly one of --password, --prefix, --hash".to_string()),
            }
        }
        "verify" => {
            let path = single_path(args, "--digest")?;
            let store = DigestStore::open(&path).map_err(|e| format!("{path}: {e}"))?;
            let report = store.verify().map_err(|e| format!("{path}: {e}"))?;
            print_verified(&report, store.file_len(), &store.config());
            Ok(())
        }
        "hash" => {
            let flags = Flags::parse(args, &[], &[])?;
            let [pw] = flags.positional.as_slice() else {
                return Err("hash needs exactly one password argument".to_string());
            };
            println!("{}", sha1::to_hex(&sha1::password_digest(pw)));
            Ok(())
        }
        _ => Err(DIGEST_USAGE.to_string()),
    }
}

/// Runs `passflow archive`.
pub fn archive(args: Vec<String>) -> Result<(), String> {
    let Some((command, args)) = args.split_first() else {
        return Err(ARCHIVE_USAGE.to_string());
    };
    let args = args.to_vec();
    match command.as_str() {
        "build" => {
            let valued = ["--out", "--block-records", "--memory-records"];
            let flags = Flags::parse(args, &valued, &["--no-counts"])?;
            let config = GuessConfig {
                counts: !flags.switch("--no-counts"),
                records_per_block: flags.parsed("--block-records")?.unwrap_or(1024),
            };
            let out = flags.required("--out")?;
            let mut builder = GuessArchiveBuilder::new(config).with_memory_records(
                flags
                    .parsed("--memory-records")?
                    .unwrap_or(DEFAULT_MEMORY_RECORDS),
            );
            let total = read_wordlists(&flags.positional, |r| builder.add_wordlist(r))?;
            let stats = builder.finish(out).map_err(|e| e.to_string())?;
            report_written(out, &stats, "guesses", &format!("{total} lines"));
            Ok(())
        }
        "merge" => merge(args, |inputs, out| merge_archives(inputs, out), "guesses"),
        "query" => {
            let flags = Flags::parse(args, &["--archive", "--guess"], &[])?;
            flags.no_positional()?;
            let path = flags.required("--archive")?;
            let guess = flags.required("--guess")?;
            let archive = GuessArchive::open(path).map_err(|e| format!("{path}: {e}"))?;
            match archive.contains(guess).map_err(|e| e.to_string())? {
                Some(count) => println!("PRESENT {guess} count={count}"),
                None => println!("ABSENT {guess}"),
            }
            Ok(())
        }
        "extract" => {
            let flags = Flags::parse(args, &["--archive", "--prefix"], &[])?;
            flags.no_positional()?;
            let path = flags.required("--archive")?;
            let prefix = flags.required("--prefix")?;
            let archive = GuessArchive::open(path).map_err(|e| format!("{path}: {e}"))?;
            let entries = archive.extract_prefix(prefix).map_err(|e| e.to_string())?;
            for (guess, count) in &entries {
                println!("{guess}:{count}");
            }
            eprintln!("{} guesses under prefix {prefix:?}", entries.len());
            Ok(())
        }
        "verify" => {
            let path = single_path(args, "--archive")?;
            let archive = GuessArchive::open(&path).map_err(|e| format!("{path}: {e}"))?;
            let report = archive.verify().map_err(|e| format!("{path}: {e}"))?;
            print_verified(&report, archive.file_len(), &archive.config());
            Ok(())
        }
        _ => Err(ARCHIVE_USAGE.to_string()),
    }
}

/// Feeds each wordlist in `paths` (stdin when there are none) to `add`,
/// returning the number of lines read.
fn read_wordlists(
    paths: &[String],
    mut add: impl FnMut(&mut dyn BufRead) -> passflow_store::Result<u64>,
) -> Result<u64, String> {
    if paths.is_empty() {
        return add(&mut std::io::stdin().lock()).map_err(|e| e.to_string());
    }
    let mut total = 0;
    for path in paths {
        let file = std::fs::File::open(path).map_err(|e| format!("opening {path:?}: {e}"))?;
        total += add(&mut BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(total)
}

/// `merge --out FILE input…` for either format: `merge` unions the inputs
/// into `out`.
fn merge(
    args: Vec<String>,
    merge: impl FnOnce(&[String], &str) -> passflow_store::Result<DigestStats>,
    noun: &str,
) -> Result<(), String> {
    let flags = Flags::parse(args, &["--out"], &[])?;
    let out = flags.required("--out")?;
    if flags.positional.is_empty() {
        return Err("merge needs at least one input".to_string());
    }
    let stats = merge(&flags.positional, out).map_err(|e| e.to_string())?;
    let shards = flags.positional.len();
    report_written(out, &stats, noun, &format!("{shards} shards"));
    Ok(())
}

/// The path given to `verify`'s only flag.
fn single_path(args: Vec<String>, flag: &'static str) -> Result<String, String> {
    let flags = Flags::parse(args, &[flag], &[])?;
    flags.no_positional()?;
    flags.required(flag).map(str::to_string)
}

/// The `wrote …` line of `build` and `merge` in both formats
/// (`DigestStats` and `GuessStats` are one type).
fn report_written(out: &str, stats: &DigestStats, noun: &str, from: &str) {
    eprintln!(
        "wrote {out}: {} unique {noun} from {from}, {} blocks, {} bytes",
        stats.record_count, stats.block_count, stats.bytes
    );
}

/// The `ok: …` line of `verify` in both formats.
fn print_verified(report: &VerifyReport, file_len: u64, config: &dyn Debug) {
    println!(
        "ok: {} records in {} blocks, {file_len} bytes, checksum {:016x} ({config:?})",
        report.record_count, report.block_count, report.checksum,
    );
}
