//! Pluggable positioned-read I/O with deterministic fault injection.
//!
//! [`DigestStore`](crate::DigestStore) never reads its artifact through a
//! bare [`File`]: every positioned read goes through the [`StoreIo`] trait
//! and the bounded-retry helper [`read_exact_at`]. In production the
//! implementation is [`FileIo`] (a plain `pread`); in the chaos suite it is
//! [`FaultyIo`], which wraps any `StoreIo` with a **seeded, deterministic**
//! [`FaultPlan`] injecting the whole taxonomy of read failures:
//!
//! * **short reads** — fewer bytes than asked, the POSIX-legal case almost
//!   no code path ever exercises;
//! * **EINTR** ([`ErrorKind::Interrupted`]) — retried essentially for free,
//!   as the kernel contract intends;
//! * **transient errors** ([`ErrorKind::WouldBlock`]) — retried a bounded
//!   number of times ([`RetryPolicy`]) before surfacing;
//! * **permanent errors / outages** — surfaced immediately; the serving
//!   layer's circuit breaker decides what happens next;
//! * **injected latency** — faulted reads can also stall, so timeout and
//!   deadline paths get exercised together with error paths.
//!
//! Fault decisions are a pure function of `(seed, read index)` via a
//! SplitMix64 stream, so a single-threaded request sequence sees the exact
//! same faults on every run — the chaos suite's determinism rests on this.
//!
//! Every artifact the workspace persists is committed the same way: bytes
//! go to a `<path>.tmp` sibling, which is synced, renamed over `path`, and
//! the parent directory is synced so the rename itself is durable. Small
//! artifacts written whole use [`write_atomic`]; the `PFDIGEST`/`PFGUESS`
//! writers stream through the same commit.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Positioned reads over an artifact. One attempt per call: implementations
/// may return fewer bytes than requested (a short read) and may fail
/// transiently; callers go through [`read_exact_at`] for the retry
/// discipline. Implementations never move a shared cursor, so a store is
/// safe to share across serving threads.
pub trait StoreIo: Send + Sync + fmt::Debug {
    /// Reads up to `buf.len()` bytes at `offset`; returns the bytes read
    /// (0 means end-of-file).
    ///
    /// # Errors
    ///
    /// Any I/O failure; [`read_exact_at`] classifies it for retry.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize>;

    /// Total byte length of the underlying artifact.
    ///
    /// # Errors
    ///
    /// Propagates metadata failures.
    fn byte_len(&self) -> io::Result<u64>;
}

/// The production [`StoreIo`]: positioned reads against a real file
/// (`pread` on unix; a mutex-serialized seek+read elsewhere).
#[derive(Debug)]
pub struct FileIo {
    file: File,
    #[cfg(not(unix))]
    seek_lock: std::sync::Mutex<()>,
}

impl FileIo {
    /// Opens `path` read-only.
    ///
    /// # Errors
    ///
    /// Propagates the open failure.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileIo> {
        Ok(FileIo {
            file: File::open(path)?,
            #[cfg(not(unix))]
            seek_lock: std::sync::Mutex::new(()),
        })
    }
}

impl StoreIo for FileIo {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt as _;
            self.file.read_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read as _, Seek as _, SeekFrom};
            let _guard = self.seek_lock.lock().expect("seek lock");
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.read(buf)
        }
    }

    fn byte_len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

/// Bounded-retry policy for positioned reads.
///
/// Interrupts (EINTR) are part of the kernel contract and retried under a
/// separate, generous cap; transient errors are retried a small bounded
/// number of times (with the fault taxonomy's latency already paid by the
/// failing read, no extra sleep is inserted — the store layer is not the
/// place to queue). Permanent errors fail fast.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Transient failures tolerated per logical read before giving up.
    pub max_transient_retries: u32,
    /// EINTR deliveries tolerated per logical read before giving up.
    pub max_interrupt_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_transient_retries: 3,
            max_interrupt_retries: 64,
        }
    }
}

/// Whether an I/O error is worth a bounded retry (as opposed to EINTR,
/// retried under its own cap, and permanent errors, surfaced immediately).
fn is_transient(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reads exactly `buf.len()` bytes at `offset`, absorbing short reads,
/// EINTR and bounded transient failures per `policy`.
///
/// # Errors
///
/// [`ErrorKind::UnexpectedEof`] if the file ends early; the last transient
/// error once the retry budget is exhausted; permanent errors immediately.
pub fn read_exact_at(
    io: &dyn StoreIo,
    buf: &mut [u8],
    offset: u64,
    policy: &RetryPolicy,
) -> io::Result<()> {
    let mut done = 0usize;
    let mut transient = 0u32;
    let mut interrupts = 0u32;
    while done < buf.len() {
        match io.read_at(&mut buf[done..], offset + done as u64) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "unexpected end of file in positioned read",
                ));
            }
            // A short read is progress, not a fault: continue from where
            // the kernel stopped.
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {
                interrupts += 1;
                if interrupts > policy.max_interrupt_retries {
                    return Err(e);
                }
            }
            Err(e) if is_transient(&e) => {
                transient += 1;
                if transient > policy.max_transient_retries {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Replaces `path` with `bytes` atomically: the bytes go to a `<path>.tmp`
/// sibling, which is synced to disk, renamed over `path`, and the parent
/// directory synced. On any error the tmp file is removed and the previous
/// file at `path` is left as it was.
///
/// # Errors
///
/// Propagates the first I/O error from creating, writing, syncing or
/// renaming the tmp file, or from syncing the directory.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = AtomicFile::create(path)?;
    file.write_all(bytes)?;
    file.commit()
}

/// A file under construction at a `<path>.tmp` sibling.
/// [`commit`](Self::commit) makes it appear at `path` whole; dropping it
/// uncommitted removes the tmp file and leaves `path` untouched.
#[derive(Debug)]
pub(crate) struct AtomicFile {
    file: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    committed: bool,
}

impl AtomicFile {
    /// Creates (truncating) the tmp sibling of `path`.
    pub(crate) fn create(path: &Path) -> io::Result<AtomicFile> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = BufWriter::new(File::create(&tmp)?);
        Ok(AtomicFile {
            file,
            tmp,
            path: path.to_path_buf(),
            committed: false,
        })
    }

    /// Flushes and syncs the tmp file, renames it over the target and syncs
    /// the target's directory.
    pub(crate) fn commit(mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        std::fs::rename(&self.tmp, &self.path)?;
        self.committed = true;
        sync_parent_dir(&self.path)
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Seek for AtomicFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.file.seek(pos)
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Syncs the directory holding `path`, so a rename into it survives a
/// crash. A bare relative file name lives in `.`.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(parent)?.sync_all()
}

/// Directory handles cannot be synced portably off unix.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// SplitMix64: advances `state` and returns the next output. Tiny,
/// seedable and identical everywhere — the fault injector's per-read
/// decision stream and the serving trace synthesizer both draw from it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded fault schedule: per-mille rates for each fault class, rolled
/// deterministically per read index. Rates are applied in the order short
/// read → interrupt → transient; their sum must stay ≤ 1000.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed of the per-read decision stream.
    pub seed: u64,
    /// ‰ of reads returning roughly half the requested bytes.
    pub short_read_per_mille: u16,
    /// ‰ of reads failing with EINTR ([`ErrorKind::Interrupted`]).
    pub interrupt_per_mille: u16,
    /// ‰ of reads failing with a retryable transient error
    /// ([`ErrorKind::WouldBlock`]).
    pub transient_per_mille: u16,
    /// Latency added to every injected fault (and to outage reads), so
    /// failure paths are slow as well as wrong — like real disks.
    pub latency: Duration,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base to customize).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            short_read_per_mille: 0,
            interrupt_per_mille: 0,
            transient_per_mille: 0,
            latency: Duration::ZERO,
        }
    }
}

/// Shared control surface of a [`FaultyIo`]: tests and operators flip
/// injection on/off (or declare a total outage) and read the counters
/// while the store is live behind an `Arc` in the server.
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Whether probabilistic faults fire at all.
    active: AtomicBool,
    /// Whether every read fails permanently (a dead disk / lost mount).
    outage: AtomicBool,
    /// Total `read_at` calls observed (including retries).
    reads: AtomicU64,
    /// Faults injected so far.
    injected: AtomicU64,
}

impl FaultInjector {
    /// Enables or disables the probabilistic fault classes.
    pub fn set_active(&self, active: bool) {
        self.active.store(active, Ordering::SeqCst);
    }

    /// Starts or ends a total outage (every read fails permanently).
    pub fn set_outage(&self, outage: bool) {
        self.outage.store(outage, Ordering::SeqCst);
    }

    /// Total read attempts seen so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }

    /// Faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }
}

/// A [`StoreIo`] decorator injecting faults per its [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyIo {
    inner: Box<dyn StoreIo>,
    plan: FaultPlan,
    injector: Arc<FaultInjector>,
}

impl FaultyIo {
    /// Wraps `inner` with `plan`; injection starts active.
    pub fn new(inner: Box<dyn StoreIo>, plan: FaultPlan) -> FaultyIo {
        let injector = Arc::new(FaultInjector::default());
        injector.set_active(true);
        FaultyIo {
            inner,
            plan,
            injector,
        }
    }

    /// The shared control handle (keep a clone before boxing the io into a
    /// [`DigestStore`](crate::DigestStore)).
    pub fn injector(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.injector)
    }

    fn stall(&self) {
        if !self.plan.latency.is_zero() {
            std::thread::sleep(self.plan.latency);
        }
    }
}

impl StoreIo for FaultyIo {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let index = self.injector.reads.fetch_add(1, Ordering::SeqCst);
        if self.injector.outage.load(Ordering::SeqCst) {
            self.injector.injected.fetch_add(1, Ordering::SeqCst);
            self.stall();
            return Err(io::Error::other("injected permanent store outage"));
        }
        if !self.injector.active.load(Ordering::SeqCst) {
            return self.inner.read_at(buf, offset);
        }
        let roll = (splitmix64(&mut (self.plan.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            % 1000) as u16;
        let mut band = self.plan.short_read_per_mille;
        if roll < band && buf.len() >= 2 {
            self.injector.injected.fetch_add(1, Ordering::SeqCst);
            self.stall();
            let half = buf.len() / 2;
            return self.inner.read_at(&mut buf[..half], offset);
        }
        band = band.saturating_add(self.plan.interrupt_per_mille);
        if roll < band {
            self.injector.injected.fetch_add(1, Ordering::SeqCst);
            self.stall();
            return Err(io::Error::new(ErrorKind::Interrupted, "injected EINTR"));
        }
        band = band.saturating_add(self.plan.transient_per_mille);
        if roll < band {
            self.injector.injected.fetch_add(1, Ordering::SeqCst);
            self.stall();
            return Err(io::Error::new(
                ErrorKind::WouldBlock,
                "injected transient fault",
            ));
        }
        self.inner.read_at(buf, offset)
    }

    fn byte_len(&self) -> io::Result<u64> {
        // Length is header metadata read once at open; faulting it would
        // only test `open`'s error propagation, which the corruption tests
        // already cover.
        self.inner.byte_len()
    }
}

// ---------------------------------------------------------------------------
// Write-side fault injection and scratch-file lifetime guards
// ---------------------------------------------------------------------------

/// A [`Write`] decorator that fails deterministically once a byte budget is
/// exhausted — the write-side counterpart of [`FaultyIo`]. The chaos suite
/// wraps builder spill files in it to prove that a spill dying mid-write
/// leaves no scratch files behind.
#[derive(Debug)]
pub struct FaultyWrite<W: Write> {
    inner: W,
    remaining: u64,
}

impl<W: Write> FaultyWrite<W> {
    /// Wraps `inner`: the first `byte_budget` bytes are accepted, every
    /// write after that fails permanently.
    pub fn new(inner: W, byte_budget: u64) -> FaultyWrite<W> {
        FaultyWrite {
            inner,
            remaining: byte_budget,
        }
    }
}

impl<W: Write> Write for FaultyWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::other(
                "injected write fault: byte budget exhausted",
            ));
        }
        let allowed = buf
            .len()
            .min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        let written = self.inner.write(&buf[..allowed])?;
        self.remaining -= written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A scratch file that unlinks itself on drop. Builders create the guard
/// *before* the file, so a spill that errors mid-write — or a k-way merge
/// that fails after some runs were spilled — still removes every run when
/// the builder unwinds.
#[derive(Debug)]
pub(crate) struct ScratchFile {
    path: PathBuf,
}

impl ScratchFile {
    pub(crate) fn new(path: PathBuf) -> ScratchFile {
        ScratchFile { path }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted io: replays a fixed sequence of outcomes, then serves
    /// zeroes.
    #[derive(Debug)]
    struct Scripted {
        script: std::sync::Mutex<Vec<Outcome>>,
    }

    #[derive(Debug)]
    enum Outcome {
        Ok(usize),
        Err(ErrorKind),
    }

    impl Scripted {
        fn new(script: Vec<Outcome>) -> Scripted {
            Scripted {
                script: std::sync::Mutex::new(script),
            }
        }
    }

    impl StoreIo for Scripted {
        fn read_at(&self, buf: &mut [u8], _offset: u64) -> io::Result<usize> {
            let mut script = self.script.lock().unwrap();
            if script.is_empty() {
                buf.fill(0);
                return Ok(buf.len());
            }
            match script.remove(0) {
                Outcome::Ok(n) => {
                    let n = n.min(buf.len());
                    buf[..n].fill(0);
                    Ok(n)
                }
                Outcome::Err(kind) => Err(io::Error::new(kind, "scripted")),
            }
        }

        fn byte_len(&self) -> io::Result<u64> {
            Ok(u64::MAX)
        }
    }

    #[test]
    fn short_reads_and_eintr_are_absorbed() {
        let io = Scripted::new(vec![
            Outcome::Ok(3),
            Outcome::Err(ErrorKind::Interrupted),
            Outcome::Ok(2),
            Outcome::Err(ErrorKind::WouldBlock),
            Outcome::Ok(3),
        ]);
        let mut buf = [1u8; 8];
        read_exact_at(&io, &mut buf, 0, &RetryPolicy::default()).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn transient_budget_is_bounded_and_permanent_fails_fast() {
        let io = Scripted::new(vec![
            Outcome::Err(ErrorKind::WouldBlock),
            Outcome::Err(ErrorKind::WouldBlock),
            Outcome::Err(ErrorKind::WouldBlock),
            Outcome::Err(ErrorKind::WouldBlock),
        ]);
        let mut buf = [0u8; 4];
        let policy = RetryPolicy {
            max_transient_retries: 3,
            max_interrupt_retries: 64,
        };
        let err = read_exact_at(&io, &mut buf, 0, &policy).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock, "budget exhausted");

        let io = Scripted::new(vec![Outcome::Err(ErrorKind::PermissionDenied)]);
        let err = read_exact_at(&io, &mut buf, 0, &policy).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::PermissionDenied, "no retry");

        let io = Scripted::new(vec![Outcome::Ok(0)]);
        let err = read_exact_at(&io, &mut buf, 0, &policy).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn fault_plans_are_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 7,
            short_read_per_mille: 100,
            interrupt_per_mille: 100,
            transient_per_mille: 100,
            latency: Duration::ZERO,
        };
        let run = || {
            let io = FaultyIo::new(Box::new(Scripted::new(Vec::new())), plan);
            let injector = io.injector();
            let mut outcomes = Vec::new();
            for i in 0..200 {
                let mut buf = [0u8; 16];
                outcomes.push(match io.read_at(&mut buf, i) {
                    Ok(n) => format!("ok{n}"),
                    Err(e) => format!("{:?}", e.kind()),
                });
            }
            (outcomes, injector.injected_faults())
        };
        let (a, faults_a) = run();
        let (b, faults_b) = run();
        assert_eq!(a, b, "same seed, same fault stream");
        assert_eq!(faults_a, faults_b);
        assert!(faults_a > 0, "a 300‰ plan over 200 reads must inject");
        assert!(
            a.iter().any(|o| o == "ok8"),
            "short reads must halve 16-byte requests"
        );
    }

    #[test]
    fn outage_and_deactivation_toggle_at_runtime() {
        let plan = FaultPlan {
            seed: 1,
            short_read_per_mille: 1000,
            interrupt_per_mille: 0,
            transient_per_mille: 0,
            latency: Duration::ZERO,
        };
        let io = FaultyIo::new(Box::new(Scripted::new(Vec::new())), plan);
        let injector = io.injector();
        let mut buf = [0u8; 8];

        injector.set_outage(true);
        assert!(io.read_at(&mut buf, 0).is_err(), "outage fails every read");
        injector.set_outage(false);

        injector.set_active(false);
        assert_eq!(io.read_at(&mut buf, 0).unwrap(), 8, "quiet when inactive");
        injector.set_active(true);
        assert_eq!(io.read_at(&mut buf, 0).unwrap(), 4, "short when active");
        assert!(injector.reads() >= 3);
    }

    #[test]
    fn faulty_write_honors_its_byte_budget_exactly() {
        let mut sink = FaultyWrite::new(Vec::new(), 10);
        assert_eq!(sink.write(b"0123456").unwrap(), 7);
        assert_eq!(sink.write(b"89abcdef").unwrap(), 3, "clipped to budget");
        let err = sink.write(b"x").unwrap_err();
        assert!(err.to_string().contains("injected write fault"));
    }

    #[test]
    fn write_atomic_accepts_a_bare_relative_file_name() {
        let name = format!("pf-write-atomic-{}.bin", std::process::id());
        let path = Path::new(&name);
        assert_eq!(path.parent(), Some(Path::new("")), "no directory part");
        write_atomic(path, b"first").unwrap();
        write_atomic(path, b"second").unwrap();
        let written = std::fs::read(path);
        std::fs::remove_file(path).unwrap();
        assert_eq!(written.unwrap(), b"second");
        assert!(!Path::new(&format!("{name}.tmp")).exists(), "tmp removed");
    }

    #[test]
    fn scratch_files_unlink_themselves_on_drop() {
        let path =
            std::env::temp_dir().join(format!("pf-scratch-guard-{}.tmp", std::process::id()));
        let guard = ScratchFile::new(path.clone());
        std::fs::write(guard.path(), b"run data").unwrap();
        assert!(path.exists());
        drop(guard);
        assert!(!path.exists(), "guard must unlink the file");
    }
}
