//! A small persistent worker pool for data-parallel kernels, plus the
//! repo-wide thread-count discipline.
//!
//! The pool exists for exactly one job shape: "run `blocks` independent
//! pieces of work, each writing a disjoint output region, and do not return
//! until every piece is done". That is what the threaded GEMM needs — output
//! row blocks are fully independent, so any assignment of blocks to threads
//! produces bit-identical results — and it keeps the pool std-only: a bounded
//! channel per worker for job hand-off, an atomic block counter for dynamic
//! load balancing, and a mutex/condvar latch for completion.
//!
//! Workers are **persistent**: spawning a thread costs tens of microseconds,
//! which would dwarf a mid-sized GEMM, so a [`ThreadPool`] spawns its workers
//! once and parks them on a channel between jobs. `ThreadPool::new(1)` spawns
//! no workers at all and [`ThreadPool::run`] degenerates to an inline loop —
//! the single-threaded code path is exactly the code that ran before the pool
//! existed.
//!
//! ## Thread-count discipline
//!
//! Every binary and subsystem that takes a thread-count knob resolves it
//! through the same two helpers so behaviour is uniform across the repo:
//!
//! * [`resolve_threads`] — precedence: explicit value (a `--threads` flag) >
//!   the `PASSFLOW_THREADS` environment variable > 1; the result is clamped
//!   by [`clamp_threads`].
//! * [`clamp_threads`] — clamps a requested count to
//!   `[1, available_parallelism]`: thread counts are pure throughput knobs
//!   everywhere in this repo (results are invariant), so oversubscribing the
//!   host is pure scheduling overhead.
//!
//! Benchmarks that sweep thread counts construct [`ThreadPool`]s directly
//! (the constructor never clamps) so the scaling curve can be recorded even
//! where it degenerates to a tie.
//!
//! ## Ordered fan-out
//!
//! [`fan_out`] is the coarse-grained sibling of the pool: one worker per
//! caller-supplied context (the calling thread, then scoped threads),
//! pulling item indices from a shared counter and returning outputs in
//! index order. Static attack chunks, gradient micro-batches,
//! strength-table chunks and trace replay clients all run through it.
//! [`with_scoped_workers`] is the worker set-up it shares with the attack
//! engine's block-pipelined inverse: one scoped thread per extra worker,
//! with a worker's panic re-raised on the caller with its payload.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------------
// Thread-count helpers
// ---------------------------------------------------------------------------

/// The host's available parallelism (at least 1).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Clamps a requested thread count to `[1, available_parallelism]`.
///
/// Thread counts in this repo are throughput knobs with result invariance,
/// so running more threads than the host has cores is never useful.
pub fn clamp_threads(requested: usize) -> usize {
    requested.clamp(1, host_threads())
}

/// Per-lane GEMM thread count under the `lanes × threads ≤ host` clamp.
///
/// A sharded consumer (the serve batcher's `--lanes`) has up to `lanes`
/// threads submitting GEMMs concurrently. Each submission burns the
/// submitting lane thread *plus* the shared pool's workers, so letting every
/// lane ask for a full [`resolve_threads`] count would oversubscribe the
/// host by a factor of `lanes`. This helper clamps the requested per-lane
/// count so that `lanes × threads` never exceeds [`host_threads`] (and never
/// drops below 1): `lanes` sharded submitters over a pool sized this way is
/// at worst a full host, not `lanes` full hosts. Lane counts and thread
/// counts stay pure throughput knobs — results are bit-identical regardless.
pub fn clamp_lane_threads(lanes: usize, requested: usize) -> usize {
    let lanes = lanes.max(1);
    let per_lane_cap = (host_threads() / lanes).max(1);
    clamp_threads(requested).min(per_lane_cap)
}

/// Resolves a thread-count knob the way every passflow binary does:
/// an explicit value (e.g. a `--threads` flag) wins, otherwise the
/// `PASSFLOW_THREADS` environment variable, otherwise 1; the result is
/// clamped by [`clamp_threads`]. Unparsable environment values are ignored.
/// Sharded callers that multiply the knob across lanes (the serve batcher)
/// compose this with [`clamp_lane_threads`] so `lanes × threads ≤ host`.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    let requested = explicit
        .or_else(|| {
            std::env::var("PASSFLOW_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
        })
        .unwrap_or(1);
    clamp_threads(requested)
}

// ---------------------------------------------------------------------------
// Ordered fan-out
// ---------------------------------------------------------------------------

/// Runs `produce(i, ctx)` for every `i in 0..n` and returns the outputs in
/// index order.
///
/// Each context in `ctxs` backs one worker (at most `n` of them). The
/// calling thread works the first context itself and each other one gets
/// a scoped thread, so one context runs the whole loop inline. Workers
/// claim the next unclaimed index from a shared counter, so a slow item
/// never stalls the others, and a context keeps its state across every
/// index its worker claims. Outputs are re-assembled by index, so as long
/// as each output depends only on its index, the result is identical for
/// any number of contexts.
///
/// The worker count is `ctxs.len()` as given: callers whose count is a
/// CPU-bound throughput knob clamp it through [`clamp_threads`] first;
/// I/O-bound callers (one context per client connection) do not.
///
/// # Panics
///
/// Panics if `n > 0` and `ctxs` is empty. A panic inside `produce` is
/// re-raised on the calling thread with its original payload.
pub fn fan_out<C, T, F>(n: usize, ctxs: &mut [C], produce: F) -> Vec<T>
where
    C: Send,
    T: Send,
    F: Fn(usize, &mut C) -> T + Sync,
{
    let workers = ctxs.len().min(n);
    if workers <= 1 {
        return match ctxs.first_mut() {
            Some(ctx) => (0..n).map(|i| produce(i, ctx)).collect(),
            None if n == 0 => Vec::new(),
            None => panic!("fan_out needs at least one context for {n} items"),
        };
    }
    // Relaxed suffices: the counter only hands out indices; the outputs
    // reach this thread through the slot mutex and the scope's join.
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let work = |ctx: &mut C| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let output = produce(i, ctx);
        slots.lock().expect("no slot write panics")[i] = Some(output);
    };
    let (own, others) = ctxs[..workers]
        .split_first_mut()
        .expect("at least two workers");
    let work = &work;
    with_scoped_workers(others.iter_mut().map(|ctx| move || work(ctx)), || work(own));
    slots
        .into_inner()
        .expect("no slot write panics")
        .into_iter()
        .map(|slot| slot.expect("every index produced"))
        .collect()
}

/// Runs every closure of `workers` on its own scoped thread while the
/// calling thread runs `own`, and returns `own`'s result once every worker
/// has finished.
///
/// A worker's panic is caught, and the first payload is re-raised here
/// after the scope: a scoped thread's own panic would surface only as "a
/// scoped thread panicked". A panicking worker's closure is dropped as it
/// unwinds, so anything it owns (a channel sender, say) is released before
/// `own` could wait on it.
///
/// # Panics
///
/// Re-raises the first worker panic with its original payload, or `own`'s.
pub fn with_scoped_workers<W, R>(workers: impl IntoIterator<Item = W>, own: impl FnOnce() -> R) -> R
where
    W: FnOnce() + Send,
{
    let panicked = Mutex::new(None);
    let result = std::thread::scope(|scope| {
        for worker in workers {
            let panicked = &panicked;
            scope.spawn(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(worker)) {
                    panicked
                        .lock()
                        .expect("no payload write panics")
                        .get_or_insert(payload);
                }
            });
        }
        own()
    });
    if let Some(payload) = panicked.into_inner().expect("no payload write panics") {
        resume_unwind(payload);
    }
    result
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// One broadcast job: a type-erased `Fn(block_index)` plus the bookkeeping
/// that lets any number of threads drain the block counter and lets the
/// submitting thread block until the last block completes.
struct Job {
    /// The work closure. The `'static` here is a lie told to the type
    /// system: the pointer borrows from [`ThreadPool::run`]'s caller, and
    /// soundness rests on `run` not returning until [`Job::is_done`] — after
    /// which no worker can observe a block index below `blocks` and
    /// therefore never dereferences `task` again.
    task: *const (dyn Fn(usize) + Sync + 'static),
    /// Next block index to claim (dynamic load balancing).
    next: AtomicUsize,
    /// Total number of blocks in this job.
    blocks: usize,
    /// Completed blocks; the job is done when this reaches `blocks`.
    done: AtomicUsize,
    /// Set when any block panicked (the panic itself is swallowed in the
    /// worker and re-raised on the submitting thread).
    panicked: AtomicBool,
    /// Latch for the submitting thread to sleep on.
    latch: Mutex<()>,
    complete: Condvar,
}

// SAFETY: `task` points at a `Sync` closure, so sharing the pointer across
// threads is sound for the duration of the job; lifetime soundness is argued
// at the field and in `ThreadPool::run`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.blocks
    }

    /// Drains the block counter, running claimed blocks until none remain.
    fn work(&self) {
        loop {
            let block = self.next.fetch_add(1, Ordering::Relaxed);
            if block >= self.blocks {
                return;
            }
            // SAFETY: `block < blocks`, so the job is not yet done and the
            // submitting thread is still inside `run`, keeping the borrow
            // behind `task` alive.
            let task = unsafe { &*self.task };
            if catch_unwind(AssertUnwindSafe(|| task(block))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 >= self.blocks {
                // Last block: wake the submitting thread. Taking the lock
                // before notifying orders the wake after the waiter's
                // condition check.
                let _guard = self.latch.lock().expect("pool latch poisoned");
                self.complete.notify_all();
            }
        }
    }

    /// Blocks until every block of the job has completed.
    fn wait(&self) {
        let mut guard = self.latch.lock().expect("pool latch poisoned");
        while !self.is_done() {
            guard = self
                .complete
                .wait(guard)
                .expect("pool latch poisoned while waiting");
        }
    }
}

/// A persistent pool of `threads - 1` parked workers (the submitting thread
/// is the remaining participant).
///
/// Dropping the pool shuts the workers down and joins them. The constructor
/// never clamps: benchmarks deliberately oversubscribe to record scaling
/// curves, and callers with a host-derived knob go through
/// [`resolve_threads`] / [`clamp_threads`] first.
pub struct ThreadPool {
    threads: usize,
    senders: Vec<mpsc::Sender<Arc<Job>>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool that runs jobs on `threads` threads total (the
    /// submitting thread plus `threads - 1` spawned workers; `threads` is
    /// raised to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads - 1);
        let mut workers = Vec::with_capacity(threads - 1);
        for worker in 1..threads {
            let (sender, receiver) = mpsc::channel::<Arc<Job>>();
            senders.push(sender);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("passflow-gemm-{worker}"))
                    .spawn(move || {
                        while let Ok(job) = receiver.recv() {
                            job.work();
                        }
                    })
                    .expect("spawning a pool worker"),
            );
        }
        ThreadPool {
            threads,
            senders,
            workers,
        }
    }

    /// Total number of threads that participate in a job (including the
    /// submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `blocks` independent work items, calling `task(block_index)`
    /// exactly once for each `block_index in 0..blocks`, and returns only
    /// after every item has completed.
    ///
    /// Blocks are claimed dynamically, so the assignment of blocks to
    /// threads is nondeterministic — callers must ensure items are
    /// independent (in this crate: each GEMM block writes a disjoint output
    /// row range, so any assignment computes identical bytes).
    ///
    /// # Panics
    ///
    /// Re-raises (as a new panic) if any work item panicked.
    pub fn run(&self, blocks: usize, task: &(dyn Fn(usize) + Sync)) {
        if blocks == 0 {
            return;
        }
        if self.senders.is_empty() || blocks == 1 {
            for block in 0..blocks {
                task(block);
            }
            return;
        }
        // SAFETY: erase the caller's lifetime; `run` does not return until
        // `job.wait()` observes all blocks complete, after which no thread
        // dereferences the pointer again (see `Job::work`).
        let task: &(dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(task) };
        let job = Arc::new(Job {
            task: task as *const _,
            next: AtomicUsize::new(0),
            blocks,
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            latch: Mutex::new(()),
            complete: Condvar::new(),
        });
        for sender in &self.senders {
            // A worker that died (its receiver dropped) just means fewer
            // participants; the job still completes via the other threads.
            let _ = sender.send(Arc::clone(&job));
        }
        job.work();
        job.wait();
        if job.panicked.load(Ordering::Acquire) {
            panic!("a pool worker panicked while running a parallel job");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channels wakes the workers out of `recv`.
        self.senders.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(5, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn every_block_runs_exactly_once() {
        let pool = ThreadPool::new(4);
        for blocks in [1usize, 2, 3, 7, 64, 257] {
            let counts: Vec<AtomicUsize> = (0..blocks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(blocks, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{blocks} blocks"
            );
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(16, &|i| {
                total.fetch_add(i, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * (0..16).sum::<usize>());
    }

    #[test]
    fn disjoint_writes_land_in_the_right_slots() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0usize; 1024];
        {
            let chunks = 32;
            let chunk_len = out.len() / chunks;
            let base = out.as_mut_ptr() as usize;
            pool.run(chunks, &|b| {
                // Reconstruct a disjoint &mut chunk — the GEMM's idiom.
                let ptr = (base + b * chunk_len * std::mem::size_of::<usize>()) as *mut usize;
                let chunk = unsafe { std::slice::from_raw_parts_mut(ptr, chunk_len) };
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = b * chunk_len + i;
                }
            });
        }
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn worker_panic_is_reraised_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                assert_ne!(i, 3, "induced failure");
            });
        }));
        assert!(result.is_err(), "the panic must propagate to the caller");
        // The pool is still usable after a panicked job.
        let hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn fan_out_returns_every_output_once_in_index_order() {
        for n in [0usize, 1, 7, 100] {
            for workers in 1..=4 {
                let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                // Every worker holds its first item until each has claimed
                // one, so the claims interleave across workers.
                let barrier = std::sync::Barrier::new(workers.min(n));
                let mut waited = vec![false; workers];
                let out = fan_out(n, &mut waited, |i, waited| {
                    if !std::mem::replace(waited, true) {
                        barrier.wait();
                    }
                    counts[i].fetch_add(1, Ordering::Relaxed);
                    i * 3
                });
                assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
                assert!(
                    counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "n={n} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn fan_out_contexts_keep_state_across_their_claims() {
        for workers in 1..=4 {
            let mut ctxs: Vec<Vec<usize>> = vec![Vec::new(); workers];
            fan_out(50, &mut ctxs, |i, claimed| claimed.push(i));
            // Claims come from one monotone counter, so each context saw
            // its indices in ascending order, and together they saw each
            // index once.
            assert!(ctxs.iter().all(|c| c.windows(2).all(|w| w[0] < w[1])));
            let mut all: Vec<usize> = ctxs.concat();
            all.sort_unstable();
            assert_eq!(all, (0..50).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn fan_out_reraises_a_worker_panic() {
        for workers in 1..=3 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                fan_out(20, &mut vec![(); workers], |i, _| {
                    assert_ne!(i, 13, "induced failure");
                })
            }));
            let payload = result.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(message.contains("induced failure"), "{message:?}");
        }
    }

    #[test]
    fn clamp_is_bounded_by_the_host() {
        assert_eq!(clamp_threads(0), 1);
        assert!(clamp_threads(1_000_000) <= host_threads());
        assert_eq!(clamp_threads(1), 1);
    }

    #[test]
    fn resolve_prefers_explicit_and_stays_clamped() {
        assert_eq!(resolve_threads(Some(1)), 1);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(usize::MAX)) <= host_threads());
    }

    #[test]
    fn lane_clamp_keeps_lanes_times_threads_within_the_host() {
        // One lane degenerates to the plain clamp.
        assert_eq!(clamp_lane_threads(1, 3), clamp_threads(3));
        assert_eq!(clamp_lane_threads(0, 3), clamp_threads(3), "0 lanes ≡ 1");
        // The product never exceeds the host, and never hits zero.
        for lanes in [1usize, 2, 3, 4, 7, 64, 1_000] {
            for requested in [0usize, 1, 2, 8, usize::MAX] {
                let per_lane = clamp_lane_threads(lanes, requested);
                assert!(per_lane >= 1, "lanes={lanes} requested={requested}");
                assert!(
                    per_lane == 1 || lanes * per_lane <= host_threads(),
                    "lanes={lanes} requested={requested} per_lane={per_lane}"
                );
                assert!(per_lane <= clamp_threads(requested));
            }
        }
        // More lanes than cores: each lane falls back to serial kernels.
        assert_eq!(clamp_lane_threads(host_threads() + 1, usize::MAX), 1);
    }
}
