//! The one worker runtime: a persistent worker pool, plus the repo-wide
//! thread-count discipline.
//!
//! Every piece of short-lived parallel work in the repo runs on a
//! [`ThreadPool`]: GEMM row blocks, static attack chunks and the attack
//! engine's pipelined inverse, gradient micro-batches, strength-table
//! chunks and trace replay clients. Each owner (an attack, a trainer, a
//! table build, a replay, a serve batcher) builds its pool once from the
//! thread count it already resolves.
//!
//! The pool has one primitive, [`ThreadPool::run_beside`]: the calling
//! thread runs its own closure while the parked workers claim `blocks`
//! independent pieces of work from an atomic counter (dynamic load
//! balancing); the calling thread then runs any block still unclaimed, waits
//! for the rest, and re-raises the first panic with its original payload.
//! Two job shapes are built on it:
//!
//! * [`ThreadPool::run`] — no closure of the caller's own: `blocks`
//!   disjoint pieces of work, such as the threaded GEMM's output row blocks.
//!   Any assignment of blocks to threads produces bit-identical results.
//! * [`ThreadPool::fan_out`] — ordered claiming over per-worker contexts:
//!   one block per context beyond the first, each block pulling item
//!   indices from a shared counter, outputs returned in index order.
//!
//! Workers are **persistent**: spawning a thread costs tens of microseconds,
//! which would dwarf a mid-sized GEMM or an attack chunk's inverse, so a
//! [`ThreadPool`] spawns its workers once and parks them on a channel
//! between jobs. `ThreadPool::new(1)` spawns no workers at all, and every
//! job runs inline on the calling thread.
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
//! The pool constructor never clamps. Benchmarks that sweep thread counts
//! construct [`ThreadPool`]s directly so the scaling curve can be recorded
//! even where it degenerates to a tie, and I/O-bound callers (one replay
//! client per connection) size their pool by the connection count.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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
// The pool
// ---------------------------------------------------------------------------

/// One broadcast job: a type-erased `Fn(block_index)` plus the bookkeeping
/// that lets any number of threads drain the block counter and lets the
/// submitting thread block until the last block completes.
struct Job {
    /// The work closure. The `'static` here is a lie told to the type
    /// system: the pointer borrows from [`ThreadPool::run_beside`]'s caller,
    /// and soundness rests on `run_beside` not returning (or unwinding)
    /// until [`Job::is_done`] — after which no worker can observe a block
    /// index below `blocks` and therefore never dereferences `task` again.
    task: *const (dyn Fn(usize) + Sync + 'static),
    /// Next block index to claim (dynamic load balancing).
    next: AtomicUsize,
    /// Total number of blocks in this job.
    blocks: usize,
    /// Completed blocks; the job is done when this reaches `blocks`.
    done: AtomicUsize,
    /// The first panic payload of the job (a block's, or the submitting
    /// thread's own closure's), re-raised on the submitting thread.
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
    /// Latch for the submitting thread to sleep on.
    latch: Mutex<()>,
    complete: Condvar,
}

// SAFETY: `task` points at a `Sync` closure, so sharing the pointer across
// threads is sound for the duration of the job; lifetime soundness is argued
// at the field and in `ThreadPool::run_beside`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.blocks
    }

    /// Keeps `payload` unless an earlier panic was recorded.
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.panicked
            .lock()
            .expect("no payload write panics")
            .get_or_insert(payload);
    }

    /// Drains the block counter, running claimed blocks until none remain.
    fn work(&self) {
        loop {
            let block = self.next.fetch_add(1, Ordering::Relaxed);
            if block >= self.blocks {
                return;
            }
            // SAFETY: `block < blocks`, so the job is not yet done and the
            // submitting thread is still inside `run_beside`, keeping the
            // borrow behind `task` alive.
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(block))) {
                self.record_panic(payload);
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
                    .name(format!("passflow-worker-{worker}"))
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

    /// Runs `own` on the calling thread while the pool's workers claim
    /// `blocks` work items, calling `task(block_index)` exactly once for
    /// each `block_index in 0..blocks`. Once `own` returns, the calling
    /// thread runs every block no worker has claimed yet, waits for the
    /// claimed ones, and returns `own`'s result.
    ///
    /// Blocks are claimed dynamically, so the assignment of blocks to
    /// threads is nondeterministic, and a block the workers leave unclaimed
    /// runs only after `own`. Callers must ensure the result does not
    /// depend on either. A one-thread pool runs `own` and then every block
    /// inline.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of `own` or of any block with its original
    /// payload, never before every block that started has finished.
    pub fn run_beside<R>(
        &self,
        blocks: usize,
        task: &(dyn Fn(usize) + Sync),
        own: impl FnOnce() -> R,
    ) -> R {
        if blocks == 0 || self.senders.is_empty() {
            let result = own();
            (0..blocks).for_each(task);
            return result;
        }
        // SAFETY: erase the caller's lifetime; `run_beside` neither returns
        // nor unwinds until `job.wait()` observes all blocks complete, after
        // which no thread dereferences the pointer again (see `Job::work`).
        let task: &(dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(task) };
        let job = Arc::new(Job {
            task: task as *const _,
            next: AtomicUsize::new(0),
            blocks,
            done: AtomicUsize::new(0),
            panicked: Mutex::new(None),
            latch: Mutex::new(()),
            complete: Condvar::new(),
        });
        for sender in &self.senders {
            // A worker that died (its receiver dropped) just means fewer
            // participants; the job still completes via the other threads.
            let _ = sender.send(Arc::clone(&job));
        }
        let result =
            catch_unwind(AssertUnwindSafe(own)).map_err(|payload| job.record_panic(payload));
        job.work();
        job.wait();
        if let Some(payload) = job.panicked.lock().expect("no payload write panics").take() {
            resume_unwind(payload);
        }
        result.expect("a panic of `own` was re-raised above")
    }

    /// Runs `blocks` independent work items, calling `task(block_index)`
    /// exactly once for each `block_index in 0..blocks`, and returns only
    /// after every item has completed: [`run_beside`](Self::run_beside)
    /// with nothing of the caller's own, so the calling thread claims
    /// blocks alongside the workers.
    ///
    /// In this crate each GEMM block writes a disjoint output row range, so
    /// any assignment of blocks to threads computes identical bytes.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any work item with its original payload.
    pub fn run(&self, blocks: usize, task: &(dyn Fn(usize) + Sync)) {
        self.run_beside(blocks, task, || ());
    }

    /// Runs `produce(i, ctx)` for every `i in 0..n` and returns the outputs
    /// in index order.
    ///
    /// Each context in `ctxs` backs one worker (at most `n` of them). The
    /// calling thread works the first context itself, and each other one
    /// is a block of [`run_beside`](Self::run_beside), so one context runs
    /// the whole loop inline. Workers claim the next unclaimed index from a
    /// shared counter, so a slow item never stalls the others, and a
    /// context keeps its state across every index its worker claims.
    /// Outputs are re-assembled by index, so as long as each output depends
    /// only on its index, the result is identical for any number of
    /// contexts and any pool size. A context that no pool thread took up
    /// while indices remained finds none left when the calling thread runs
    /// its block.
    ///
    /// The worker count is `ctxs.len()` as given: callers whose count is a
    /// CPU-bound throughput knob clamp it through [`clamp_threads`] first;
    /// I/O-bound callers (one context per client connection) do not, and
    /// size the pool to match.
    ///
    /// # Panics
    ///
    /// Panics if `n > 0` and `ctxs` is empty. A panic inside `produce` is
    /// re-raised on the calling thread with its original payload.
    pub fn fan_out<C, T, F>(&self, n: usize, ctxs: &mut [C], produce: F) -> Vec<T>
    where
        C: Send,
        T: Send,
        F: Fn(usize, &mut C) -> T + Sync,
    {
        let workers = ctxs.len().min(n);
        let Some((own, others)) = ctxs[..workers].split_first_mut() else {
            assert_eq!(n, 0, "fan_out needs at least one context for {n} items");
            return Vec::new();
        };
        // Relaxed suffices: the counter only hands out indices; the outputs
        // reach this thread through the slot mutex and the job's latch.
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
        let others = Mutex::new(others.iter_mut());
        let other = |_: usize| {
            let ctx = others.lock().expect("no context claim panics").next();
            work(ctx.expect("one context per block"));
        };
        self.run_beside(workers - 1, &other, || work(own));
        slots
            .into_inner()
            .expect("no slot write panics")
            .into_iter()
            .map(|slot| slot.expect("every index produced"))
            .collect()
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
        let payload = result.expect_err("the panic must propagate to the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(message.contains("induced failure"), "{message:?}");
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
                let out = ThreadPool::new(workers).fan_out(n, &mut waited, |i, waited| {
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
            ThreadPool::new(workers).fan_out(50, &mut ctxs, |i, claimed| claimed.push(i));
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
                ThreadPool::new(workers).fan_out(20, &mut vec![(); workers], |i, _| {
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
    fn fan_out_runs_on_the_pools_persistent_threads() {
        let pool = ThreadPool::new(2);
        let seen = Mutex::new(std::collections::HashSet::new());
        for _ in 0..200 {
            // Both contexts hold their first item until each has claimed
            // one, so every call runs on two threads.
            let barrier = std::sync::Barrier::new(2);
            pool.fan_out(4, &mut [false, false], |_, waited| {
                if !std::mem::replace(waited, true) {
                    barrier.wait();
                }
                seen.lock().unwrap().insert(std::thread::current().id());
            });
        }
        let seen = seen.into_inner().unwrap().len();
        assert!(
            seen <= 2,
            "200 fan-outs on a 2-thread pool ran on {seen} threads"
        );
    }

    #[test]
    fn run_beside_runs_own_and_every_block_and_reraises_owns_panic() {
        for threads in 1..=3 {
            let pool = ThreadPool::new(threads);
            let hits = AtomicUsize::new(0);
            let own = pool.run_beside(
                5,
                &|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                },
                || 7,
            );
            assert_eq!(
                (own, hits.load(Ordering::Relaxed)),
                (7, 5),
                "threads={threads}"
            );
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.run_beside(
                    3,
                    &|_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    },
                    || panic!("own failure"),
                )
            }));
            let payload = result.expect_err("own's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"own failure"));
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
