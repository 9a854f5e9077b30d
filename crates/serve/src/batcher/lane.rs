//! Lane machinery for the sharded batcher: per-lane bounded queues,
//! round-robin dispatch with submit-side failover, and consumer-side work
//! stealing.
//!
//! Each lane owns a bounded `VecDeque` guarded by a mutex + condvar pair
//! (std `mpsc` receivers are single-consumer, so a channel cannot be stolen
//! from). The locking discipline is simple and deadlock-free by
//! construction: **no thread ever holds one lane's queue lock while
//! acquiring another's** — submit, steal and rescue all lock exactly one
//! queue at a time.
//!
//! Invariants the suite in `tests/lanes.rs` leans on:
//!
//! * **Dispatch**: `submit` round-robins over lanes and fails over to any
//!   other *alive* lane with room before reporting `Overloaded` — a full
//!   lane sheds only when every lane is full.
//! * **Stealing**: a lane that has drained its own queue mid-tick pops from
//!   the *front* of its neighbors' queues (FIFO fairness) while its tick has
//!   row budget left, so one hot lane's overflow is absorbed before any 503.
//! * **Bit-exactness**: stealing only changes *which* lane scores a job,
//!   never how. Fused kernels are row-independent, so every score is
//!   bit-identical at any lane count.
//! * **Liveness**: a lane that dies (panic, or the chaos kill hook) flips
//!   `alive` false via its guard and re-dispatches its queued jobs to
//!   surviving lanes — no client hangs on a dead lane's reply channel.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use passflow_core::FlowWorkspace;
use passflow_nn::ThreadPool;

use super::{expire_jobs, score_tick, BatcherConfig, EnqueueError, ScoreJob};
use crate::metrics::Metrics;

/// How long an idle lane sleeps between steal scans. Submits to this lane
/// wake it immediately; the timeout only bounds how long overflow can sit
/// in a *sibling's* queue while this lane is idle.
const IDLE_SLICE: Duration = Duration::from_millis(25);

/// Condvar slice while a tick waits for stragglers: short, so a waiting
/// tick re-scans its siblings (the steal path) many times per `max_wait`.
const STRAGGLER_SLICE: Duration = Duration::from_micros(500);

/// One batcher lane: a bounded job queue plus its wake/liveness state.
struct Lane {
    queue: Mutex<VecDeque<ScoreJob>>,
    ready: Condvar,
    alive: AtomicBool,
    /// Chaos hook: when set, the lane panics at its next wakeup.
    kill: AtomicBool,
    /// Jobs this lane stole from siblings (mirrors the metrics counter).
    steals: AtomicU64,
}

/// The shared lane array: dispatch state plus the stop flag.
pub(crate) struct LaneSet {
    lanes: Vec<Lane>,
    /// Per-lane queue bound; enqueueing beyond it fails over, then sheds.
    capacity: usize,
    /// Round-robin dispatch cursor.
    next: AtomicUsize,
    stop: AtomicBool,
    metrics: Arc<Metrics>,
}

impl LaneSet {
    pub(crate) fn new(lanes: usize, capacity: usize, metrics: Arc<Metrics>) -> LaneSet {
        LaneSet {
            lanes: (0..lanes.max(1))
                .map(|_| Lane {
                    queue: Mutex::new(VecDeque::new()),
                    ready: Condvar::new(),
                    alive: AtomicBool::new(true),
                    kill: AtomicBool::new(false),
                    steals: AtomicU64::new(0),
                })
                .collect(),
            capacity: capacity.max(1),
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            metrics,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lanes.len()
    }

    pub(crate) fn lane_alive(&self, idx: usize) -> bool {
        self.lanes
            .get(idx)
            .is_some_and(|l| l.alive.load(Ordering::SeqCst))
    }

    pub(crate) fn alive_lanes(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.alive.load(Ordering::SeqCst))
            .count()
    }

    pub(crate) fn lane_steals(&self, idx: usize) -> u64 {
        self.lanes
            .get(idx)
            .map_or(0, |l| l.steals.load(Ordering::Relaxed))
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Sets the stop flag and wakes every lane (graceful shutdown).
    pub(crate) fn begin_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for lane in &self.lanes {
            lane.ready.notify_all();
        }
    }

    /// Chaos hook: arms the kill flag so `idx` panics at its next wakeup.
    pub(crate) fn request_kill(&self, idx: usize) {
        if let Some(lane) = self.lanes.get(idx) {
            lane.kill.store(true, Ordering::SeqCst);
            lane.ready.notify_all();
        }
    }

    /// Round-robin dispatch with failover: the cursor picks a home lane,
    /// and a full (or dead) home fails over to the next alive lane with
    /// room. `Overloaded` means *every* alive lane is full.
    pub(crate) fn submit(&self, job: ScoreJob) -> Result<(), EnqueueError> {
        if self.stopped() {
            return Err(EnqueueError::ShuttingDown);
        }
        let n = self.lanes.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed) % n;
        let mut any_alive = false;
        for offset in 0..n {
            let idx = (start + offset) % n;
            let lane = &self.lanes[idx];
            if !lane.alive.load(Ordering::SeqCst) {
                continue;
            }
            any_alive = true;
            let mut queue = lane.queue.lock();
            if queue.len() < self.capacity {
                queue.push_back(job);
                self.metrics.set_lane_depth(idx, queue.len() as u64);
                drop(queue);
                lane.ready.notify_one();
                return Ok(());
            }
        }
        if any_alive {
            Err(EnqueueError::Overloaded)
        } else {
            Err(EnqueueError::ShuttingDown)
        }
    }

    /// Pops this lane's own queue.
    fn pop_own(&self, idx: usize) -> Option<ScoreJob> {
        let mut queue = self.lanes[idx].queue.lock();
        let job = queue.pop_front();
        if job.is_some() {
            self.metrics.set_lane_depth(idx, queue.len() as u64);
        }
        job
    }

    /// Steals the oldest queued job from the first non-empty sibling.
    /// Dead siblings are fair game too — stealing is also how stranded
    /// work gets rescued between a lane's death and its guard running.
    fn steal(&self, idx: usize) -> Option<ScoreJob> {
        let n = self.lanes.len();
        for offset in 1..n {
            let victim_idx = (idx + offset) % n;
            let mut queue = self.lanes[victim_idx].queue.lock();
            if let Some(job) = queue.pop_front() {
                self.metrics.set_lane_depth(victim_idx, queue.len() as u64);
                drop(queue);
                self.lanes[idx].steals.fetch_add(1, Ordering::Relaxed);
                self.metrics.record_lane_steal(idx);
                return Some(job);
            }
        }
        None
    }

    /// Parks `idx` on its condvar for at most `timeout`, re-checking the
    /// queue under the lock first so a submit between "pop returned None"
    /// and this wait can never be missed.
    fn wait_ready(&self, idx: usize, timeout: Duration) {
        let lane = &self.lanes[idx];
        let queue = lane.queue.lock();
        if queue.is_empty() && !self.stopped() && !lane.kill.load(Ordering::SeqCst) {
            let _ = lane.ready.wait_timeout(queue, timeout);
        }
    }

    /// Fires the chaos kill if armed (called with no locks held, so the
    /// unwind can never poison a queue mid-update).
    fn check_kill(&self, idx: usize) {
        if self.lanes[idx].kill.load(Ordering::SeqCst) {
            panic!("chaos hook: lane {idx} killed");
        }
    }

    /// Marks `idx` dead and, if it died abnormally, re-dispatches its
    /// queued jobs to surviving lanes so no client hangs on a reply that
    /// will never come. Called from the lane guard however the thread
    /// exits; on graceful shutdown the lane drained its own queue already.
    pub(crate) fn retire(&self, idx: usize, panicked: bool) {
        self.lanes[idx].alive.store(false, Ordering::SeqCst);
        if panicked {
            let orphans: Vec<ScoreJob> = {
                let mut queue = self.lanes[idx].queue.lock();
                queue.drain(..).collect()
            };
            self.metrics.set_lane_depth(idx, 0);
            for job in orphans {
                self.adopt(job);
            }
        }
        // Wake everyone so dispatch and healthz observe the death promptly.
        for lane in &self.lanes {
            lane.ready.notify_all();
        }
    }

    /// Hands a rescued job to any surviving lane, *ignoring* the queue
    /// bound — a survivor absorbing a dead sibling's overflow beats failing
    /// requests the server already accepted. Only when no lane is left does
    /// the job drop (its reply channel closes and the handler answers 500).
    fn adopt(&self, job: ScoreJob) {
        let n = self.lanes.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed) % n;
        for offset in 0..n {
            let idx = (start + offset) % n;
            let lane = &self.lanes[idx];
            if !lane.alive.load(Ordering::SeqCst) {
                continue;
            }
            let mut queue = lane.queue.lock();
            queue.push_back(job);
            self.metrics.set_lane_depth(idx, queue.len() as u64);
            drop(queue);
            lane.ready.notify_one();
            return;
        }
    }
}

/// One lane's tick loop. Identical scoring semantics to the single-lane
/// batcher — block for a first job, adaptively drain up to `max_batch`
/// rows, expire, score, reply — plus stealing: whenever this lane's own
/// queue runs dry mid-tick, it drains siblings' overflow into the same
/// tick. `pool` is the GEMM pool shared by every lane (the
/// `lanes × threads ≤ host` discipline); `None` keeps serial kernels.
pub(crate) fn lane_loop(
    set: &Arc<LaneSet>,
    idx: usize,
    config: &BatcherConfig,
    metrics: &Metrics,
    pool: Option<Arc<ThreadPool>>,
) {
    let max_batch = config.max_batch.max(1);
    let mut ws = FlowWorkspace::new();
    ws.set_thread_pool(pool);
    let mut scores: Vec<Option<f64>> = Vec::new();
    // Whether the previous tick was full — the saturation signal driving
    // the adaptive straggler wait.
    let mut saturated = false;

    'ticks: loop {
        // 1. Block for the first job of the tick (stealing counts).
        let first = loop {
            set.check_kill(idx);
            if let Some(job) = set.pop_own(idx).or_else(|| set.steal(idx)) {
                break job;
            }
            if set.stopped() {
                break 'ticks;
            }
            set.wait_ready(idx, IDLE_SLICE);
        };
        let mut jobs = vec![first];
        let mut rows: usize = jobs[0].passwords.len();

        // 2. Drain own queue + steal overflow up to max_batch rows,
        // waiting for stragglers only while unsaturated.
        let deadline = Instant::now() + config.max_wait;
        while rows < max_batch {
            if let Some(job) = set.pop_own(idx).or_else(|| set.steal(idx)) {
                rows += job.passwords.len();
                jobs.push(job);
                continue;
            }
            if saturated || set.stopped() {
                break;
            }
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            set.wait_ready(idx, remaining.min(STRAGGLER_SLICE));
        }
        // Saturation is a queue-pressure signal, so expired jobs count
        // toward it — they occupied queue slots all the same.
        saturated = rows >= max_batch;
        let live = expire_jobs(jobs, metrics);
        if live.is_empty() {
            continue;
        }
        let live_rows: usize = live.iter().map(|j| j.passwords.len()).sum();
        metrics.record_lane_batch(idx, live_rows);
        score_tick(&live, &mut ws, &mut scores);
    }

    // Graceful drain: score anything still queued on *this* lane, one
    // final oversized tick per model (each lane drains its own queue;
    // deadlines still apply).
    let mut pending = Vec::new();
    while let Some(job) = set.pop_own(idx) {
        pending.push(job);
    }
    let pending = expire_jobs(pending, metrics);
    if !pending.is_empty() {
        let rows: usize = pending.iter().map(|j| j.passwords.len()).sum();
        metrics.record_lane_batch(idx, rows);
        score_tick(&pending, &mut ws, &mut scores);
    }
}
