//! The adaptive micro-batching queue between HTTP handlers and the flow —
//! sharded into N independent **lanes**.
//!
//! Per-request scalar scoring wastes the blocked GEMM the inference fast
//! path was built around: a 1-row matrix product cannot amortize anything.
//! The batcher turns concurrent single-password requests back into the
//! batched [`FlowSnapshot::log_prob_into`] shape: handlers enqueue jobs on
//! a **bounded** per-lane queue (overload is shed at enqueue time with a
//! 503, never by buffering without limit) and each lane thread coalesces
//! its jobs into per-tick micro-batches.
//!
//! With [`BatcherConfig::lanes`] > 1 the single batcher thread becomes a
//! sharded set (the scale-out path for hosts where one lane saturates a
//! core before it saturates the scoring tiers):
//!
//! * **Dispatch** is round-robin with failover: a submit lands on the
//!   cursor's lane, or the next alive lane with room; only when *every*
//!   lane is full does it shed.
//! * **Work stealing**: a lane whose own queue runs dry mid-tick drains
//!   the front of its siblings' queues into the same tick, so one hot
//!   lane's overflow is absorbed before any 503.
//! * **One shared GEMM pool**: lanes share a single
//!   [`passflow_nn::ThreadPool`] sized by
//!   [`passflow_nn::clamp_lane_threads`] (`lanes × threads ≤ host`) rather
//!   than each spawning `threads` workers.
//! * **Per-lane liveness**: `/healthz` reports each lane; a dead lane's
//!   queued jobs are re-dispatched to survivors (see `lane`).
//!
//! Each tick works like this:
//!
//! 1. Block on the first job (an idle server burns no CPU beyond a slow
//!    idle steal scan).
//! 2. **Adaptive wait**: if the *previous* tick filled `max_batch`, the
//!    queue is saturated — drain whatever is ready without sleeping (any
//!    waiting would only grow latency; the backlog already guarantees full
//!    batches). Otherwise, wait up to `max_wait` for stragglers so
//!    concurrent requests land in one GEMM instead of many.
//! 3. Group the drained jobs by their resolved model `Arc` (requests
//!    resolve models at dispatch, so a hot-swap never mixes weights inside
//!    a response) and run **one** fused scoring call per group.
//! 4. Send each job its slice of the results over its reply channel.
//!
//! Because every fused kernel is row-independent, a password's score is
//! bit-identical whether it was scored alone, coalesced into a 64-row
//! tick, or stolen by a sibling lane — `tests/serve.rs` and
//! `tests/lanes.rs` assert this at 0 ULP.
//!
//! [`FlowSnapshot::log_prob_into`]: passflow_core::FlowSnapshot::log_prob_into

mod lane;

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use passflow_core::FlowWorkspace;
use passflow_nn::ThreadPool;

use crate::metrics::Metrics;
use crate::registry::ServedModel;
use lane::LaneSet;

/// A scoring job: the passwords of one request plus where to send results.
pub struct ScoreJob {
    /// The model resolved at dispatch time (immutable for this job).
    pub model: Arc<ServedModel>,
    /// Passwords to score (one per row of the request's `passwords` array).
    pub passwords: Vec<String>,
    /// Latest instant at which scoring this job is still useful. Jobs
    /// found expired at drain time are answered [`ScoreOutcome::Expired`]
    /// (the handler turns that into a 504) instead of burning GEMM rows on
    /// a response nobody is waiting for.
    pub deadline: Instant,
    /// One-shot reply channel; receives exactly one outcome.
    pub reply: mpsc::SyncSender<ScoreOutcome>,
}

/// What a job's reply channel receives.
#[derive(Clone, Debug)]
pub enum ScoreOutcome {
    /// Scores in input order, one entry per password (`None` for
    /// unencodable passwords).
    Scored(Vec<Option<f64>>),
    /// The job's deadline expired before a tick picked it up.
    Expired,
}

/// Tuning knobs for the batcher.
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Maximum passwords scored per tick (the GEMM row count).
    pub max_batch: usize,
    /// Maximum time a tick waits for stragglers after its first job.
    pub max_wait: Duration,
    /// Bound of each lane's job queue; enqueueing beyond it (on every
    /// lane) sheds load (503).
    pub queue_capacity: usize,
    /// GEMM threads for the batcher's scoring workspace (resolved through
    /// the repo-wide [`passflow_nn::clamp_threads`] discipline; `1` keeps
    /// the serial kernels). With multiple lanes the per-lane count is
    /// further clamped by [`passflow_nn::clamp_lane_threads`] so
    /// `lanes × threads` never oversubscribes the host, and all lanes
    /// share **one** pool. Scores are bit-identical at any thread count.
    pub threads: usize,
    /// Number of batcher lanes (independent queue + tick loop pairs).
    /// `1` reproduces the single-threaded batcher exactly; responses are
    /// bit-identical at any lane count.
    pub lanes: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(2),
            queue_capacity: 1024,
            threads: 1,
            lanes: 1,
        }
    }
}

/// Handle for submitting jobs to the batcher lanes.
#[derive(Clone)]
pub struct BatcherHandle {
    set: Arc<LaneSet>,
}

/// Why a job could not be enqueued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueError {
    /// Every lane's bounded queue is full — the server is overloaded.
    Overloaded,
    /// The batcher has shut down (or every lane has died).
    ShuttingDown,
}

impl BatcherHandle {
    /// Enqueues a job without blocking; overload is reported, not buffered.
    pub fn submit(&self, job: ScoreJob) -> Result<(), EnqueueError> {
        self.set.submit(job)
    }

    /// Whether any batcher lane is still running (for `/healthz`; flips
    /// false on graceful shutdown *and* if every lane thread dies).
    pub fn is_alive(&self) -> bool {
        self.set.alive_lanes() > 0
    }

    /// Number of lanes this batcher was spawned with.
    pub fn lanes(&self) -> usize {
        self.set.len()
    }

    /// Whether a specific lane's thread is still running.
    pub fn lane_alive(&self, lane: usize) -> bool {
        self.set.lane_alive(lane)
    }

    /// Number of lanes still running.
    pub fn alive_lanes(&self) -> usize {
        self.set.alive_lanes()
    }

    /// Jobs lane `lane` has stolen from its siblings so far.
    pub fn lane_steals(&self, lane: usize) -> u64 {
        self.set.lane_steals(lane)
    }

    /// Total steals across all lanes.
    pub fn total_steals(&self) -> u64 {
        (0..self.set.len()).map(|i| self.set.lane_steals(i)).sum()
    }

    /// **Chaos hook**: makes lane `lane` panic at its next wakeup, exactly
    /// as if its thread had crashed. Queued jobs are re-dispatched to
    /// surviving lanes; `/healthz` reports the lane dead. For fault
    /// injection in `tests/chaos.rs` — never called in production paths.
    pub fn kill_lane(&self, lane: usize) {
        self.set.request_kill(lane);
    }
}

/// The batcher lane threads plus their submission handle.
pub struct Batcher {
    handle: BatcherHandle,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Batcher {
    /// Spawns the batcher lanes. All lanes share one GEMM [`ThreadPool`]
    /// sized by [`passflow_nn::clamp_lane_threads`] — `--lanes` and
    /// `--threads` compose without oversubscribing the host.
    ///
    /// # Panics
    ///
    /// Panics unless `metrics` tracks exactly the configured lane count:
    /// each tick is recorded only in its lane's series.
    pub fn spawn(config: BatcherConfig, metrics: Arc<Metrics>) -> Batcher {
        let lanes = config.lanes.max(1);
        assert_eq!(metrics.lane_count(), lanes, "one metrics series per lane");
        let set = Arc::new(LaneSet::new(
            lanes,
            config.queue_capacity.max(1),
            Arc::clone(&metrics),
        ));
        let per_lane = passflow_nn::clamp_lane_threads(lanes, config.threads);
        let pool = if per_lane > 1 {
            Some(Arc::new(ThreadPool::new(per_lane)))
        } else {
            None
        };
        let threads = (0..lanes)
            .map(|idx| {
                let set = Arc::clone(&set);
                let metrics = Arc::clone(&metrics);
                let pool = pool.clone();
                std::thread::Builder::new()
                    .name(format!("passflow-lane-{idx}"))
                    .spawn(move || {
                        // Retires the lane however the loop exits — a panic
                        // unwinding through here still marks it dead (so
                        // `/healthz` tells the truth) and re-dispatches its
                        // queued jobs to surviving lanes (so no client
                        // hangs on a reply that will never come).
                        struct LaneGuard {
                            set: Arc<LaneSet>,
                            idx: usize,
                        }
                        impl Drop for LaneGuard {
                            fn drop(&mut self) {
                                self.set.retire(self.idx, std::thread::panicking());
                            }
                        }
                        let _guard = LaneGuard {
                            set: Arc::clone(&set),
                            idx,
                        };
                        lane::lane_loop(&set, idx, &config, &metrics, pool);
                    })
                    .expect("spawning a batcher lane thread")
            })
            .collect();
        Batcher {
            handle: BatcherHandle { set },
            threads,
        }
    }

    /// A cloneable submission handle for connection handlers.
    pub fn handle(&self) -> BatcherHandle {
        self.handle.clone()
    }
}

impl Drop for Batcher {
    /// Sets the stop flag and joins every lane; jobs already queued are
    /// still scored before the threads exit (graceful drain, each lane
    /// draining its own queue). Handle clones held elsewhere merely get
    /// [`EnqueueError::ShuttingDown`] (or an unanswered reply channel)
    /// afterwards — they cannot stall the join.
    fn drop(&mut self) {
        self.handle.set.begin_stop();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Answers every already-expired job with [`ScoreOutcome::Expired`] (the
/// handler's 504) and returns the jobs still worth scoring.
fn expire_jobs(jobs: Vec<ScoreJob>, metrics: &Metrics) -> Vec<ScoreJob> {
    let now = Instant::now();
    let mut live = Vec::with_capacity(jobs.len());
    for job in jobs {
        if job.deadline <= now {
            metrics.record_deadline_expired();
            let _ = job.reply.try_send(ScoreOutcome::Expired);
        } else {
            live.push(job);
        }
    }
    live
}

/// Scores one tick: one fused call per distinct model, results split back
/// out to each job's reply channel in input order.
///
/// Jobs arrive roughly model-sorted (most deployments serve one hot model),
/// so grouping by pointer identity over the small job list is cheaper than
/// a hash map. Requests resolved their model `Arc` at dispatch, so a
/// hot-swap never mixes weights inside a single response.
fn score_tick(jobs: &[ScoreJob], ws: &mut FlowWorkspace, scores: &mut Vec<Option<f64>>) {
    let mut scored = vec![false; jobs.len()];
    for i in 0..jobs.len() {
        if scored[i] {
            continue;
        }
        let model = &jobs[i].model;
        let group: Vec<usize> = (i..jobs.len())
            .filter(|&j| !scored[j] && Arc::ptr_eq(&jobs[j].model, model))
            .collect();
        // Single-job groups (every serial-mode tick, and any tick with one
        // request) score the job's own password slice directly; only a
        // genuinely coalesced group pays for concatenating the strings.
        let concatenated: Vec<String>;
        let batch: &[String] = if group.len() == 1 {
            &jobs[group[0]].passwords
        } else {
            concatenated = group
                .iter()
                .flat_map(|&j| jobs[j].passwords.iter().cloned())
                .collect();
            &concatenated
        };
        model.log_probs_with(batch, ws, scores);

        let mut offset = 0usize;
        for &j in &group {
            let n = jobs[j].passwords.len();
            let slice = scores[offset..offset + n].to_vec();
            offset += n;
            scored[j] = true;
            // A dropped receiver (client disconnected mid-flight) is not
            // an error; the score is simply discarded.
            let _ = jobs[j].reply.try_send(ScoreOutcome::Scored(slice));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ServedModel;
    use passflow_core::{FlowConfig, PassFlow, ProbabilityModel};
    use passflow_nn::rng as nnrng;

    fn served(seed: u64) -> (PassFlow, Arc<ServedModel>) {
        let mut rng = nnrng::seeded(seed);
        let flow = PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap();
        let model = Arc::new(ServedModel::from_flow("m", &flow, 1, None));
        (flow, model)
    }

    /// A deadline far enough out that tests never trip it accidentally.
    fn lenient_deadline() -> Instant {
        Instant::now() + Duration::from_secs(300)
    }

    fn expect_scores(outcome: ScoreOutcome) -> Vec<Option<f64>> {
        match outcome {
            ScoreOutcome::Scored(scores) => scores,
            ScoreOutcome::Expired => panic!("job expired under a lenient deadline"),
        }
    }

    fn submit_one(handle: &BatcherHandle, model: &Arc<ServedModel>, pw: &str) -> Option<f64> {
        let (reply, rx) = mpsc::sync_channel(1);
        handle
            .submit(ScoreJob {
                model: Arc::clone(model),
                passwords: vec![pw.to_string()],
                deadline: lenient_deadline(),
                reply,
            })
            .unwrap();
        expect_scores(rx.recv_timeout(Duration::from_secs(30)).unwrap())[0]
    }

    #[test]
    fn batched_scores_match_direct_scoring() {
        let (flow, model) = served(41);
        let metrics = Arc::new(Metrics::with_lanes(1));
        let batcher = Batcher::spawn(BatcherConfig::default(), Arc::clone(&metrics));
        let handle = batcher.handle();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let handle = handle.clone();
                let model = Arc::clone(&model);
                std::thread::spawn(move || {
                    (0..5)
                        .map(|i| {
                            let pw = format!("pw{t}x{i}");
                            (pw.clone(), submit_one(&handle, &model, &pw))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for t in threads {
            for (pw, got) in t.join().unwrap() {
                let expected = flow.password_log_prob(&pw).unwrap();
                assert_eq!(got.unwrap().to_bits(), expected.to_bits(), "{pw}");
            }
        }
        drop(batcher);
        assert!(
            metrics.total_requests() == 0,
            "batcher records batches only"
        );
    }

    #[test]
    fn mixed_model_ticks_never_cross_wires() {
        let (flow_a, model_a) = served(42);
        let (flow_b, model_b) = served(43);
        let batcher = Batcher::spawn(
            BatcherConfig {
                // A long wait forces both models into the same tick.
                max_wait: Duration::from_millis(50),
                ..BatcherConfig::default()
            },
            Arc::new(Metrics::with_lanes(1)),
        );
        let handle = batcher.handle();
        let ha = handle.clone();
        let a = std::thread::spawn(move || submit_one(&ha, &model_a, "jimmy91"));
        let b = submit_one(&handle, &model_b, "jimmy91");
        let a = a.join().unwrap();
        assert_eq!(
            a.unwrap().to_bits(),
            flow_a.password_log_prob("jimmy91").unwrap().to_bits()
        );
        assert_eq!(
            b.unwrap().to_bits(),
            flow_b.password_log_prob("jimmy91").unwrap().to_bits()
        );
    }

    #[test]
    fn overload_is_shed_not_buffered() {
        let (_flow, model) = served(44);
        // Capacity-1 queue with a stalled batcher: fill it, then expect
        // Overloaded. Stall by submitting a job whose model scoring is slow
        // enough — instead, simply don't start draining: use max_wait 0 and
        // flood from this thread faster than the batcher can drain.
        let batcher = Batcher::spawn(
            BatcherConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
                queue_capacity: 1,
                ..BatcherConfig::default()
            },
            Arc::new(Metrics::with_lanes(1)),
        );
        let handle = batcher.handle();
        let mut saw_overload = false;
        let mut receivers = Vec::new();
        for i in 0..200 {
            let (reply, rx) = mpsc::sync_channel(1);
            match handle.submit(ScoreJob {
                model: Arc::clone(&model),
                passwords: vec![format!("pw{i}")],
                deadline: lenient_deadline(),
                reply,
            }) {
                Ok(()) => receivers.push(rx),
                Err(EnqueueError::Overloaded) => {
                    saw_overload = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(saw_overload, "a capacity-1 queue must shed a 200-job flood");
        // Accepted jobs still complete (graceful drain on drop).
        drop(batcher);
        for rx in receivers {
            assert!(rx.recv_timeout(Duration::from_secs(30)).is_ok());
        }
    }

    #[test]
    fn expired_jobs_are_dropped_not_scored() {
        let (_flow, model) = served(46);
        let metrics = Arc::new(Metrics::with_lanes(1));
        let batcher = Batcher::spawn(
            BatcherConfig {
                // A long straggler wait gives the already-expired job time
                // to be drained into a tick deterministically.
                max_wait: Duration::from_millis(50),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        );
        let handle = batcher.handle();
        assert!(handle.is_alive());

        let (reply, expired_rx) = mpsc::sync_channel(1);
        handle
            .submit(ScoreJob {
                model: Arc::clone(&model),
                passwords: vec!["stale".to_string()],
                deadline: Instant::now() - Duration::from_millis(1),
                reply,
            })
            .unwrap();
        // A live job in the same tick still gets scored.
        let live = submit_one(&handle, &model, "fresh");
        assert!(live.is_some());
        match expired_rx.recv_timeout(Duration::from_secs(30)).unwrap() {
            ScoreOutcome::Expired => {}
            ScoreOutcome::Scored(_) => panic!("expired job must not be scored"),
        }
        assert_eq!(metrics.deadline_expired_total(), 1);
        drop(batcher);
        assert!(!handle.is_alive(), "drained batcher reports dead");
    }

    #[test]
    fn multi_password_jobs_keep_input_order() {
        let (flow, model) = served(45);
        let batcher = Batcher::spawn(BatcherConfig::default(), Arc::new(Metrics::with_lanes(1)));
        let passwords: Vec<String> = (0..10).map(|i| format!("word{i}")).collect();
        let (reply, rx) = mpsc::sync_channel(1);
        batcher
            .handle()
            .submit(ScoreJob {
                model,
                passwords: passwords.clone(),
                deadline: lenient_deadline(),
                reply,
            })
            .unwrap();
        let scores = expect_scores(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        let expected = flow.password_log_probs(&passwords);
        assert_eq!(scores.len(), expected.len());
        for (a, b) in scores.iter().zip(expected.iter()) {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
    }

    #[test]
    fn multi_lane_scores_match_direct_scoring() {
        let (flow, model) = served(47);
        let metrics = Arc::new(Metrics::with_lanes(4));
        let batcher = Batcher::spawn(
            BatcherConfig {
                lanes: 4,
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        );
        let handle = batcher.handle();
        assert_eq!(handle.lanes(), 4);
        assert_eq!(handle.alive_lanes(), 4);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let handle = handle.clone();
                let model = Arc::clone(&model);
                std::thread::spawn(move || {
                    (0..10)
                        .map(|i| {
                            let pw = format!("lane{t}x{i}");
                            (pw.clone(), submit_one(&handle, &model, &pw))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for t in threads {
            for (pw, got) in t.join().unwrap() {
                let expected = flow.password_log_prob(&pw).unwrap();
                assert_eq!(got.unwrap().to_bits(), expected.to_bits(), "{pw}");
            }
        }
    }

    #[test]
    fn one_slot_queues_force_stealing() {
        let (flow, model) = served(48);
        let metrics = Arc::new(Metrics::with_lanes(2));
        // One-slot lanes and a generous straggler wait: the first lane to
        // open a tick sits waiting while round-robin keeps landing jobs on
        // its sibling — the only way those jobs reach a GEMM before the
        // wait expires is the steal path.
        let batcher = Batcher::spawn(
            BatcherConfig {
                lanes: 2,
                queue_capacity: 1,
                max_wait: Duration::from_millis(50),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        );
        let handle = batcher.handle();
        let mut receivers = Vec::new();
        let mut accepted = Vec::new();
        for round in 0..40 {
            let pw = format!("steal{round}");
            let (reply, rx) = mpsc::sync_channel(1);
            let job = ScoreJob {
                model: Arc::clone(&model),
                passwords: vec![pw.clone()],
                deadline: lenient_deadline(),
                reply,
            };
            if handle.submit(job).is_ok() {
                receivers.push(rx);
                accepted.push(pw);
            }
        }
        for (pw, rx) in accepted.iter().zip(receivers) {
            let scores = expect_scores(rx.recv_timeout(Duration::from_secs(30)).unwrap());
            let expected = flow.password_log_prob(pw).unwrap();
            assert_eq!(scores[0].unwrap().to_bits(), expected.to_bits(), "{pw}");
        }
        assert!(
            handle.total_steals() > 0,
            "one-slot queues under a 40-job burst must exercise the steal path"
        );
        assert_eq!(
            handle.total_steals(),
            (0..handle.lanes()).map(|i| handle.lane_steals(i)).sum(),
            "per-lane steal counters sum to the total"
        );
    }

    #[test]
    fn killed_lane_reports_dead_and_survivors_rescue_its_jobs() {
        let (flow, model) = served(49);
        let metrics = Arc::new(Metrics::with_lanes(3));
        let batcher = Batcher::spawn(
            BatcherConfig {
                lanes: 3,
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        );
        let handle = batcher.handle();
        handle.kill_lane(1);
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.lane_alive(1) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!handle.lane_alive(1), "killed lane must report dead");
        assert!(handle.is_alive(), "surviving lanes keep the batcher alive");
        assert_eq!(handle.alive_lanes(), 2);
        // Every request after the kill still scores, bit-exact: round-robin
        // skips the corpse and failover covers its cursor slots.
        for i in 0..30 {
            let pw = format!("ak{i}");
            let got = submit_one(&handle, &model, &pw);
            let expected = flow.password_log_prob(&pw).unwrap();
            assert_eq!(got.unwrap().to_bits(), expected.to_bits(), "{pw}");
        }
        // Killing the rest flips the batcher dead and submits are refused.
        handle.kill_lane(0);
        handle.kill_lane(2);
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.is_alive() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!handle.is_alive());
        let (reply, _rx) = mpsc::sync_channel(1);
        assert_eq!(
            handle.submit(ScoreJob {
                model,
                passwords: vec!["x".to_string()],
                deadline: lenient_deadline(),
                reply,
            }),
            Err(EnqueueError::ShuttingDown)
        );
    }
}
