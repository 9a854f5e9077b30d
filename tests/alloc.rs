//! Heap-traffic pins, counted by a process-wide allocator.
//!
//! A binary can have one global allocator, so these checks live in a test
//! binary of their own. The counter sees every thread of the process, so
//! all checks run inside one `#[test]`: a second test thread (or the
//! harness spawning it) would allocate into the window being measured.
//!
//! A pin never loosens; raising one needs a stated reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use passflow::core::GaussianMixturePrior;
use passflow::nn::{rng as nnrng, Tensor};
use passflow::{
    Attack, DynamicParams, FlowConfig, FlowWorkspace, GaussianSmoothing, GuessSession, Guesser,
    GuessingStrategy, PassFlow,
};
use rand::RngCore;

/// Counts allocation calls (a `realloc` counts as one) and bytes
/// requested, then defers to the system allocator.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn record(size: usize) {
    // Relaxed: the counters publish no other data, and each measured
    // window is read on the thread that joined the work it measures.
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` requirements pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` was allocated by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls and bytes made while running `f`, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    (
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
        out,
    )
}

/// A flow wrapper that counts [`Guesser::state_digest`] calls.
struct DigestCounter<'f> {
    flow: &'f PassFlow,
    digests: AtomicUsize,
}

impl Guesser for DigestCounter<'_> {
    fn name(&self) -> &str {
        Guesser::name(self.flow)
    }

    fn generate_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
        Guesser::generate_batch(self.flow, n, rng)
    }

    fn start_session(&self) -> Option<Box<dyn GuessSession + '_>> {
        self.flow.start_session()
    }

    fn state_digest(&self) -> Option<u64> {
        self.digests.fetch_add(1, Ordering::Relaxed);
        self.flow.state_digest()
    }
}

/// A flow plus targets drawn from its own samples, so Dynamic sampling
/// matches and builds its mixture prior.
fn flow_fixture(config: FlowConfig) -> (PassFlow, HashSet<String>) {
    let mut rng = nnrng::seeded(42);
    let flow = PassFlow::new(config, &mut rng).unwrap();
    let targets = flow
        .sample_passwords(300, &mut rng)
        .into_iter()
        .filter(|p| !p.is_empty())
        .collect();
    (flow, targets)
}

fn state_digest_streams_without_buffering(flow: &PassFlow) {
    let (calls, bytes, digest) = counted(|| flow.state_digest());
    assert!(digest.is_some());
    // What remains is the parameter-handle lists the modules collect (173
    // at 8×64), not the weights: cloning and rendering them took ~288k.
    assert!(
        calls <= 192,
        "state_digest made {calls} allocations ({bytes} bytes)"
    );
}

fn warmed_inverse_allocates_nothing(flow: &PassFlow) {
    let snapshot = flow.snapshot();
    let z = Tensor::randn(1_024, flow.dim(), &mut nnrng::seeded(7));
    let mut ws = FlowWorkspace::new();
    let mut out = Tensor::default();
    snapshot.inverse_into(&z, &mut ws, &mut out);
    let (calls, bytes, ()) = counted(|| snapshot.inverse_into(&z, &mut ws, &mut out));
    assert_eq!(
        calls, 0,
        "a warmed 1 024-row inverse made {calls} allocations ({bytes} bytes)"
    );
}

fn warmed_mixture_sampling_allocates_nothing(flow: &PassFlow) {
    // Mostly expired components, as the step penalization leaves them.
    let centers: Vec<Vec<f32>> = (0..32).map(|k| vec![k as f32 * 0.1; flow.dim()]).collect();
    let weights = (0..32)
        .map(|k| if k % 5 == 0 { 1.0 } else { 0.0 })
        .collect();
    let prior = GaussianMixturePrior::new(centers, 0.1, weights);
    let mut rng = nnrng::seeded(8);
    let mut out = Tensor::default();
    prior.sample_into(1_024, &mut rng, &mut out);
    let (calls, bytes, ()) = counted(|| prior.sample_into(1_024, &mut rng, &mut out));
    assert_eq!(
        calls, 0,
        "a warmed 1 024-row mixture draw made {calls} allocations ({bytes} bytes)"
    );
}

fn smoothing_perturbation_allocates_nothing(flow: &PassFlow) {
    let smoothing = GaussianSmoothing::default();
    let mut rng = nnrng::seeded(9);
    // One flow-width row, and one long enough to cross the draw batches.
    let mut row = vec![0.5f32; flow.dim()];
    let mut long = vec![0.5f32; 1_000];
    let (calls, bytes, ()) = counted(|| {
        smoothing.perturb_in_place(&mut row, &mut rng);
        smoothing.perturb_in_place(&mut long, &mut rng);
    });
    assert_eq!(
        calls, 0,
        "smoothing perturbations made {calls} allocations ({bytes} bytes)"
    );
}

fn only_persisting_attacks_compute_the_state_digest(flow: &PassFlow) {
    let targets: HashSet<String> = HashSet::new();
    let guesser = DigestCounter {
        flow,
        digests: AtomicUsize::new(0),
    };
    Attack::new(&targets).budget(256).run(&guesser).unwrap();
    assert_eq!(guesser.digests.load(Ordering::Relaxed), 0);

    let dir = std::env::temp_dir().join(format!("pf-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("digest.pfattack");
    let written = Attack::new(&targets)
        .budget(256)
        .checkpoint_to(&checkpoint)
        .run(&guesser);
    let _ = std::fs::remove_dir_all(&dir);
    written.unwrap();
    assert_eq!(guesser.digests.load(Ordering::Relaxed), 1);
}

fn row_split_allocations_are_bounded_per_chunk(flow: &PassFlow, targets: &HashSet<String>) {
    const BUDGET: u64 = 8_192;
    // A 64-row chunk is one block per shard; a 512-row chunk is four
    // 128-row blocks that the shards take in turn.
    for batch in [64, 512] {
        let campaign = |shards: usize| {
            counted(|| {
                Attack::new(targets)
                    .budget(BUDGET)
                    .batch_size(batch)
                    .strategy(GuessingStrategy::DynamicWithSmoothing {
                        params: DynamicParams::new(0, 0.1, 8),
                        smoothing: GaussianSmoothing::default(),
                    })
                    .seed(5)
                    .shards(shards)
                    .sync_every(1)
                    .run(flow)
                    .unwrap()
            })
        };
        let (serial_calls, _, serial) = campaign(1);
        let (split_calls, _, split) = campaign(2);
        assert!(
            serial.final_report().matched > 0,
            "batch={batch}: the mixture must activate"
        );
        assert_eq!(split, serial, "batch={batch}");
        let chunks = BUDGET / batch as u64;
        // Per chunk the pool's job handle, and at most one block of the
        // inverse's report channel and one waiter entry on it, plus the
        // second context's one-time warm-up spread over the chunks: 1.9-2.2
        // per chunk at batch 64 and 3.3-4.25 at 512 in debug and optimised
        // builds. The attack's pool starts its worker once, so no chunk pays
        // for a thread.
        assert!(
            split_calls <= serial_calls + 5 * chunks,
            "batch={batch}: 2 shards made {split_calls} allocations, 1 shard {serial_calls}, \
             over {chunks} chunks"
        );
    }
}

fn cadence_checkpoints_copy_no_guess(flow: &PassFlow, targets: &HashSet<String>) {
    const BUDGET: u64 = 8_192;
    const EVERY: u64 = 1_024;
    let dir = std::env::temp_dir().join(format!("pf-alloc-cadence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // `every` 0 writes only the completion checkpoint.
    let campaign = |every: u64| {
        counted(|| {
            Attack::new(targets)
                .budget(BUDGET)
                .batch_size(512)
                .strategy(GuessingStrategy::DynamicWithSmoothing {
                    params: DynamicParams::new(0, 0.1, 8),
                    smoothing: GaussianSmoothing::default(),
                })
                .seed(5)
                .sync_every(1)
                .checkpoint_every(every)
                .checkpoint_to(dir.join(format!("every-{every}.pfattack")))
                .run(flow)
        })
    };
    let (once_calls, _, once) = campaign(0);
    let (cadence_calls, _, cadence) = campaign(EVERY);
    let _ = std::fs::remove_dir_all(&dir);
    let (once, cadence) = (once.unwrap(), cadence.unwrap());
    assert_eq!(cadence, once);
    let last = once.final_report();
    assert!(
        last.matched > 0,
        "the match lists a write borrows are filled"
    );
    // The cadence's last write is the completion write, so it adds
    // BUDGET / EVERY - 1 writes.
    let extra_writes = BUDGET / EVERY - 1;
    let per_write = cadence_calls.saturating_sub(once_calls) / extra_writes;
    // A write borrows the dedup set in byte order and the engine's match
    // lists, so what it allocates is the sorted view, the encoder's buffer
    // growth and the file: 22 per write. Copying each guess made at least
    // one allocation per unique guess per write (915 at the end here).
    assert!(
        per_write <= 32,
        "a cadence write made {per_write} allocations ({} unique, {} matched)",
        last.unique,
        last.matched
    );
}

#[test]
fn heap_traffic_pins() {
    let (evaluation, _) = flow_fixture(FlowConfig::evaluation());
    state_digest_streams_without_buffering(&evaluation);
    warmed_inverse_allocates_nothing(&evaluation);
    warmed_mixture_sampling_allocates_nothing(&evaluation);
    smoothing_perturbation_allocates_nothing(&evaluation);
    only_persisting_attacks_compute_the_state_digest(&evaluation);
    // The untrained 8×64 flow's samples rarely repeat, so the campaign
    // runs on the tiny flow, whose do.
    let (tiny, targets) = flow_fixture(FlowConfig::tiny());
    row_split_allocations_are_bounded_per_chunk(&tiny, &targets);
    cadence_checkpoints_copy_no_guess(&tiny, &targets);
}
