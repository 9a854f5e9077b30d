//! `passflow loadgen`: loopback load generator for the serving subsystem.
//!
//! Starts a server in-process on an ephemeral loopback port and drives it
//! in one of five modes:
//!
//! * **hammer** (default) — many keep-alive clients send single-password
//!   `POST /v1/score` requests back-to-back, measured twice: batching
//!   disabled (`max_batch = 1`) and the adaptive batcher at
//!   `max_batch = 64`. Both runs carry identical HTTP/JSON/syscall
//!   overhead, so the ratio isolates what batching buys. Asserts batched
//!   ≥ 3× serial (≥ 2× with `--quick`).
//! * **synth** — synthesizes a seeded `PFTRACE v1` workload trace
//!   (heavy-tailed batch sizes, bursty arrivals, score/logprob/screen
//!   endpoint mix) and writes it to `--trace`.
//! * **record** — runs a live workload and *records* it: each request's
//!   measured inter-arrival gap, endpoint and password seed go into a
//!   `PFTRACE v1` file that `replay` reproduces byte-for-byte.
//! * **replay** — loads `--trace` (or synthesizes from `--seed`), replays
//!   it against an in-process server at `--lanes`, honoring recorded
//!   inter-arrival gaps, and prints throughput plus a digest of every
//!   response's exact score bits.
//! * **sweep** — a lanes × clients throughput grid, a cross-lane-count
//!   trace replay asserting **bit-identical** outcomes at lanes 1/2/4, and
//!   the idle keep-alive figure (threads + VmRSS delta for ~1k parked
//!   connections, asserted to cost fewer than 8 threads).
//!
//! `hammer` and `sweep` print one row per measurement to stdout.
//!
//! ```text
//! passflow loadgen [--mode hammer|synth|record|replay|sweep] [--quick]
//!                  [--trace PATH] [--seed N] [--count N] [--clients N] [--lanes N]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use passflow_core::{FlowConfig, PassFlow, SampleTable};
use passflow_serve::client::{request_with_retry, Connection, RetryPolicy};
use passflow_serve::trace::{self, Trace, TraceRecord, TraceSynthProfile};
use passflow_serve::{serve, BatcherConfig, ModelRegistry, ServedModel, ServerConfig};
use passflow_store::format::{fnv1a, FNV_SEED};
use passflow_store::{DigestConfig, DigestStore, DigestStoreBuilder};

use super::args::Flags;

/// Concurrent client threads for hammer cells. Each holds one keep-alive
/// connection and sends single-password requests back-to-back, so up to
/// `CLIENTS` requests are in flight — enough to fill 64-row ticks.
const CLIENTS: usize = 64;

fn build_registry(quick: bool) -> (Arc<ModelRegistry>, PassFlow) {
    // A production-shaped architecture (18 coupling layers × hidden 128 —
    // the paper's depth at half its width): a model whose per-password
    // scoring cost dominates HTTP/syscall overhead, which is exactly the
    // regime the micro-batcher exists for. On this 1-row-vs-64-row GEMM
    // the pure scoring ratio is ≈4.4×; smaller models (6×48) are so cheap
    // that loopback HTTP overhead swallows the batching win. Untrained
    // weights score exactly like trained ones.
    let mut rng = passflow_nn::rng::seeded(11);
    let flow =
        PassFlow::new(FlowConfig::paper().with_hidden_size(128), &mut rng).expect("valid config");
    let table = SampleTable::build(&flow, if quick { 500 } else { 2_000 }, 7);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(ServedModel::from_flow("default", &flow, 1, Some(table)));
    (registry, flow)
}

/// A small digest store in a temp file, so traces that mix in
/// `/v1/screen` exercise the real endpoint instead of a 503.
fn digest_fixture() -> Arc<DigestStore> {
    let path = std::env::temp_dir().join(format!("pfdigest-loadgen-{}.pfd", std::process::id()));
    let mut builder = DigestStoreBuilder::new(DigestConfig::default());
    for pw in ["password1", "dragon", "letmein", "qwerty99"] {
        builder.add_password(pw).expect("digest fixture password");
    }
    builder.finish(&path).expect("digest fixture build");
    let store = DigestStore::open(&path).expect("digest fixture open");
    // The open handle keeps the records readable; drop the name so runs
    // leave no file behind.
    let _ = std::fs::remove_file(&path);
    Arc::new(store)
}

fn server_config(lanes: usize, max_batch: usize, digest: Option<Arc<DigestStore>>) -> ServerConfig {
    ServerConfig {
        batcher: BatcherConfig {
            lanes,
            max_batch,
            max_wait: Duration::from_millis(2),
            queue_capacity: 1024,
            ..BatcherConfig::default()
        },
        max_connections: 4096,
        digest,
        ..ServerConfig::default()
    }
}

/// Runs one measured load: `clients` threads for `duration`, returning
/// (total requests completed, elapsed seconds).
fn hammer(addr: std::net::SocketAddr, clients: usize, duration: Duration) -> (u64, f64) {
    let completed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicU64::new(0)); // 0 = run, 1 = stop
    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let completed = Arc::clone(&completed);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Per-thread jitter seed: a shed burst must not come back
                // as a synchronized stampede.
                let policy = RetryPolicy {
                    seed: t as u64,
                    ..RetryPolicy::default()
                };
                let mut conn =
                    Connection::open(addr, Duration::from_secs(30)).expect("connect to loopback");
                let body = format!("{{\"passwords\":[\"password{t}\"]}}");
                while stop.load(Ordering::Relaxed) == 0 {
                    // Transient sheds (503) and torn keep-alive connections
                    // back off and retry instead of killing the run; only
                    // genuine failures (or a 503 that outlives every
                    // retry) abort.
                    let response = match conn.request("POST", "/v1/score", Some(&body)) {
                        Ok(r) if r.status != 503 => r,
                        _ => {
                            let r =
                                request_with_retry(addr, "POST", "/v1/score", Some(&body), &policy)
                                    .expect("score request after retries");
                            conn = Connection::open(addr, Duration::from_secs(30))
                                .expect("reconnect to loopback");
                            r
                        }
                    };
                    assert_eq!(response.status, 200, "{}", response.text());
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(1, Ordering::Relaxed);
    for thread in threads {
        thread.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    (completed.load(Ordering::Relaxed), elapsed)
}

/// Bit-exactness probe: one served score must equal direct scoring.
fn probe_bit_exact(addr: std::net::SocketAddr, flow: &PassFlow) {
    let response = request_with_retry(
        addr,
        "POST",
        "/v1/score",
        Some("{\"passwords\":[\"jimmy91\"]}"),
        &RetryPolicy::default(),
    )
    .expect("probe request");
    let expected = passflow_core::ProbabilityModel::password_log_prob(flow, "jimmy91")
        .expect("encodable probe");
    let bits_text = response
        .text()
        .split("\"log_prob_bits\":\"")
        .nth(1)
        .map(|rest| rest[..16].to_string())
        .expect("log_prob_bits in response");
    assert_eq!(
        u64::from_str_radix(&bits_text, 16).unwrap(),
        expected.to_bits(),
        "served score must equal direct scoring"
    );
}

/// `/proc/self/status` Threads and VmRSS (kB); zeros off-Linux.
fn proc_threads_and_rss() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("Threads:"), field("VmRSS:"))
}

/// FNV-1a digest over every outcome's status and score bits — two replays
/// agree on this iff they agreed on every response.
fn outcome_digest(outcomes: &[trace::ReplayOutcome]) -> u64 {
    let mut hash = FNV_SEED;
    for outcome in outcomes {
        hash = fnv1a(hash, &outcome.status.to_le_bytes());
        for bits in &outcome.bits {
            hash = fnv1a(hash, bits.as_bytes());
        }
        for verdict in &outcome.verdicts {
            hash = fnv1a(hash, verdict.as_bytes());
        }
    }
    hash
}

struct Args {
    quick: bool,
    trace: String,
    seed: u64,
    count: Option<usize>,
    clients: usize,
    lanes: usize,
}

/// Runs `passflow loadgen`.
pub fn run(args: Vec<String>) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "--mode",
            "--trace",
            "--seed",
            "--count",
            "--clients",
            "--lanes",
        ],
        &["--quick"],
    )?;
    flags.no_positional()?;
    let args = Args {
        quick: flags.switch("--quick"),
        trace: flags
            .value("--trace")
            .unwrap_or("trace.pftrace")
            .to_string(),
        seed: flags.parsed("--seed")?.unwrap_or(42),
        count: flags.parsed("--count")?,
        clients: flags.parsed("--clients")?.unwrap_or(16),
        lanes: flags.parsed("--lanes")?.unwrap_or(1),
    };
    match flags.value("--mode").unwrap_or("hammer") {
        "hammer" => run_hammer(&args),
        "synth" => run_synth(&args),
        "record" => run_record(&args),
        "replay" => run_replay(&args),
        "sweep" => run_sweep(&args),
        other => {
            return Err(format!(
                "--mode: invalid value {other:?} (hammer|synth|record|replay|sweep)"
            ))
        }
    }
    Ok(())
}

/// `--mode hammer`: serial vs batch64 under hammer load.
fn run_hammer(args: &Args) {
    let measure = Duration::from_secs(if args.quick { 2 } else { 6 });
    let warmup = Duration::from_millis(if args.quick { 200 } else { 1_000 });
    let (registry, flow) = build_registry(args.quick);

    let mut throughputs: Vec<f64> = Vec::new();
    for (label, max_batch) in [("serial", 1usize), ("batch64", 64usize)] {
        let server = serve(
            server_config(args.lanes, max_batch, None),
            Arc::clone(&registry),
        )
        .expect("bind loopback");
        let addr = server.addr();
        probe_bit_exact(addr, &flow);
        let _ = hammer(addr, CLIENTS, warmup);
        let (requests, seconds) = hammer(addr, CLIENTS, measure);
        server.shutdown();
        server.join();

        let throughput = requests as f64 / seconds;
        println!(
            "serve/score_loopback/{label}: {requests} requests in {seconds:.2}s = {throughput:.0} req/s"
        );
        throughputs.push(throughput);
    }

    let speedup = throughputs[1] / throughputs[0];
    println!("batched_over_serial: {speedup:.2}×");

    // The acceptance bar; --quick CI runs still assert a clear win.
    let bar = if args.quick { 2.0 } else { 3.0 };
    assert!(
        speedup >= bar,
        "batched serving must be ≥ {bar}× serial (measured {speedup:.2}×)"
    );
}

/// `--mode synth`: write a seeded synthetic trace.
fn run_synth(args: &Args) {
    let count = args.count.unwrap_or(if args.quick { 200 } else { 2_000 });
    let trace = Trace::synth(args.seed, count, &TraceSynthProfile::default());
    trace
        .write(std::path::Path::new(&args.trace))
        .expect("writing trace");
    println!(
        "synthesized {} records ({} passwords) from seed {} -> {}",
        trace.records.len(),
        trace.total_passwords(),
        args.seed,
        args.trace
    );
}

/// `--mode record`: run a live workload and record its *measured*
/// arrival process (gaps, endpoints, password seeds) as a trace.
fn run_record(args: &Args) {
    let count = args.count.unwrap_or(if args.quick { 200 } else { 1_000 });
    let (registry, _flow) = build_registry(args.quick);
    let server = serve(
        server_config(args.lanes, 64, Some(digest_fixture())),
        registry,
    )
    .expect("bind loopback");
    let addr = server.addr();

    // The shape (endpoint mix, batch sizes, password seeds) comes from the
    // synth generator; the *timing* is measured off the wire. A recorded
    // trace therefore replays the workload the server actually saw, not
    // the workload the generator intended.
    let planned = Trace::synth(args.seed, count, &TraceSynthProfile::default());
    let mut conn = Connection::open(addr, Duration::from_secs(30)).expect("connect");
    let mut records = Vec::with_capacity(count);
    let mut last = Instant::now();
    for planned_record in &planned.records {
        let response = conn
            .request(
                "POST",
                planned_record.endpoint.path(),
                Some(&planned_record.body()),
            )
            .expect("recorded request");
        assert!(
            response.status == 200 || response.status == 503,
            "unexpected status {} while recording",
            response.status
        );
        let now = Instant::now();
        let gap_us = now.duration_since(last).as_micros().min(u32::MAX as u128) as u32;
        last = now;
        records.push(TraceRecord {
            gap_us,
            ..*planned_record
        });
    }
    server.shutdown();
    server.join();

    let trace = Trace { seed: 0, records };
    trace
        .write(std::path::Path::new(&args.trace))
        .expect("writing trace");
    println!(
        "recorded {} live requests -> {}",
        trace.records.len(),
        args.trace
    );
}

/// `--mode replay`: replay a trace file (or a synthesized one) against an
/// in-process server and report throughput + the outcome digest.
fn run_replay(args: &Args) {
    let trace = if std::path::Path::new(&args.trace).exists() {
        Trace::load(std::path::Path::new(&args.trace)).expect("loading trace")
    } else {
        let count = args.count.unwrap_or(if args.quick { 200 } else { 1_000 });
        println!(
            "{} not found; synthesizing {count} records from seed {}",
            args.trace, args.seed
        );
        Trace::synth(args.seed, count, &TraceSynthProfile::default())
    };
    let (registry, _flow) = build_registry(args.quick);
    let server = serve(
        server_config(args.lanes, 64, Some(digest_fixture())),
        registry,
    )
    .expect("bind loopback");

    let start = Instant::now();
    let outcomes = trace::replay(server.addr(), &trace, args.clients).expect("replay");
    let seconds = start.elapsed().as_secs_f64();
    let ok = outcomes.iter().filter(|o| o.status == 200).count();
    println!(
        "replayed {} records ({} passwords) in {seconds:.2}s = {:.0} req/s with {} lanes; \
         {ok} ok; outcome_digest={:016x}",
        outcomes.len(),
        trace.total_passwords(),
        outcomes.len() as f64 / seconds,
        args.lanes,
        outcome_digest(&outcomes)
    );
    let steals = server.batcher().total_steals();
    println!("lane steals: {steals}");
    server.shutdown();
    server.join();
}

/// `--mode sweep`: the lanes × clients grid, the cross-lane replay and the
/// idle keep-alive cost.
fn run_sweep(args: &Args) {
    let measure = Duration::from_secs(if args.quick { 1 } else { 3 });
    let warmup = Duration::from_millis(if args.quick { 200 } else { 500 });
    let idle_conns = if args.quick { 200 } else { 1_000 };
    let trace_count = if args.quick { 150 } else { 600 };
    let (registry, flow) = build_registry(args.quick);
    let digest = digest_fixture();

    // -- Lane × clients hammer grid -------------------------------------
    for lanes in [1usize, 2, 4] {
        for clients in [8usize, 64] {
            let server = serve(
                server_config(lanes, 64, Some(Arc::clone(&digest))),
                Arc::clone(&registry),
            )
            .expect("bind loopback");
            let addr = server.addr();
            probe_bit_exact(addr, &flow);
            let _ = hammer(addr, clients, warmup);
            let (requests, seconds) = hammer(addr, clients, measure);
            server.shutdown();
            server.join();
            let throughput = requests as f64 / seconds;
            println!(
                "serve/lane_sweep/lanes{lanes}_clients{clients}: {requests} requests in \
                 {seconds:.2}s = {throughput:.0} req/s"
            );
        }
    }

    // -- Cross-lane-count trace replay: bit-identical outcomes ----------
    let trace = Trace::synth(args.seed, trace_count, &TraceSynthProfile::default());
    let mut digests = Vec::new();
    for lanes in [1usize, 2, 4] {
        let server = serve(
            server_config(lanes, 64, Some(Arc::clone(&digest))),
            Arc::clone(&registry),
        )
        .expect("bind loopback");
        let start = Instant::now();
        let outcomes = trace::replay(server.addr(), &trace, args.clients).expect("replay");
        let seconds = start.elapsed().as_secs_f64();
        server.shutdown();
        server.join();
        assert!(
            outcomes.iter().all(|o| o.status == 200),
            "every replayed request must succeed"
        );
        let digest_value = outcome_digest(&outcomes);
        println!(
            "serve/trace_replay/lanes{lanes}: {} records in {seconds:.2}s = {:.0} req/s, \
             outcome digest {digest_value:016x}",
            outcomes.len(),
            outcomes.len() as f64 / seconds
        );
        digests.push(digest_value);
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "trace replay outcomes must be bit-identical across lane counts: {digests:x?}"
    );
    println!("cross-lane outcome digests identical: {:016x}", digests[0]);

    // -- Idle keep-alive cost: ~1k parked connections --------------------
    let server = serve(
        server_config(4, 64, Some(Arc::clone(&digest))),
        Arc::clone(&registry),
    )
    .expect("bind loopback");
    let addr = server.addr();
    probe_bit_exact(addr, &flow);
    let (threads_before, rss_before) = proc_threads_and_rss();
    let mut parked: Vec<Connection> = (0..idle_conns)
        .map(|_| Connection::open(addr, Duration::from_secs(30)).expect("idle connection"))
        .collect();
    // Let the poller park them all, then measure.
    std::thread::sleep(Duration::from_millis(500));
    let (threads_after, rss_after) = proc_threads_and_rss();
    let thread_delta = threads_after.saturating_sub(threads_before);
    let rss_delta_kb = rss_after.saturating_sub(rss_before);
    println!(
        "serve/idle_conns: {idle_conns} idle keep-alive connections cost {thread_delta} \
         threads, {rss_delta_kb} kB RSS"
    );
    // The whole point of the multiplexer: idle sockets must not spawn
    // threads (allow a little scheduler slack, never O(connections)).
    assert!(
        thread_delta < 8,
        "{idle_conns} idle connections must cost ~0 threads, measured +{thread_delta}"
    );
    // The parked sockets are still live connections: each still serves.
    for conn in parked.iter_mut().take(5) {
        let response = conn
            .request("POST", "/v1/score", Some("{\"passwords\":[\"jimmy91\"]}"))
            .expect("parked connection revival");
        assert_eq!(response.status, 200);
    }
    drop(parked);
    server.shutdown();
    server.join();
}
