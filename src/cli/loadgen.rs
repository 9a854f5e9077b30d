//! `passflow loadgen`: `PFTRACE` workload traces for the serving subsystem.
//!
//! Starts a server in-process on an ephemeral loopback port (except for
//! `synth`, which only writes a file) and works in one of three modes:
//!
//! * **synth** — synthesizes a seeded `PFTRACE v1` workload trace
//!   (heavy-tailed batch sizes, bursty arrivals, score/logprob/screen
//!   endpoint mix) and writes it to `--trace`.
//! * **record** — runs a live workload and *records* it: each request's
//!   measured inter-arrival gap, endpoint and password seed go into a
//!   `PFTRACE v1` file that `replay` reproduces byte-for-byte.
//! * **replay** — loads `--trace` (or synthesizes from `--seed`), replays
//!   it against an in-process server at `--lanes`, honoring recorded
//!   inter-arrival gaps, and prints throughput plus a digest of every
//!   response's exact score bits. Two replays of one trace at different
//!   lane counts print the same `outcome_digest=`.
//!
//! The rule that batched serving is at least 3× serial is a release-build
//! test, `batched_serving_is_at_least_3x_serial` in `tests/serve.rs`.
//!
//! ```text
//! passflow loadgen --mode synth|record|replay
//!                  [--trace PATH] [--seed N] [--count N] [--clients N] [--lanes N]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use passflow_core::{FlowConfig, PassFlow, SampleTable};
use passflow_serve::client::Connection;
use passflow_serve::trace::{self, Trace, TraceRecord, TraceSynthProfile};
use passflow_serve::{serve, BatcherConfig, ModelRegistry, ServedModel, ServerConfig};
use passflow_store::format::{fnv1a, FNV_SEED};
use passflow_store::{DigestConfig, DigestStore, DigestStoreBuilder};

use super::args::Flags;

fn build_registry() -> Arc<ModelRegistry> {
    // A production-shaped architecture (18 coupling layers × hidden 128 —
    // the paper's depth at half its width): a model whose per-password
    // scoring cost dominates HTTP/syscall overhead, which is the regime
    // the micro-batcher exists for. Untrained weights score exactly like
    // trained ones.
    let mut rng = passflow_nn::rng::seeded(11);
    let flow =
        PassFlow::new(FlowConfig::paper().with_hidden_size(128), &mut rng).expect("valid config");
    let table = SampleTable::build(&flow, 2_000, 7);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(ServedModel::from_flow("default", &flow, 1, Some(table)));
    registry
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

/// Starts the in-process server: `lanes` batcher lanes of up to 64 rows
/// per tick, with the digest fixture behind `/v1/screen`.
fn start_server(lanes: usize) -> passflow_serve::ServerHandle {
    let config = ServerConfig {
        batcher: BatcherConfig {
            lanes,
            max_batch: 64,
            max_wait: Duration::from_millis(2),
            queue_capacity: 1024,
            ..BatcherConfig::default()
        },
        digest: Some(digest_fixture()),
        ..ServerConfig::default()
    };
    serve(config, build_registry()).expect("bind loopback")
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
        &[],
    )?;
    flags.no_positional()?;
    let args = Args {
        trace: flags
            .value("--trace")
            .unwrap_or("trace.pftrace")
            .to_string(),
        seed: flags.parsed("--seed")?.unwrap_or(42),
        count: flags.parsed("--count")?,
        clients: flags.parsed("--clients")?.unwrap_or(16),
        lanes: flags.parsed("--lanes")?.unwrap_or(1),
    };
    match flags.value("--mode") {
        Some("synth") => run_synth(&args),
        Some("record") => run_record(&args),
        Some("replay") => run_replay(&args),
        Some(other) => {
            return Err(format!(
                "--mode: invalid value {other:?} (synth|record|replay)"
            ))
        }
        None => return Err("missing --mode (synth|record|replay)".to_string()),
    }
    Ok(())
}

/// `--mode synth`: write a seeded synthetic trace.
fn run_synth(args: &Args) {
    let count = args.count.unwrap_or(2_000);
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
    let count = args.count.unwrap_or(1_000);
    let server = start_server(args.lanes);
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
        let count = args.count.unwrap_or(1_000);
        println!(
            "{} not found; synthesizing {count} records from seed {}",
            args.trace, args.seed
        );
        Trace::synth(args.seed, count, &TraceSynthProfile::default())
    };
    let server = start_server(args.lanes);

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
