//! The `passflow-serve` binary: run the scoring service from the shell.
//!
//! ```text
//! passflow-serve [--addr 127.0.0.1:8077] [--checkpoint model.pf]
//!                [--table table.pfs] [--table-samples 2000]
//!                [--digest breach.pfd]
//!                [--max-batch 64] [--max-wait-ms 2]
//!                [--deadline-ms 10000] [--breaker-failures 5]
//!                [--breaker-cooldown-ms 5000]
//!                [--lanes N] [--handlers N] [--threads N] [--quantized]
//! ```
//!
//! Without `--checkpoint` a deterministic demo flow (seed 0, `tiny`
//! config) is served under the name `default` — enough for smoke tests
//! and the CI `serve-smoke` job. A [`SampleTable`] for guess-number
//! estimates is loaded from `--table` or built on startup from
//! `--table-samples` samples.
//!
//! `--lanes` shards the micro-batcher into N independent lanes with work
//! stealing (default 1); `--handlers` sizes the request-handler pool
//! (default 64 — idle keep-alive connections cost no threads either way).
//! `--threads` sets the batcher's GEMM thread count (default: the
//! `PASSFLOW_THREADS` environment variable, else 1; always clamped to the
//! host, and further clamped so `lanes × threads ≤ host`) — scores are
//! bit-identical at any lane or thread count. `--quantized`
//! serves the model through the **int8 quantized tier** (~4× smaller
//! weights, approximate scores); the measured error bound
//! (max |Δ log-prob| over a probe wordlist) is printed at startup so the
//! operator opts in knowingly.
//!
//! The process serves until `POST /admin/shutdown` (always enabled in the
//! binary: a server you cannot stop cleanly is not operable) or until
//! stdin reaches EOF when `--until-stdin-eof` is passed, then drains and
//! exits 0. Internal failures exit non-zero with a message on stderr.

use std::sync::Arc;

use passflow_core::{load_flow, FlowConfig, PassFlow, SampleTable};
use passflow_serve::{
    serve, BatcherConfig, BreakerConfig, ModelRegistry, ServedModel, ServerConfig,
};

struct Args {
    addr: String,
    checkpoint: Option<String>,
    table: Option<String>,
    table_samples: usize,
    digest: Option<String>,
    max_batch: usize,
    max_wait_ms: u64,
    deadline_ms: u64,
    breaker_failures: u32,
    breaker_cooldown_ms: u64,
    until_stdin_eof: bool,
    lanes: usize,
    handlers: Option<usize>,
    threads: Option<usize>,
    quantized: bool,
}

fn parse_args() -> Result<Args, String> {
    let defaults = (ServerConfig::default(), BreakerConfig::default());
    let mut args = Args {
        addr: "127.0.0.1:8077".to_string(),
        checkpoint: None,
        table: None,
        table_samples: 2_000,
        digest: None,
        max_batch: 64,
        max_wait_ms: 2,
        deadline_ms: defaults.0.default_deadline.as_millis() as u64,
        breaker_failures: defaults.1.failure_threshold,
        breaker_cooldown_ms: defaults.1.cooldown.as_millis() as u64,
        until_stdin_eof: false,
        lanes: 1,
        handlers: None,
        threads: None,
        quantized: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
            "--table" => args.table = Some(value("--table")?),
            "--digest" => args.digest = Some(value("--digest")?),
            "--table-samples" => {
                args.table_samples = value("--table-samples")?
                    .parse()
                    .map_err(|_| "--table-samples must be a number".to_string())?;
            }
            "--max-batch" => {
                args.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|_| "--max-batch must be a number".to_string())?;
            }
            "--max-wait-ms" => {
                args.max_wait_ms = value("--max-wait-ms")?
                    .parse()
                    .map_err(|_| "--max-wait-ms must be a number".to_string())?;
            }
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms must be a number".to_string())?;
            }
            "--breaker-failures" => {
                args.breaker_failures = value("--breaker-failures")?
                    .parse()
                    .map_err(|_| "--breaker-failures must be a number".to_string())?;
            }
            "--breaker-cooldown-ms" => {
                args.breaker_cooldown_ms = value("--breaker-cooldown-ms")?
                    .parse()
                    .map_err(|_| "--breaker-cooldown-ms must be a number".to_string())?;
            }
            "--lanes" => {
                args.lanes = value("--lanes")?
                    .parse()
                    .map_err(|_| "--lanes must be a number".to_string())?;
                if args.lanes == 0 {
                    return Err("--lanes must be at least 1".to_string());
                }
            }
            "--handlers" => {
                args.handlers = Some(
                    value("--handlers")?
                        .parse()
                        .map_err(|_| "--handlers must be a number".to_string())?,
                );
            }
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|_| "--threads must be a number".to_string())?,
                );
            }
            "--quantized" => args.quantized = true,
            "--until-stdin-eof" => args.until_stdin_eof = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    let flow: PassFlow = match &args.checkpoint {
        Some(path) => load_flow(path).map_err(|e| format!("loading {path:?}: {e}"))?,
        None => {
            let mut rng = passflow_nn_seeded(0);
            PassFlow::new(FlowConfig::tiny(), &mut rng)
                .map_err(|e| format!("building the demo flow: {e}"))?
        }
    };
    let table = match &args.table {
        Some(path) => Some(SampleTable::load(path).map_err(|e| format!("loading {path:?}: {e}"))?),
        None if args.table_samples > 0 => {
            eprintln!(
                "building a {}-sample strength table (pass --table-samples 0 to skip)…",
                args.table_samples
            );
            Some(SampleTable::build(&flow, args.table_samples, 7))
        }
        None => None,
    };

    let registry = Arc::new(ModelRegistry::new());
    if args.quantized {
        // Measure and surface the model's quantization error before
        // serving approximate scores — the opt-in must be informed.
        let exact = passflow_core::FlowScorer::new(&flow);
        let quantized = passflow_core::QuantizedScorer::from_scorer(&exact);
        let probe: Vec<String> = (0..512).map(|i| format!("probe{i}")).collect();
        let report = passflow_core::probe_quantization(&exact, &quantized, &probe);
        eprintln!(
            "quantized tier: max |Δ log-prob| {:.6}, mean {:.6} over {} probes; \
             weights {:.2}× smaller ({} → {} bytes)",
            report.max_abs_delta,
            report.mean_abs_delta,
            report.samples,
            report.compression(),
            report.exact_bytes,
            report.quantized_bytes
        );
        registry.insert(ServedModel::from_flow_quantized("default", &flow, 1, table));
    } else {
        registry.insert(ServedModel::from_flow("default", &flow, 1, table));
    }

    let digest = match &args.digest {
        Some(path) => Some(Arc::new(
            passflow_store::DigestStore::open(path)
                .map_err(|e| format!("loading {path:?}: {e}"))?,
        )),
        None => None,
    };
    if let Some(store) = &digest {
        eprintln!(
            "breach digest loaded: {} records in {} blocks ({} bytes)",
            store.record_count(),
            store.block_count(),
            store.file_len()
        );
    }

    let config = ServerConfig {
        addr: args
            .addr
            .parse()
            .map_err(|e| format!("bad --addr {:?}: {e}", args.addr))?,
        batcher: BatcherConfig {
            lanes: args.lanes,
            max_batch: args.max_batch,
            max_wait: std::time::Duration::from_millis(args.max_wait_ms),
            threads: passflow_nn::resolve_threads(args.threads),
            ..BatcherConfig::default()
        },
        handler_threads: args
            .handlers
            .unwrap_or(ServerConfig::default().handler_threads)
            .max(1),
        default_deadline: std::time::Duration::from_millis(args.deadline_ms),
        breaker: BreakerConfig {
            failure_threshold: args.breaker_failures.max(1),
            cooldown: std::time::Duration::from_millis(args.breaker_cooldown_ms),
        },
        allow_shutdown: true,
        digest,
        ..ServerConfig::default()
    };
    let server = serve(config, registry).map_err(|e| format!("bind failed: {e}"))?;
    eprintln!(
        "serving on http://{} with {} batcher lane(s) (POST /v1/score, \
         POST /v1/logprob, POST /v1/screen, GET /v1/range/{{prefix5}}, \
         GET /v1/models, GET /healthz, GET /metrics; \
         stop with POST /admin/shutdown)",
        server.addr(),
        args.lanes
    );

    if args.until_stdin_eof {
        // Also stop when our parent closes stdin (CI-friendly lifecycle).
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut std::io::stdin(), &mut sink);
        server.shutdown();
    }
    server.join();
    eprintln!("shutdown complete");
    Ok(())
}

/// Seeded RNG without pulling `rand` trait imports into scope at the top.
fn passflow_nn_seeded(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn main() {
    if let Err(message) = run() {
        eprintln!("passflow-serve: {message}");
        std::process::exit(1);
    }
}
