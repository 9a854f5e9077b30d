//! `passflow serve`: run the scoring service from the shell.
//!
//! ```text
//! passflow serve [--addr 127.0.0.1:8077] [--checkpoint model.pf]
//!                [--table table.pfs] [--table-samples 2000]
//!                [--digest breach.pfd]
//!                [--max-batch 64] [--max-wait-ms 2]
//!                [--deadline-ms 10000] [--breaker-failures 5]
//!                [--breaker-cooldown-ms 5000]
//!                [--lanes N] [--handlers N] [--threads N] [--quantized]
//!                [--until-stdin-eof]
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
//! The process serves until `POST /admin/shutdown` (always enabled here:
//! a server you cannot stop cleanly is not operable) or until stdin
//! reaches EOF when `--until-stdin-eof` is passed, then drains and exits
//! 0. Internal failures exit non-zero with a message on stderr.

use std::sync::Arc;
use std::time::Duration;

use passflow_core::{load_flow, FlowConfig, PassFlow, SampleTable};
use passflow_serve::{
    serve, BatcherConfig, BreakerConfig, ModelRegistry, ServedModel, ServerConfig,
};

use super::args::Flags;

/// Runs `passflow serve`.
pub fn run(args: Vec<String>) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "--addr",
            "--checkpoint",
            "--table",
            "--table-samples",
            "--digest",
            "--max-batch",
            "--max-wait-ms",
            "--deadline-ms",
            "--breaker-failures",
            "--breaker-cooldown-ms",
            "--lanes",
            "--handlers",
            "--threads",
        ],
        &["--quantized", "--until-stdin-eof"],
    )?;
    flags.no_positional()?;
    let defaults = ServerConfig::default();
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:8077");
    let addr = addr
        .parse()
        .map_err(|e| format!("--addr: invalid value {addr:?}: {e}"))?;
    let table_samples = flags.parsed("--table-samples")?.unwrap_or(2_000);
    let lanes = flags.parsed("--lanes")?.unwrap_or(1);
    if lanes == 0 {
        return Err("--lanes must be at least 1".to_string());
    }
    let millis = |flag: &str, default: Duration| -> Result<Duration, String> {
        Ok(flags.parsed(flag)?.map_or(default, Duration::from_millis))
    };
    let config = ServerConfig {
        addr,
        batcher: BatcherConfig {
            lanes,
            max_batch: flags.parsed("--max-batch")?.unwrap_or(64),
            max_wait: millis("--max-wait-ms", Duration::from_millis(2))?,
            threads: passflow_nn::resolve_threads(flags.parsed("--threads")?),
            ..BatcherConfig::default()
        },
        handler_threads: flags
            .parsed("--handlers")?
            .unwrap_or(defaults.handler_threads)
            .max(1),
        default_deadline: millis("--deadline-ms", defaults.default_deadline)?,
        breaker: BreakerConfig {
            failure_threshold: flags
                .parsed("--breaker-failures")?
                .unwrap_or(BreakerConfig::default().failure_threshold)
                .max(1),
            cooldown: millis("--breaker-cooldown-ms", BreakerConfig::default().cooldown)?,
        },
        allow_shutdown: true,
        ..defaults
    };

    let flow: PassFlow = match flags.value("--checkpoint") {
        Some(path) => load_flow(path).map_err(|e| format!("loading {path:?}: {e}"))?,
        None => PassFlow::new(FlowConfig::tiny(), &mut passflow_nn::rng::seeded(0))
            .map_err(|e| format!("building the demo flow: {e}"))?,
    };
    let table = match flags.value("--table") {
        Some(path) => Some(SampleTable::load(path).map_err(|e| format!("loading {path:?}: {e}"))?),
        None if table_samples > 0 => {
            eprintln!(
                "building a {table_samples}-sample strength table (pass --table-samples 0 to skip)…"
            );
            Some(SampleTable::build(&flow, table_samples, 7))
        }
        None => None,
    };

    let registry = Arc::new(ModelRegistry::new());
    if flags.switch("--quantized") {
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

    let digest = match flags.value("--digest") {
        Some(path) => {
            let store = passflow_store::DigestStore::open(path)
                .map_err(|e| format!("loading {path:?}: {e}"))?;
            eprintln!(
                "breach digest loaded: {} records in {} blocks ({} bytes)",
                store.record_count(),
                store.block_count(),
                store.file_len()
            );
            Some(Arc::new(store))
        }
        None => None,
    };

    let server = serve(ServerConfig { digest, ..config }, registry)
        .map_err(|e| format!("bind failed: {e}"))?;
    eprintln!(
        "serving on http://{} with {lanes} batcher lane(s) (POST /v1/score, \
         POST /v1/logprob, POST /v1/screen, GET /v1/range/{{prefix5}}, \
         GET /v1/models, GET /healthz, GET /metrics; \
         stop with POST /admin/shutdown)",
        server.addr(),
    );

    if flags.switch("--until-stdin-eof") {
        // Also stop when our parent closes stdin (CI-friendly lifecycle).
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut std::io::stdin(), &mut sink);
        server.shutdown();
    }
    server.join();
    eprintln!("shutdown complete");
    Ok(())
}
