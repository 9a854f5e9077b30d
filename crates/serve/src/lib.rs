//! # passflow-serve
//!
//! Online serving for the PassFlow reproduction: a std-only HTTP/1.1
//! service that turns the batch-oriented inference fast path into a
//! request/response API suitable for a credential-screening or
//! strength-meter endpoint.
//!
//! The design has a few load-bearing pieces (DESIGN.md, "Serving
//! architecture" and "Sharded serving"):
//!
//! * the **sharded adaptive micro-batching queue** ([`Batcher`]) — N
//!   independent lanes (`--lanes`), each coalescing concurrent
//!   single-password requests into one fused `FlowSnapshot::log_prob_into`
//!   batch per tick (flush on max-batch or deadline, with a
//!   saturation-driven adaptive wait). Submissions round-robin across
//!   lanes; a full lane's overflow is *stolen* by idle siblings before
//!   anything sheds 503. All lanes share one GEMM thread pool under a
//!   `lanes × threads ≤ host` clamp, and every score stays bit-identical
//!   to serial scoring at any lane count;
//! * the **connection multiplexer** (`conn`, private) — a poller parks
//!   idle keep-alive sockets in non-blocking mode and a bounded handler
//!   pool serves requests, so a thousand idle connections cost ~0 threads;
//! * the **hot-swappable model registry** ([`ModelRegistry`]) — named,
//!   versioned, immutable [`ServedModel`]s behind `RwLock<Arc<...>>`
//!   handles, so freshly trained checkpoints swap in under load with zero
//!   dropped requests and no torn responses;
//! * a **deliberately small HTTP layer** ([`http`]) — `std::net` + threads,
//!   every size limit enforced while reading, adversarial input answered
//!   with precise 4xx statuses (`tests/serve.rs` is the conformance suite);
//! * the **trace-replay loadgen** ([`trace`]) — versioned `PFTRACE v1`
//!   request traces (inter-arrival gaps, heavy-tailed batch sizes,
//!   endpoint mix) that `passflow loadgen` records, synthesizes from a
//!   seed, and replays deterministically against a live server;
//! * an explicit **failure model** (DESIGN.md, "Failure model &
//!   degradation") — per-request deadlines (server default, shortenable
//!   via `X-Passflow-Deadline-Ms`; expired jobs answer 504), a
//!   [`CircuitBreaker`] on the digest store under which `/v1/screen`
//!   degrades to scores-only (`"breached": null, "degraded": true`) while
//!   `/v1/range` answers an honest 503, wall-clock read budgets against
//!   slow-loris peers, and socket write timeouts. `tests/chaos.rs` drives
//!   all of it under seeded fault injection
//!   ([`passflow_store::FaultPlan`]).
//!
//! ## Endpoints
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /v1/score` | password → log-prob + guess-number estimate (CI) |
//! | `POST /v1/logprob` | batch log-probs through any `ProbabilityModel` |
//! | `POST /v1/screen` | strength + breach membership from the digest store |
//! | `GET /v1/range/{prefix5}` | k-anonymity breach range (HIBP-style) |
//! | `GET /v1/models` | registered models with current versions |
//! | `GET /healthz` | per-component health (registry, batcher, store + breaker) |
//! | `GET /metrics` | request counts, batch-size histogram, p50/p99 latency |
//! | `POST /admin/shutdown` | graceful stop (opt-in, for CI smoke tests) |
//!
//! The breach endpoints answer 503 until a [`passflow_store::DigestStore`]
//! is attached via [`ServerConfig::digest`] (`passflow serve --digest`).
//!
//! Run the service from the shell with `cargo run --release -- serve`;
//! its flags are documented in the root crate's `src/cli/serve.rs`.
//!
//! The request/response wire schema is specified in DESIGN.md ("Artifact
//! schemas").
//!
//! ## Quickstart
//!
//! ```rust
//! use std::sync::Arc;
//! use passflow_core::{FlowConfig, PassFlow};
//! use passflow_serve::{serve, ModelRegistry, ServedModel, ServerConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let flow = PassFlow::new(FlowConfig::tiny(), &mut rng)?;
//! let registry = Arc::new(ModelRegistry::new());
//! registry.insert(ServedModel::from_flow("default", &flow, 1, None));
//!
//! let server = serve(ServerConfig::default(), registry)?;
//! let response = passflow_serve::client::request(
//!     server.addr(),
//!     "POST",
//!     "/v1/score",
//!     Some(r#"{"passwords":["jimmy91"]}"#),
//! )?;
//! assert_eq!(response.status, 200);
//! server.shutdown();
//! server.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batcher;
pub mod breaker;
pub mod client;
pub(crate) mod conn;
pub mod http;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod trace;

pub use batcher::{Batcher, BatcherConfig, BatcherHandle, EnqueueError, ScoreJob, ScoreOutcome};
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use json::Json;
pub use metrics::Metrics;
pub use registry::{ModelRegistry, ServedModel};
pub use server::{serve, ServerConfig, ServerHandle, MAX_REQUEST_PASSWORDS};
pub use trace::{Trace, TraceRecord, TraceSynthProfile};
