//! The TCP accept loop, router and request handlers.
//!
//! Connections are *multiplexed* (see `crate::conn`): the accept loop
//! registers each socket with the connection multiplexer, a poller thread
//! watches parked keep-alive sockets for readiness, and a bounded pool of
//! [`ServerConfig::handler_threads`] workers serves one request at a time
//! per checkout. Idle connections therefore cost no threads — only an
//! in-flight request does. Each request parses through the
//! [`crate::http`] layer (per-read timeouts, slow-loris read budget,
//! write timeouts) and dispatches:
//!
//! * `POST /v1/score` — single or multi-password strength scoring through
//!   the sharded adaptive micro-batcher,
//! * `POST /v1/logprob` — batch log-probabilities (the request body *is*
//!   the batch, so it goes straight to the model),
//! * `GET /healthz` — liveness plus registered model names and per-lane
//!   batcher health,
//! * `GET /metrics` — text exposition of the serving metrics,
//! * `POST /admin/shutdown` — graceful stop, when enabled in the config.
//!
//! Shutdown (via [`ServerHandle::shutdown`] or the admin endpoint) stops
//! the accept loop, closes sockets parked idle or mid-request-read
//! (nothing fully received is dropped), lets workers flush in-flight
//! responses, drains the batcher lanes, and joins every thread before
//! [`ServerHandle::join`] returns — "clean shutdown" is an assertable
//! property, and CI asserts it.

use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::batcher::{Batcher, BatcherConfig, BatcherHandle, EnqueueError, ScoreJob, ScoreOutcome};
use crate::breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
use crate::conn::{Conn, Mux};
use crate::http::{self, HttpError, ReadOutcome, Request};
use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::registry::{ModelRegistry, ServedModel};
use passflow_store::DigestStore;

/// Maximum passwords in one request body (`/v1/score` and `/v1/logprob`).
/// Larger batches get a clean 413 — client-side batching beyond the
/// server's own micro-batch size buys nothing.
pub const MAX_REQUEST_PASSWORDS: usize = 256;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: SocketAddr,
    /// Batcher tuning (lanes, micro-batch size, straggler wait, per-lane
    /// queue bound).
    pub batcher: BatcherConfig,
    /// Maximum concurrently *registered* connections; excess connections
    /// are answered with 503 and closed instead of piling up sockets.
    /// Unlike the old thread-per-connection bound this does not cap
    /// threads (the handler pool does) — it caps file descriptors.
    pub max_connections: usize,
    /// Request handler pool size: the maximum number of requests being
    /// read/routed/written at once. Idle connections beyond this count
    /// cost no threads — they park in the multiplexer.
    pub handler_threads: usize,
    /// Parked keep-alive sockets idle longer than this are closed; a
    /// well-behaved client simply reconnects.
    pub idle_timeout: Duration,
    /// Per-connection read timeout (a stalled peer cannot pin a handler).
    pub read_timeout: Duration,
    /// Per-connection write timeout (a peer that stops *reading* cannot
    /// pin a handler flushing a large response either).
    pub write_timeout: Duration,
    /// Wall-clock budget for reading one complete request — the slow-loris
    /// bound. Per-read timeouts only limit the gap between bytes; this
    /// limits the total, so a peer dribbling a byte at a time is cut off
    /// with a 408. Idle keep-alive time between requests is not counted.
    pub request_read_budget: Duration,
    /// Default per-request deadline. Clients may *shorten* it per request
    /// with an `X-Passflow-Deadline-Ms` header (never extend); jobs whose
    /// deadline expires before the batcher picks them up answer 504.
    pub default_deadline: Duration,
    /// Circuit-breaker tuning for the digest store (failure threshold and
    /// cooldown before half-open probes).
    pub breaker: BreakerConfig,
    /// Whether `POST /admin/shutdown` is honored (off by default;
    /// `passflow serve` enables it so CI can assert a clean shutdown remotely).
    pub allow_shutdown: bool,
    /// Breach digest store backing `GET /v1/range/{prefix}` and
    /// `POST /v1/screen`; when `None` those endpoints answer 503 so a
    /// misconfigured deployment fails loudly instead of calling every
    /// password clean.
    pub digest: Option<Arc<DigestStore>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("valid literal address"),
            batcher: BatcherConfig::default(),
            max_connections: 2048,
            handler_threads: 64,
            idle_timeout: Duration::from_secs(60),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            request_read_budget: Duration::from_secs(10),
            default_deadline: Duration::from_secs(10),
            breaker: BreakerConfig::default(),
            allow_shutdown: false,
            digest: None,
        }
    }
}

/// Shared server state handed to every handler worker.
struct Shared {
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    batcher: BatcherHandle,
    mux: Arc<Mux>,
    addr: SocketAddr,
    stop: AtomicBool,
    allow_shutdown: bool,
    digest: Option<Arc<DigestStore>>,
    /// Circuit breaker in front of every digest-store read.
    breaker: CircuitBreaker,
    /// Server default for per-request deadlines.
    default_deadline: Duration,
}

impl Shared {
    /// Sets the stop flag and nudges every blocked thread: the multiplexer
    /// closes sockets parked idle or blocked in a request *read* (their
    /// next request has not fully arrived, so nothing is dropped), wakes
    /// the poller and workers, and a dummy connect pokes the accept loop
    /// awake. A worker that has fully read a request keeps its socket and
    /// flushes the response first — including the `/admin/shutdown`
    /// response itself.
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.mux.begin_stop();
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Mirrors the breaker's state into the metrics gauge (0 closed,
    /// 1 open, 2 half-open) after every breaker interaction.
    fn publish_breaker(&self) {
        let state = match self.breaker.state() {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        };
        self.metrics.set_breaker(state, self.breaker.transitions());
    }

    /// One breach lookup through the circuit breaker. `Some(hit)` is a
    /// healthy verdict; `None` means *degraded* — breaker open, or the
    /// read failed (which also feeds the breaker). Never errors: the
    /// caller's promise is "scores always, verdicts when the store is
    /// healthy".
    fn screen_lookup(&self, password: &str) -> Option<Option<u64>> {
        let digest = self.digest.as_ref()?;
        let verdict = match self.breaker.admit() {
            Admission::Reject => None,
            Admission::Allow | Admission::Probe => match digest.contains_password(password) {
                Ok(hit) => {
                    self.breaker.record_success();
                    Some(hit)
                }
                Err(_) => {
                    self.metrics.record_store_fault();
                    self.breaker.record_failure();
                    None
                }
            },
        };
        self.publish_breaker();
        verdict
    }
}

/// A running server: bound address plus shutdown/join controls.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    poll_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    batcher: Option<Batcher>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics sink (shared with `GET /metrics`).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// A handle to the sharded batcher — lane counts, steal counters and
    /// the [`BatcherHandle::kill_lane`] chaos hook for fault-injection
    /// tests.
    pub fn batcher(&self) -> BatcherHandle {
        self.shared.batcher.clone()
    }

    /// Signals the accept loop, poller and workers to stop. Idempotent;
    /// does not wait.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the accept loop, poller, every handler worker and the
    /// batcher to finish. Call [`shutdown`](Self::shutdown) first (or rely
    /// on the admin endpoint); `join` on a live server blocks until
    /// someone does.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.poll_thread.take() {
            let _ = t.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers flushed their in-flight responses before exiting; any
        // connection still registered is parked or queued and gets
        // dropped here. Dropping the batcher drains its lane queues.
        self.shared.mux.drain();
        drop(self.batcher.take());
    }
}

/// Starts the server: binds, spawns the batcher lanes, the connection
/// poller, the handler pool and the accept loop.
///
/// # Errors
///
/// Returns the bind error if the address cannot be bound.
pub fn serve(config: ServerConfig, registry: Arc<ModelRegistry>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(Metrics::with_lanes(config.batcher.lanes));
    let batcher = Batcher::spawn(config.batcher, Arc::clone(&metrics));
    let mux = Arc::new(Mux::new(config.idle_timeout));
    let shared = Arc::new(Shared {
        registry,
        metrics,
        batcher: batcher.handle(),
        mux: Arc::clone(&mux),
        addr,
        stop: AtomicBool::new(false),
        allow_shutdown: config.allow_shutdown,
        digest: config.digest.clone(),
        breaker: CircuitBreaker::new(config.breaker),
        default_deadline: config.default_deadline,
    });

    let accept_shared = Arc::clone(&shared);
    let accept_config = config.clone();
    let accept_thread = std::thread::Builder::new()
        .name("passflow-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_shared, &accept_config))
        .expect("spawning the accept thread");

    let poll_mux = Arc::clone(&mux);
    let poll_thread = std::thread::Builder::new()
        .name("passflow-poll".to_string())
        .spawn(move || poll_mux.poll_loop())
        .expect("spawning the connection poller");

    let workers = (0..config.handler_threads.max(1))
        .map(|i| {
            let worker_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("passflow-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))
                .expect("spawning a handler worker")
        })
        .collect();

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        poll_thread: Some(poll_thread),
        workers,
        batcher: Some(batcher),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, config: &ServerConfig) {
    while !shared.stop.load(Ordering::SeqCst) {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                // Persistent accept errors (fd exhaustion, say) must not
                // busy-spin the core the scoring thread needs.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break; // the wake-up connection itself
        }
        if shared.mux.active_connections() >= config.max_connections {
            let mut writer = BufWriter::new(&stream);
            let _ = respond_error(
                &mut writer,
                &HttpError {
                    status: 503,
                    message: "connection limit reached".to_string(),
                },
            );
            continue;
        }
        let _ = stream.set_read_timeout(Some(config.read_timeout));
        let _ = stream.set_write_timeout(Some(config.write_timeout));
        let _ = stream.set_nodelay(true);
        // Registration parks the socket; the poller dispatches it to a
        // worker on the request's first byte.
        let _ = shared.mux.register(stream, config.request_read_budget);
    }
}

/// One handler worker: check out ready connections until shutdown.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(conn) = shared.mux.next_ready() {
        handle_one(conn, shared);
    }
}

/// Serves exactly one request on a checked-out connection, then returns
/// it to the multiplexer: parked if keep-alive and quiescent, requeued if
/// pipelined bytes are already buffered, dropped otherwise.
fn handle_one(mut conn: Conn, shared: &Arc<Shared>) {
    // Each request gets a fresh read budget; the time a connection spent
    // parked between requests cost nothing.
    conn.reader.rearm();
    let started = Instant::now();
    // While blocked reading, the socket is registered so shutdown can cut
    // the read short instead of waiting out its timeout.
    shared.mux.note_reading(&conn);
    let outcome = http::read_request(&mut conn.reader);
    shared.mux.done_reading(conn.id);
    match outcome {
        ReadOutcome::Closed => shared.mux.discard(conn),
        ReadOutcome::Error(err) => {
            // Protocol errors poison the byte stream: respond, close.
            shared.metrics.record_request("other", err.status);
            let _ = respond_error(&mut conn.writer, &err);
            shared.mux.discard(conn);
        }
        ReadOutcome::Request(request) => {
            if shared.stop.load(Ordering::SeqCst) {
                // Shutdown raced the read; the socket may already be cut.
                shared.mux.discard(conn);
                return;
            }
            let (endpoint, response) = route(&request, shared);
            let keep_alive = request.keep_alive && !shared.stop.load(Ordering::SeqCst);
            shared.metrics.record_request(endpoint, response.status);
            shared.metrics.record_latency(started.elapsed());
            let written = http::write_response(
                &mut conn.writer,
                response.status,
                response.content_type,
                response.body.as_bytes(),
                keep_alive,
            );
            if written.is_err() || !keep_alive {
                shared.mux.discard(conn);
            } else if conn.has_buffered_input() {
                // A pipelined request is already in the userspace buffer
                // where the poller's socket peek could never see it.
                shared.mux.enqueue_ready(conn);
            } else {
                shared.mux.park(conn);
            }
        }
    }
}

/// An application-level response (always a complete body; framing is the
/// connection handler's job).
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, value: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: value.to_string(),
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Self::json(
            status,
            &Json::obj([("error", Json::Str(message.to_string()))]),
        )
    }
}

fn respond_error<W: std::io::Write>(writer: &mut W, err: &HttpError) -> std::io::Result<()> {
    let body = Json::obj([("error", Json::Str(err.message.clone()))]).to_string();
    http::write_response(
        writer,
        err.status,
        "application/json",
        body.as_bytes(),
        false,
    )
}

/// Dispatches one request; returns the metrics endpoint label and response.
fn route(request: &Request, shared: &Arc<Shared>) -> (&'static str, Response) {
    if let Some(prefix) = request.path.strip_prefix("/v1/range/") {
        return if request.method == "GET" {
            ("range", range(prefix, shared))
        } else {
            ("other", Response::error(405, "method not allowed"))
        };
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => ("healthz", healthz(shared)),
        ("GET", "/metrics") => (
            "metrics",
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: shared.metrics.render(),
            },
        ),
        ("GET", "/v1/models") => ("models", models(shared)),
        ("POST", "/v1/score") => ("score", score(request, shared, ScoreMode::Strength)),
        ("POST", "/v1/logprob") => ("logprob", score(request, shared, ScoreMode::LogProb)),
        ("POST", "/v1/screen") => ("screen", screen(request, shared)),
        ("POST", "/admin/shutdown") => ("other", admin_shutdown(shared)),
        (
            _,
            "/healthz" | "/metrics" | "/v1/models" | "/v1/score" | "/v1/logprob" | "/v1/screen"
            | "/admin/shutdown",
        ) => ("other", Response::error(405, "method not allowed")),
        _ => ("other", Response::error(404, "no such endpoint")),
    }
}

/// `GET /healthz` — structured per-component health. Always HTTP 200 (the
/// process is alive and answering; *content* says how well): orchestrators
/// and the CI smoke test key off the JSON, and a degraded-but-serving
/// process must not be restart-looped by a naive probe. Top-level `status`
/// is `"ok"` only when every component is healthy — including every
/// batcher lane.
fn healthz(shared: &Arc<Shared>) -> Response {
    let names = shared.registry.names();
    let registry_ok = !names.is_empty();
    let models = names.into_iter().map(Json::Str).collect();
    let ok_or = |ok: bool, degraded: &str| Json::Str(if ok { "ok" } else { degraded }.to_string());

    // The batcher component is per-lane: a dead lane degrades the server
    // (capacity is reduced) but only losing *every* lane makes it dead.
    let total_lanes = shared.batcher.lanes();
    let alive_lanes = shared.batcher.alive_lanes();
    let lanes: Vec<Json> = (0..total_lanes)
        .map(|lane| {
            Json::obj([
                ("lane", Json::Num(lane as f64)),
                ("status", ok_or(shared.batcher.lane_alive(lane), "dead")),
            ])
        })
        .collect();
    let batcher_ok = alive_lanes == total_lanes;
    let batcher_status = if batcher_ok {
        "ok"
    } else if alive_lanes > 0 {
        "degraded"
    } else {
        "dead"
    };

    let digest_component = match shared.digest.as_ref() {
        None => Json::obj([("status", Json::Str("absent".to_string()))]),
        Some(_) => {
            let state = shared.breaker.state();
            Json::obj([
                ("status", ok_or(state == BreakerState::Closed, "degraded")),
                ("breaker", Json::Str(state.label().to_string())),
            ])
        }
    };
    let digest_ok = shared.digest.is_none() || shared.breaker.state() == BreakerState::Closed;

    let all_ok = registry_ok && batcher_ok && digest_ok;
    Response::json(
        200,
        &Json::obj([
            ("status", ok_or(all_ok, "degraded")),
            ("models", Json::Arr(models)),
            (
                "components",
                Json::obj([
                    (
                        "registry",
                        Json::obj([
                            ("status", ok_or(registry_ok, "empty")),
                            ("models", Json::Num(shared.registry.len() as f64)),
                        ]),
                    ),
                    (
                        "batcher",
                        Json::obj([
                            ("lanes", Json::Arr(lanes)),
                            ("status", Json::Str(batcher_status.to_string())),
                        ]),
                    ),
                    (
                        "connections",
                        Json::obj([
                            ("active", Json::Num(shared.mux.active_connections() as f64)),
                            ("idle", Json::Num(shared.mux.idle_connections() as f64)),
                            ("status", Json::Str("ok".to_string())),
                        ]),
                    ),
                    ("digest_store", digest_component),
                ]),
            ),
        ]),
    )
}

fn admin_shutdown(shared: &Arc<Shared>) -> Response {
    if !shared.allow_shutdown {
        return Response::error(404, "no such endpoint");
    }
    // This connection's request is fully read (it left the reading
    // registry), so shutdown spares its socket and the response below
    // still reaches the caller; stop then forces keep_alive off and the
    // worker drops the connection after flushing.
    shared.begin_shutdown();
    Response::json(
        200,
        &Json::obj([("status", Json::Str("stopping".to_string()))]),
    )
}

/// The parsed, validated body shared by `/v1/score` and `/v1/logprob`.
struct ScoreRequest {
    model: Arc<ServedModel>,
    passwords: Vec<String>,
}

fn parse_score_request(request: &Request, shared: &Arc<Shared>) -> Result<ScoreRequest, Response> {
    if request.body.is_empty() {
        return Err(Response::error(400, "empty request body"));
    }
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| Response::error(400, "request body is not UTF-8"))?;
    let doc = json::parse(text).map_err(|e| Response::error(400, &format!("bad JSON: {e}")))?;
    let model_name = match doc.get("model") {
        None => "default",
        Some(v) => v
            .as_str()
            .ok_or_else(|| Response::error(422, "\"model\" must be a string"))?,
    };
    let passwords_value = doc
        .get("passwords")
        .ok_or_else(|| Response::error(422, "missing \"passwords\" array"))?;
    let items = passwords_value
        .as_arr()
        .ok_or_else(|| Response::error(422, "\"passwords\" must be an array"))?;
    if items.is_empty() {
        return Err(Response::error(422, "\"passwords\" must not be empty"));
    }
    if items.len() > MAX_REQUEST_PASSWORDS {
        return Err(Response::error(
            413,
            &format!("at most {MAX_REQUEST_PASSWORDS} passwords per request"),
        ));
    }
    let mut passwords = Vec::with_capacity(items.len());
    for item in items {
        passwords.push(
            item.as_str()
                .ok_or_else(|| Response::error(422, "passwords must be strings"))?
                .to_string(),
        );
    }
    let model = shared
        .registry
        .get(model_name)
        .ok_or_else(|| Response::error(404, &format!("no model named {model_name:?}")))?;
    Ok(ScoreRequest { model, passwords })
}

/// What a scoring endpoint adds on top of raw log-probabilities.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ScoreMode {
    /// `/v1/score`: log-probs plus guess-number estimates.
    Strength,
    /// `/v1/logprob`: log-probs only.
    LogProb,
    /// `/v1/screen`: log-probs, estimates, *and* breach membership.
    Screen,
}

/// `GET /v1/models` — registered models with their current versions.
fn models(shared: &Arc<Shared>) -> Response {
    let models = shared
        .registry
        .entries()
        .into_iter()
        .map(|(name, version, quantized)| {
            Json::obj([
                ("name", Json::Str(name)),
                ("version", Json::Num(version as f64)),
                ("quantized", Json::Bool(quantized)),
            ])
        })
        .collect();
    Response::json(200, &Json::obj([("models", Json::Arr(models))]))
}

/// `GET /v1/range/{prefix}` — the k-anonymity range endpoint: suffixes (and
/// counts) of every stored digest under a 5-hex-char prefix. The client
/// hashes locally and reveals only 20 bits of the digest.
fn range(prefix: &str, shared: &Arc<Shared>) -> Response {
    let Some(digest) = shared.digest.as_ref() else {
        return Response::error(503, "no digest store is configured");
    };
    if prefix.len() != 5 || !prefix.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Response::error(422, "range prefix must be exactly 5 hex characters");
    }
    // Unlike `/v1/screen`, the range endpoint has nothing useful to serve
    // without the store — its whole payload *is* store data — so partial
    // failure gets an honest 503, through the same breaker.
    if shared.breaker.admit() == Admission::Reject {
        shared.publish_breaker();
        return Response::error(503, "digest store unavailable (circuit open)");
    }
    let outcome = digest.range(prefix);
    match &outcome {
        Ok(_) => shared.breaker.record_success(),
        Err(_) => {
            shared.metrics.record_store_fault();
            shared.breaker.record_failure();
        }
    }
    shared.publish_breaker();
    let entries = match outcome {
        Ok(entries) => entries,
        Err(e) => return Response::error(503, &format!("range query failed: {e}")),
    };
    let suffixes = entries
        .iter()
        .map(|entry| {
            Json::obj([
                ("suffix", Json::Str(entry.suffix.clone())),
                ("count", Json::Num(entry.count as f64)),
            ])
        })
        .collect();
    Response::json(
        200,
        &Json::obj([
            ("prefix", Json::Str(prefix.to_ascii_uppercase())),
            ("suffixes", Json::Arr(suffixes)),
        ]),
    )
}

/// `POST /v1/screen` — strength scoring plus breach membership in one
/// round-trip (the trusted-server variant of range screening).
fn screen(request: &Request, shared: &Arc<Shared>) -> Response {
    if shared.digest.is_none() {
        return Response::error(503, "no digest store is configured");
    }
    score(request, shared, ScoreMode::Screen)
}

/// Resolves one request's scoring deadline: the server default, optionally
/// *shortened* (never extended) by an `X-Passflow-Deadline-Ms` header.
fn request_deadline(request: &Request, shared: &Arc<Shared>) -> Result<Instant, Response> {
    let mut budget = shared.default_deadline;
    if let Some(raw) = request.header("x-passflow-deadline-ms") {
        let ms: u64 = raw
            .parse()
            .map_err(|_| Response::error(400, "malformed X-Passflow-Deadline-Ms header"))?;
        budget = budget.min(Duration::from_millis(ms));
    }
    Ok(Instant::now() + budget)
}

/// Handles `/v1/score`, `/v1/logprob` and the scoring half of `/v1/screen`.
fn score(request: &Request, shared: &Arc<Shared>, mode: ScoreMode) -> Response {
    let parsed = match parse_score_request(request, shared) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let ScoreRequest { model, passwords } = parsed;
    let deadline = match request_deadline(request, shared) {
        Ok(deadline) => deadline,
        Err(response) => return response,
    };
    if deadline <= Instant::now() {
        // A zero (or already-blown) deadline never reaches the batcher.
        shared.metrics.record_deadline_expired();
        return Response::error(504, "request deadline expired");
    }

    let (reply, result) = mpsc::sync_channel(1);
    let job = ScoreJob {
        model: Arc::clone(&model),
        passwords: passwords.clone(),
        deadline,
        reply,
    };
    match shared.batcher.submit(job) {
        Ok(()) => {}
        Err(EnqueueError::Overloaded) => {
            shared.metrics.record_shed();
            return Response::error(503, "scoring queue is full");
        }
        Err(EnqueueError::ShuttingDown) => return Response::error(503, "server is shutting down"),
    }
    let scores = match result.recv() {
        Ok(ScoreOutcome::Scored(scores)) => scores,
        Ok(ScoreOutcome::Expired) => return Response::error(504, "request deadline expired"),
        Err(_) => return Response::error(500, "batcher dropped the request"),
    };

    let with_strength = mode != ScoreMode::LogProb;
    let mut degraded = false;
    let mut results: Vec<Json> = Vec::with_capacity(passwords.len());
    for (password, score) in passwords.iter().zip(scores.iter()) {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        match score {
            // Unencodable passwords score as null; `/v1/screen` still
            // reports their breach status (membership needs no model).
            None if mode != ScoreMode::Screen => {
                results.push(Json::Null);
                continue;
            }
            None => {
                pairs.push(("password".to_string(), Json::Str(password.clone())));
                pairs.push(("log_prob".to_string(), Json::Null));
            }
            Some(lp) => {
                pairs.push(("password".to_string(), Json::Str(password.clone())));
                pairs.push(("log_prob".to_string(), Json::num_or_null(*lp)));
                pairs.push((
                    "log_prob_bits".to_string(),
                    Json::Str(format!("{:016x}", lp.to_bits())),
                ));
                if with_strength {
                    if let Some(est) = model.estimate(*lp) {
                        pairs.push((
                            "log2_guess_number".to_string(),
                            Json::num_or_null(est.log2_guess_number),
                        ));
                        pairs.push((
                            "log2_ci_low".to_string(),
                            Json::num_or_null(est.log2_ci_low),
                        ));
                        pairs.push((
                            "log2_ci_high".to_string(),
                            Json::num_or_null(est.log2_ci_high),
                        ));
                    }
                }
            }
        }
        if mode == ScoreMode::Screen {
            match shared.screen_lookup(password) {
                Some(hit) => {
                    pairs.push(("breached".to_string(), Json::Bool(hit.is_some())));
                    pairs.push((
                        "breach_count".to_string(),
                        Json::Num(hit.unwrap_or(0) as f64),
                    ));
                }
                // Store unavailable or breaker open: degrade to
                // scores-only rather than failing the whole request. The
                // scores above are still bit-exact; only the breach
                // verdict is withheld, and `"breached": null` says so
                // explicitly (a degraded answer must never read as "not
                // breached").
                None => {
                    degraded = true;
                    pairs.push(("breached".to_string(), Json::Null));
                    pairs.push(("degraded".to_string(), Json::Bool(true)));
                }
            }
        }
        results.push(Json::Obj(pairs.into_iter().collect()));
    }

    let mut top: Vec<(&str, Json)> = vec![
        ("model", Json::Str(model.name().to_string())),
        ("version", Json::Num(model.version() as f64)),
        ("results", Json::Arr(results)),
    ];
    if mode == ScoreMode::Screen {
        top.push(("degraded", Json::Bool(degraded)));
    }
    Response::json(200, &Json::obj(top))
}
