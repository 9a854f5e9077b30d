//! Chaos suite: the serving stack under injected store faults, expired
//! deadlines, hostile clients, queue saturation, killed batcher lanes and
//! idle-connection floods.
//!
//! Every test drives a **live server** (real sockets, real threads) while
//! one failure domain misbehaves, and holds the same bar throughout:
//! zero panics, every connection gets a well-formed HTTP response or a
//! clean close, scores stay bit-exact, and the system *recovers* once the
//! faults stop. Store faults come from [`FaultyIo`] with a fixed seed, so
//! the single-threaded phases see the exact same fault stream on every
//! run — failures here are bugs, not weather.

use std::io::Write as _;
use std::net::Shutdown;
use std::path::PathBuf;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

use passflow::serve::client::{self, ClientResponse, Connection};
use passflow::serve::{
    serve, BatcherConfig, BreakerConfig, ModelRegistry, ServedModel, ServerConfig, ServerHandle,
};
use passflow::store::{DigestStore, FaultInjector, FaultPlan, FaultyIo, FileIo};
use passflow::{DigestConfig, DigestStoreBuilder, FlowConfig, PassFlow, ProbabilityModel};

fn tiny_flow(seed: u64) -> PassFlow {
    let mut rng = passflow::nn::rng::seeded(seed);
    PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap()
}

/// The idle-flood test reads the process-wide thread count, so no other
/// test in this binary may start or stop threads while it runs: it holds
/// this lock exclusively, every other test holds it shared.
static THREAD_COUNT: RwLock<()> = RwLock::new(());

fn chaos_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn start_server(config: ServerConfig, seed: u64) -> (ServerHandle, PassFlow) {
    let flow = tiny_flow(seed);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(ServedModel::from_flow("default", &flow, 1, None));
    let server = serve(config, registry).expect("bind on loopback");
    (server, flow)
}

/// Builds a digest artifact from `passwords` and opens it through a
/// fault-injecting io. The artifact is opened *quietly* (header and index
/// reads are not faulted — open-failure paths are the corruption tests'
/// job), then the plan is armed for every read the server makes.
fn faulty_digest(
    tag: &str,
    passwords: &[String],
    plan: FaultPlan,
) -> (Arc<DigestStore>, Arc<FaultInjector>, PathBuf) {
    let path = std::env::temp_dir().join(format!("pfchaos-{tag}-{}.pfd", std::process::id()));
    let mut builder = DigestStoreBuilder::new(DigestConfig::default());
    for pw in passwords {
        builder.add_password(pw).unwrap();
    }
    builder.finish(&path).unwrap();
    let io = FaultyIo::new(Box::new(FileIo::open(&path).unwrap()), plan);
    let injector = io.injector();
    injector.set_active(false);
    let store = DigestStore::open_with_io(&path, Box::new(io)).unwrap();
    injector.set_active(true);
    (Arc::new(store), injector, path)
}

/// One request with extra headers, written raw (the client helper has no
/// header support — deadlines ride on `X-Passflow-Deadline-Ms`).
fn raw_request(
    conn: &mut Connection,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> ClientResponse {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: loopback\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str("\r\n");
    raw.push_str(body);
    conn.stream().write_all(raw.as_bytes()).unwrap();
    conn.stream().flush().unwrap();
    conn.read_response().unwrap()
}

/// The `"breached"` token for one password in a screen response: `"true"`,
/// `"false"` or `"null"` (keys sort, so the verdict precedes `"password"`).
fn breached_token(text: &str, pw: &str) -> String {
    let before = text
        .split(&format!("\"password\":\"{pw}\""))
        .next()
        .unwrap_or_else(|| panic!("{pw} missing from {text}"));
    before
        .rsplit("\"breached\":")
        .next()
        .unwrap()
        .split([',', '}'])
        .next()
        .unwrap()
        .to_string()
}

fn screen_one(addr: std::net::SocketAddr, pw: &str) -> ClientResponse {
    let body = format!("{{\"passwords\":[\"{pw}\"]}}");
    client::request(addr, "POST", "/v1/screen", Some(&body)).unwrap()
}

// ---------------------------------------------------------------------------
// Store faults: transient noise is absorbed, outages degrade and recover
// ---------------------------------------------------------------------------

#[test]
fn screen_verdicts_stay_exact_under_transient_store_faults() {
    let _shared = THREAD_COUNT.read().unwrap_or_else(PoisonError::into_inner);
    // ~35% of reads misbehave: short reads, EINTR and bounded transients,
    // each also stalling briefly. The retry discipline must absorb all of
    // it — every verdict stays exactly what a clean store serves.
    let breached: Vec<String> = (0..2_000).map(|i| format!("breached-{i}")).collect();
    let plan = FaultPlan {
        seed: 0xC0FFEE,
        short_read_per_mille: 150,
        interrupt_per_mille: 120,
        transient_per_mille: 80,
        latency: Duration::from_micros(200),
    };
    let (digest, injector, path) = faulty_digest("transient", &breached, plan);
    let oracle = DigestStore::open(&path).unwrap();
    let (server, _flow) = start_server(
        ServerConfig {
            digest: Some(digest),
            ..chaos_config()
        },
        60,
    );
    let addr = server.addr();

    // A single-threaded probe sequence (fault stream stays deterministic):
    // breached and clean passwords interleaved.
    for i in 0..24 {
        let pw = if i % 3 == 2 {
            format!("clean-{i}")
        } else {
            format!("breached-{}", i * 77)
        };
        let response = screen_one(addr, &pw);
        assert_eq!(response.status, 200, "{}", response.text());
        let text = response.text();
        assert!(
            text.contains("\"degraded\":false"),
            "fault noise must not degrade: {text}"
        );
        let expected = oracle.contains_password(&pw).unwrap().is_some();
        assert_eq!(
            breached_token(&text, &pw),
            expected.to_string(),
            "{pw}: verdict drifted under faults"
        );
    }
    assert!(
        injector.injected_faults() > 0,
        "the plan must actually have fired ({} reads)",
        injector.reads()
    );

    // The breaker never tripped: the store is healthy, just noisy.
    let health = client::request(addr, "GET", "/healthz", None)
        .unwrap()
        .text();
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert_eq!(server.metrics().store_faults_total(), 0, "retries absorbed");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_file(path);
}

#[test]
fn outage_opens_the_breaker_degrades_screen_and_recovers() {
    let _shared = THREAD_COUNT.read().unwrap_or_else(PoisonError::into_inner);
    let breached: Vec<String> = (0..500).map(|i| format!("breached-{i}")).collect();
    let (digest, injector, path) = faulty_digest("outage", &breached, FaultPlan::quiet(1));
    let cooldown = Duration::from_millis(400);
    let (server, flow) = start_server(
        ServerConfig {
            digest: Some(digest),
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown,
            },
            ..chaos_config()
        },
        61,
    );
    let addr = server.addr();
    let probe = "breached-7";
    let probe_bits = flow.password_log_prob(probe).unwrap().to_bits();

    // Healthy baseline.
    let text = screen_one(addr, probe).text();
    assert_eq!(breached_token(&text, probe), "true", "{text}");
    assert!(text.contains("\"degraded\":false"), "{text}");

    // The store dies. Every screen still answers 200 with bit-exact
    // scores; only the verdict is withheld, and explicitly so.
    injector.set_outage(true);
    for _ in 0..3 {
        let response = screen_one(addr, probe);
        assert_eq!(response.status, 200, "{}", response.text());
        let text = response.text();
        assert_eq!(
            breached_token(&text, probe),
            "null",
            "degraded must not claim a verdict: {text}"
        );
        assert!(text.contains("\"degraded\":true"), "{text}");
        assert!(
            text.contains(&format!("\"log_prob_bits\":\"{probe_bits:016x}\"")),
            "scores must stay exact while degraded: {text}"
        );
    }

    // Three consecutive failures tripped the breaker: healthz says so,
    // range (which has nothing to serve without the store) is an honest
    // 503, and — the point of a breaker — reads *stop* while it is open.
    let health = client::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200, "liveness is not the same as health");
    let health = health.text();
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(health.contains("\"breaker\":\"open\""), "{health}");
    let range = client::request(addr, "GET", "/v1/range/CBFDA", None).unwrap();
    assert_eq!(range.status, 503, "{}", range.text());

    let reads_while_open = injector.reads();
    for _ in 0..2 {
        let text = screen_one(addr, probe).text();
        assert_eq!(breached_token(&text, probe), "null", "{text}");
    }
    assert_eq!(
        injector.reads(),
        reads_while_open,
        "an open breaker must not touch the dead store"
    );

    // The disk comes back; after the cooldown one half-open probe heals
    // the breaker and full service resumes.
    injector.set_outage(false);
    std::thread::sleep(cooldown + Duration::from_millis(150));
    let text = screen_one(addr, probe).text();
    assert_eq!(breached_token(&text, probe), "true", "recovered: {text}");
    assert!(text.contains("\"degraded\":false"), "{text}");
    let health = client::request(addr, "GET", "/healthz", None)
        .unwrap()
        .text();
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"breaker\":\"closed\""), "{health}");
    let range = client::request(addr, "GET", "/v1/range/CBFDA", None).unwrap();
    assert_eq!(range.status, 200, "{}", range.text());

    // The whole episode is visible in the metrics.
    assert!(server.metrics().store_faults_total() >= 3);
    let metrics = client::request(addr, "GET", "/metrics", None)
        .unwrap()
        .text();
    assert!(metrics.contains("passflow_breaker_state 0"), "{metrics}");
    assert!(metrics.contains("passflow_store_faults_total"), "{metrics}");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_file(path);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

#[test]
fn expired_deadlines_answer_504_not_stale_work() {
    let _shared = THREAD_COUNT.read().unwrap_or_else(PoisonError::into_inner);
    // A long straggler window so a short-deadline job can expire *inside*
    // a tick, not just before submission.
    let (server, _flow) = start_server(
        ServerConfig {
            batcher: BatcherConfig {
                max_batch: 64,
                max_wait: Duration::from_millis(250),
                ..BatcherConfig::default()
            },
            ..chaos_config()
        },
        62,
    );
    let addr = server.addr();
    let body = r#"{"passwords":["jimmy91"]}"#;

    // An already-blown deadline never reaches the batcher.
    let mut conn = Connection::open(addr, Duration::from_secs(5)).unwrap();
    let response = raw_request(
        &mut conn,
        "POST",
        "/v1/score",
        &[("x-passflow-deadline-ms", "0")],
        body,
    );
    assert_eq!(response.status, 504, "{}", response.text());

    // A request whose deadline expires while it waits for the tick gets a
    // 504 at drain time; the patient request sharing the tick still
    // scores. (Whichever of the two opens the tick, the outcome is the
    // same — the short deadline expires well inside the 250ms window.)
    let patient = std::thread::spawn(move || {
        client::request(
            addr,
            "POST",
            "/v1/score",
            Some(r#"{"passwords":["alpha"]}"#),
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(80));
    let response = raw_request(
        &mut conn,
        "POST",
        "/v1/score",
        &[("x-passflow-deadline-ms", "50")],
        body,
    );
    assert_eq!(response.status, 504, "{}", response.text());
    let patient = patient.join().unwrap();
    assert_eq!(patient.status, 200, "{}", patient.text());
    assert_eq!(server.metrics().deadline_expired_total(), 2);

    // Header validation: garbage is a 400; a huge value cannot extend the
    // server default (it still answers normally, just under the default).
    let response = raw_request(
        &mut conn,
        "POST",
        "/v1/score",
        &[("x-passflow-deadline-ms", "soon")],
        body,
    );
    assert_eq!(response.status, 400, "{}", response.text());
    let response = raw_request(
        &mut conn,
        "POST",
        "/v1/score",
        &[("x-passflow-deadline-ms", "3600000")],
        body,
    );
    assert_eq!(response.status, 200, "{}", response.text());

    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Hostile clients: slow-loris and mid-body disconnects
// ---------------------------------------------------------------------------

#[test]
fn slow_loris_and_torn_bodies_cannot_pin_a_handler() {
    let _shared = THREAD_COUNT.read().unwrap_or_else(PoisonError::into_inner);
    let (server, flow) = start_server(
        ServerConfig {
            request_read_budget: Duration::from_millis(200),
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
        63,
    );
    let addr = server.addr();

    // Slow loris: one byte every 25ms never finishes a request line. The
    // read budget cuts the peer off at 200ms — a 408 if the dribble pauses
    // in time to read it, or a reset once the server has hung up (writing
    // into a closed socket races the buffered response away). Either way
    // the handler is freed; what this test must never see is a hang.
    let mut loris = Connection::open(addr, Duration::from_secs(5)).unwrap();
    let until = Instant::now() + Duration::from_millis(400);
    while Instant::now() < until {
        if loris
            .stream()
            .write_all(b"G")
            .and_then(|_| loris.stream().flush())
            .is_err()
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    // (An Err here means the reset beat us to the buffered 408 — the
    // connection was freed either way, which is the property under test.)
    if let Ok(response) = loris.read_response() {
        assert_eq!(response.status, 408, "{}", response.text());
    }

    // Mid-body disconnect, politely (write side closed): the truncated
    // body is a clean 400 we can still read over our live read half.
    let mut torn = Connection::open(addr, Duration::from_secs(5)).unwrap();
    torn.stream()
        .write_all(b"POST /v1/score HTTP/1.1\r\ncontent-length: 64\r\n\r\n{\"passwords\"")
        .unwrap();
    torn.stream().shutdown(Shutdown::Write).unwrap();
    let response = torn.read_response().unwrap();
    assert_eq!(response.status, 400, "{}", response.text());

    // Mid-body disconnect, rudely (socket dropped outright).
    {
        let mut rude = Connection::open(addr, Duration::from_secs(5)).unwrap();
        let _ = rude
            .stream()
            .write_all(b"POST /v1/score HTTP/1.1\r\ncontent-length: 64\r\n\r\n{\"pass");
    }

    // The server took all of that without leaking a handler: a fresh
    // connection still gets healthy, bit-exact service.
    let health = client::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert!(
        health.text().contains("\"status\":\"ok\""),
        "{}",
        health.text()
    );
    let response = client::request(
        addr,
        "POST",
        "/v1/score",
        Some(r#"{"passwords":["jimmy91"]}"#),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    let expected = flow.password_log_prob("jimmy91").unwrap().to_bits();
    assert!(
        response
            .text()
            .contains(&format!("\"log_prob_bits\":\"{expected:016x}\"")),
        "{}",
        response.text()
    );

    server.shutdown();
    server.join();
}

/// Rude drops against the *multiplexed* reader: connections that complete
/// a request, park in the poller, then vanish without a close handshake
/// must be reaped — no thread leak, no stuck `/healthz` connection count.
#[test]
fn parked_connections_that_vanish_are_reaped() {
    let _shared = THREAD_COUNT.read().unwrap_or_else(PoisonError::into_inner);
    let (server, _flow) = start_server(
        ServerConfig {
            idle_timeout: Duration::from_secs(60),
            ..chaos_config()
        },
        65,
    );
    let addr = server.addr();

    // 20 connections each serve one request (so they are parked, not
    // mid-read), then drop rudely.
    for i in 0..20 {
        let mut conn = Connection::open(addr, Duration::from_secs(5)).unwrap();
        let body = format!("{{\"passwords\":[\"van{i}\"]}}");
        let response = conn.request("POST", "/v1/score", Some(&body)).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        drop(conn); // no graceful goodbye
    }

    // The poller's peek sweep sees EOF on each and unregisters it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut active = usize::MAX;
    // ≤ 2: the healthz probe itself plus at most one not-yet-reaped
    // predecessor probe.
    while active > 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
        let health = client::request(addr, "GET", "/healthz", None)
            .unwrap()
            .text();
        // `"active":N` inside the connections component — N includes the
        // probe connection itself.
        active = health
            .split("\"connections\":{\"active\":")
            .nth(1)
            .and_then(|rest| {
                rest.chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .ok()
            })
            .unwrap_or(usize::MAX);
    }
    assert!(
        active <= 2,
        "vanished parked connections must be reaped (still {active} active)"
    );

    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Saturation: load beyond the queue sheds cleanly and recovers
// ---------------------------------------------------------------------------

#[test]
fn saturated_batcher_sheds_503_and_serves_on() {
    let _shared = THREAD_COUNT.read().unwrap_or_else(PoisonError::into_inner);
    // A one-slot queue behind a 40ms straggler window: concurrent clients
    // *will* find it full. Shedding must be a clean 503 per request — not
    // a hang, not a tear — and service must be exact afterwards.
    let (server, flow) = start_server(
        ServerConfig {
            batcher: BatcherConfig {
                max_batch: 64,
                max_wait: Duration::from_millis(40),
                queue_capacity: 1,
                ..BatcherConfig::default()
            },
            max_connections: 64,
            ..chaos_config()
        },
        64,
    );
    let addr = server.addr();

    let clients: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let body = format!("{{\"passwords\":[\"pw{t}\"]}}");
                let (mut ok, mut shed) = (0u64, 0u64);
                for _ in 0..25 {
                    let response = client::request(addr, "POST", "/v1/score", Some(&body)).unwrap();
                    match response.status {
                        200 => {
                            assert!(response.text().contains("\"results\":"), "torn 200");
                            ok += 1;
                        }
                        503 => {
                            assert!(response.text().contains("\"error\":"), "torn 503");
                            shed += 1;
                        }
                        other => panic!("unexpected status {other}: {}", response.text()),
                    }
                }
                (ok, shed)
            })
        })
        .collect();

    let (mut total_ok, mut total_shed) = (0u64, 0u64);
    for thread in clients {
        let (ok, shed) = thread.join().expect("no client may panic");
        total_ok += ok;
        total_shed += shed;
    }
    assert_eq!(total_ok + total_shed, 8 * 25, "every request got an answer");
    assert!(total_ok > 0, "some requests must get through");
    assert!(total_shed > 0, "a one-slot queue under 8 clients must shed");
    assert!(server.metrics().shed_total() >= total_shed);

    // Pressure off: healthy and bit-exact again.
    let health = client::request(addr, "GET", "/healthz", None)
        .unwrap()
        .text();
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    let response = client::request(
        addr,
        "POST",
        "/v1/score",
        Some(r#"{"passwords":["dragon"]}"#),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    let expected = flow.password_log_prob("dragon").unwrap().to_bits();
    assert!(
        response
            .text()
            .contains(&format!("\"log_prob_bits\":\"{expected:016x}\"")),
        "{}",
        response.text()
    );

    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Lane death: a killed batcher lane degrades, survivors serve exactly
// ---------------------------------------------------------------------------

#[test]
fn killed_lane_under_live_load_degrades_and_survivors_serve_exactly() {
    let _shared = THREAD_COUNT.read().unwrap_or_else(PoisonError::into_inner);
    let (server, flow) = start_server(
        ServerConfig {
            batcher: BatcherConfig {
                lanes: 3,
                max_batch: 32,
                max_wait: Duration::from_millis(3),
                queue_capacity: 1024,
                ..BatcherConfig::default()
            },
            ..chaos_config()
        },
        66,
    );
    let addr = server.addr();
    let handle = server.batcher();

    // Live load across the kill: 4 clients, each sending 30 requests. The
    // kill lands mid-stream; every client must get an answer for every
    // request — scored bit-exact or (for jobs caught inside the dying
    // lane at the instant of death) a clean 500 — never a hang.
    let clients: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut dropped = 0u64;
                for i in 0..30 {
                    let pw = format!("ch{t}x{i}");
                    let body = format!("{{\"passwords\":[\"{pw}\"]}}");
                    let response = client::request(addr, "POST", "/v1/score", Some(&body)).unwrap();
                    match response.status {
                        200 => got.push((pw, response.text())),
                        500 => dropped += 1,
                        other => panic!("unexpected status {other}: {}", response.text()),
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                (got, dropped)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    handle.kill_lane(1);

    let mut scored = 0usize;
    for thread in clients {
        let (got, _dropped) = thread.join().expect("no client may hang or panic");
        for (pw, text) in got {
            let expected = flow.password_log_prob(&pw).unwrap().to_bits();
            assert!(
                text.contains(&format!("\"log_prob_bits\":\"{expected:016x}\"")),
                "{pw} drifted across the lane kill: {text}"
            );
            scored += 1;
        }
    }
    assert!(scored > 0, "surviving lanes must keep scoring");

    // The corpse is visible and correctly attributed.
    assert!(!handle.lane_alive(1), "killed lane must report dead");
    assert_eq!(handle.alive_lanes(), 2);
    let health = client::request(addr, "GET", "/healthz", None)
        .unwrap()
        .text();
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(
        health.contains("{\"lane\":1,\"status\":\"dead\"}"),
        "{health}"
    );
    assert!(
        health.contains("{\"lane\":0,\"status\":\"ok\"}"),
        "{health}"
    );
    assert!(
        health.contains("{\"lane\":2,\"status\":\"ok\"}"),
        "{health}"
    );

    // No phantom failure metrics: nothing expired, nothing shed, and the
    // metrics endpoint still renders every lane series.
    assert_eq!(server.metrics().deadline_expired_total(), 0);
    assert_eq!(server.metrics().shed_total(), 0);
    let metrics = client::request(addr, "GET", "/metrics", None)
        .unwrap()
        .text();
    for lane in 0..3 {
        assert!(
            metrics.contains(&format!("passflow_lane_depth{{lane=\"{lane}\"}}")),
            "{metrics}"
        );
    }

    // Post-kill service is exact, and shutdown with a dead lane is clean.
    let response = client::request(
        addr,
        "POST",
        "/v1/score",
        Some(r#"{"passwords":["jimmy91"]}"#),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    let expected = flow.password_log_prob("jimmy91").unwrap().to_bits();
    assert!(
        response
            .text()
            .contains(&format!("\"log_prob_bits\":\"{expected:016x}\"")),
        "{}",
        response.text()
    );

    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Idle-connection flood: parked keep-alive sockets cost ~0 threads
// ---------------------------------------------------------------------------

/// `/proc/self/status` Threads count (0 off-Linux, skipping the assert).
fn process_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[test]
fn hundreds_of_idle_keepalive_connections_cost_no_threads() {
    let _exclusive = THREAD_COUNT.write().unwrap_or_else(PoisonError::into_inner);
    let (server, flow) = start_server(chaos_config(), 67);
    let addr = server.addr();

    let before = process_threads();
    // 200 connections each complete one request (so they are genuinely
    // parked keep-alive peers, not half-open sockets) and then sit idle.
    let mut parked: Vec<Connection> = (0..200)
        .map(|i| {
            let mut conn = Connection::open(addr, Duration::from_secs(10)).unwrap();
            let body = format!("{{\"passwords\":[\"idle{i}\"]}}");
            let response = conn.request("POST", "/v1/score", Some(&body)).unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
            conn
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let after = process_threads();

    if before > 0 {
        let delta = after.saturating_sub(before);
        assert!(
            delta < 8,
            "200 idle keep-alive connections must cost ~0 threads \
             (thread-per-connection would cost 200; measured +{delta})"
        );
    }

    // Parked is not dead: every sampled connection still serves, exactly.
    let expected = flow.password_log_prob("jimmy91").unwrap().to_bits();
    for conn in parked.iter_mut().step_by(37) {
        let response = conn
            .request("POST", "/v1/score", Some(r#"{"passwords":["jimmy91"]}"#))
            .unwrap();
        assert_eq!(response.status, 200);
        assert!(
            response
                .text()
                .contains(&format!("\"log_prob_bits\":\"{expected:016x}\"")),
            "{}",
            response.text()
        );
    }

    drop(parked);
    server.shutdown();
    server.join();
}
