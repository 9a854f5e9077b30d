//! Serving conformance suite: HTTP protocol behavior under adversarial
//! input, and bit-exactness of batched scoring under concurrency and
//! hot-swaps.
//!
//! The protocol half drives the server with malformed request lines,
//! oversized headers, split writes, pipelined bursts and invalid bodies,
//! asserting every one gets a clean 4xx — never a panic, never a hang.
//! The concurrency half holds the same bar as `tests/fastpath.rs`: scores
//! produced through the adaptive micro-batcher under N-thread load must be
//! **bit-identical** (0 ULP) to serial single-request scoring, and a model
//! hot-swap mid-load must never produce a torn or mixed-model response.
//! One throughput bar rides along, on the optimised build only: batched
//! serving must reach at least 3× the serial request rate.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

use passflow::serve::client::{self, Connection};
use passflow::serve::{serve, BatcherConfig, ModelRegistry, ServedModel, ServerConfig};
use passflow::{FlowConfig, PassFlow, ProbabilityModel, SampleTable};

fn tiny_flow(seed: u64) -> PassFlow {
    let mut rng = passflow::nn::rng::seeded(seed);
    PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap()
}

/// Starts a server with one registered flow; the caller keeps the registry
/// handle (that is the hot-swap interface) and the flow (the serial oracle).
fn start_server(
    config: ServerConfig,
    seed: u64,
) -> (passflow::serve::ServerHandle, PassFlow, Arc<ModelRegistry>) {
    let flow = tiny_flow(seed);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(ServedModel::from_flow("default", &flow, 1, None));
    let server = serve(config, Arc::clone(&registry)).expect("bind on loopback");
    (server, flow, registry)
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// Extracts `"log_prob_bits"` hex fields from a score response, in order.
fn response_bits(body: &str) -> Vec<u64> {
    body.split("\"log_prob_bits\":\"")
        .skip(1)
        .map(|rest| u64::from_str_radix(&rest[..16], 16).expect("16 hex digits"))
        .collect()
}

/// Extracts the `"version"` field from a score response.
fn response_version(body: &str) -> u64 {
    let rest = body.split("\"version\":").nth(1).expect("version field");
    rest.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("integer version")
}

// ---------------------------------------------------------------------------
// Protocol conformance
// ---------------------------------------------------------------------------

#[test]
fn malformed_requests_get_clean_4xx() {
    let (server, _flow, _registry) = start_server(quick_config(), 1);
    let addr = server.addr();

    // (raw bytes, expected status) — each on a fresh connection.
    let cases: Vec<(Vec<u8>, u16)> = vec![
        (b"GARBAGE\r\n\r\n".to_vec(), 400),
        (b"GET /healthz\r\n\r\n".to_vec(), 400),
        (b"get /healthz HTTP/1.1\r\n\r\n".to_vec(), 400),
        (b"GET /healthz HTTP/9.9\r\n\r\n".to_vec(), 505),
        (
            format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(8192)).into_bytes(),
            414,
        ),
        (
            format!("GET /healthz HTTP/1.1\r\nx: {}\r\n\r\n", "v".repeat(8192)).into_bytes(),
            431,
        ),
        (
            format!(
                "GET /healthz HTTP/1.1\r\n{}\r\n",
                (0..100).map(|i| format!("h{i}: v\r\n")).collect::<String>()
            )
            .into_bytes(),
            431,
        ),
        (
            b"POST /v1/score HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n".to_vec(),
            413,
        ),
        (
            b"POST /v1/score HTTP/1.1\r\ncontent-length: nope\r\n\r\n".to_vec(),
            400,
        ),
        (
            b"POST /v1/score HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec(),
            501,
        ),
        (
            b"GET /healthz HTTP/1.1\r\nbroken header\r\n\r\n".to_vec(),
            400,
        ),
    ];
    for (raw, expected) in cases {
        let mut conn = Connection::open(addr, Duration::from_secs(5)).unwrap();
        conn.stream().write_all(&raw).unwrap();
        conn.stream().flush().unwrap();
        let response = conn.read_response().unwrap();
        assert_eq!(
            response.status,
            expected,
            "{:?} → {}",
            String::from_utf8_lossy(&raw[..raw.len().min(40)]),
            response.text()
        );
    }

    // The server is still healthy after all of that.
    let health = client::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));

    server.shutdown();
    server.join();
}

#[test]
fn bad_bodies_and_routes_get_clean_4xx() {
    let (server, _flow, _registry) = start_server(quick_config(), 2);
    let addr = server.addr();

    let cases: Vec<(&str, &str, Option<&str>, u16)> = vec![
        // Unknown endpoint and wrong methods.
        ("GET", "/nope", None, 404),
        ("DELETE", "/v1/score", None, 405),
        ("POST", "/healthz", None, 405),
        // Admin shutdown is disabled unless opted in.
        ("POST", "/admin/shutdown", None, 404),
        // Zero-length and malformed bodies.
        ("POST", "/v1/score", None, 400),
        ("POST", "/v1/score", Some("not json"), 400),
        ("POST", "/v1/score", Some("{\"passwords\":[]}"), 422),
        ("POST", "/v1/score", Some("{\"passwords\":\"abc\"}"), 422),
        ("POST", "/v1/score", Some("{\"passwords\":[1,2]}"), 422),
        ("POST", "/v1/score", Some("{}"), 422),
        (
            "POST",
            "/v1/score",
            Some("{\"model\":\"ghost\",\"passwords\":[\"a\"]}"),
            404,
        ),
        ("POST", "/v1/logprob", Some("not json"), 400),
    ];
    for (method, path, body, expected) in cases {
        let response = client::request(addr, method, path, body).unwrap();
        assert_eq!(
            response.status,
            expected,
            "{method} {path} {body:?} → {}",
            response.text()
        );
    }

    // A >max-batch body sheds with 413.
    let too_many: Vec<String> = (0..passflow::serve::MAX_REQUEST_PASSWORDS + 1)
        .map(|i| format!("\"p{i}\""))
        .collect();
    let body = format!("{{\"passwords\":[{}]}}", too_many.join(","));
    let response = client::request(addr, "POST", "/v1/score", Some(&body)).unwrap();
    assert_eq!(response.status, 413, "{}", response.text());

    server.shutdown();
    server.join();
}

#[test]
fn split_writes_and_pipelining_are_handled() {
    let (server, flow, _registry) = start_server(quick_config(), 3);
    let addr = server.addr();

    // Partial/split reads: dribble a valid request a few bytes at a time.
    let mut conn = Connection::open(addr, Duration::from_secs(10)).unwrap();
    let body = r#"{"passwords":["jimmy91"]}"#;
    let raw = format!(
        "POST /v1/score HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    for chunk in raw.as_bytes().chunks(7) {
        conn.stream().write_all(chunk).unwrap();
        conn.stream().flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let response = conn.read_response().unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let expected = flow.password_log_prob("jimmy91").unwrap();
    assert_eq!(response_bits(&response.text()), vec![expected.to_bits()]);

    // Pipelining: three requests written back-to-back, three responses in
    // order on the same connection.
    let mut conn = Connection::open(addr, Duration::from_secs(10)).unwrap();
    conn.send("GET", "/healthz", None).unwrap();
    conn.send("POST", "/v1/score", Some(r#"{"passwords":["dragon"]}"#))
        .unwrap();
    conn.send("GET", "/metrics", None).unwrap();
    let first = conn.read_response().unwrap();
    assert_eq!(first.status, 200);
    assert!(first.text().contains("\"status\":\"ok\""));
    let second = conn.read_response().unwrap();
    let expected = flow.password_log_prob("dragon").unwrap();
    assert_eq!(response_bits(&second.text()), vec![expected.to_bits()]);
    let third = conn.read_response().unwrap();
    assert!(third.text().contains("passflow_requests_total"));

    server.shutdown();
    server.join();
}

#[test]
fn metrics_and_healthz_expose_serving_state() {
    let (server, _flow, _registry) = start_server(quick_config(), 4);
    let addr = server.addr();

    for pw in ["aaa", "bbb", "ccc"] {
        let body = format!("{{\"passwords\":[\"{pw}\"]}}");
        let response = client::request(addr, "POST", "/v1/score", Some(&body)).unwrap();
        assert_eq!(response.status, 200);
    }
    let _ = client::request(addr, "GET", "/nope", None).unwrap();

    let metrics = client::request(addr, "GET", "/metrics", None)
        .unwrap()
        .text();
    assert!(metrics.contains("passflow_requests_total{endpoint=\"score\",status=\"2xx\"} 3"));
    assert!(metrics.contains("passflow_requests_total{endpoint=\"other\",status=\"4xx\"} 1"));
    assert!(metrics.contains("passflow_batch_size_bucket"));
    assert!(metrics.contains("passflow_request_latency_seconds{quantile=\"0.99\"}"));

    let health = client::request(addr, "GET", "/healthz", None)
        .unwrap()
        .text();
    assert!(health.contains("\"models\":[\"default\"]"));

    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Concurrency correctness
// ---------------------------------------------------------------------------

#[test]
fn concurrent_batched_scores_are_bit_identical_to_serial() {
    // Force real coalescing: a generous straggler window and batch size.
    let config = ServerConfig {
        batcher: BatcherConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(5),
            ..BatcherConfig::default()
        },
        ..quick_config()
    };
    let (server, flow, _registry) = start_server(config, 5);
    let addr = server.addr();

    const THREADS: usize = 8;
    const REQUESTS: usize = 24;
    let clients: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut conn = Connection::open(addr, Duration::from_secs(30)).unwrap();
                (0..REQUESTS)
                    .map(|i| {
                        // Overlapping password sets across threads, plus an
                        // unencodable one to keep the None path honest.
                        let pw = if i % 7 == 6 {
                            "waytoolongtoencode".to_string()
                        } else {
                            format!("pw{}x{}", t % 3, i)
                        };
                        let body = format!("{{\"passwords\":[{}]}}", serve_quote(&pw));
                        let response = conn.request("POST", "/v1/score", Some(&body)).unwrap();
                        assert_eq!(response.status, 200);
                        (pw, response.text())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    for client in clients {
        for (pw, body) in client.join().unwrap() {
            let bits = response_bits(&body);
            match flow.password_log_prob(&pw) {
                Some(expected) => {
                    assert_eq!(bits, vec![expected.to_bits()], "{pw}: batched ≠ serial")
                }
                None => assert!(bits.is_empty(), "{pw} must score null"),
            }
        }
    }

    // The batcher actually coalesced: the single lane ran fewer ticks
    // than the encodable requests it scored, so at least one tick carried
    // more than one request.
    let metrics = server.metrics();
    assert!(
        metrics.total_requests() >= (THREADS * REQUESTS) as u64,
        "all requests recorded"
    );
    let encodable = THREADS * (0..REQUESTS).filter(|i| i % 7 != 6).count();
    let ticks = metrics.lane_ticks(0);
    assert!(
        ticks < encodable as u64,
        "{ticks} ticks for {encodable} encodable requests: nothing coalesced"
    );

    server.shutdown();
    server.join();
}

/// Minimal JSON string quoting for test bodies.
fn serve_quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Keeps `clients` keep-alive connections sending single-password scores
/// back to back for `window`; returns the requests completed per second.
/// Every response must be a 200: 64 requests in flight cannot fill a
/// 1 024-slot queue, so a shed here is a bug, not load.
fn score_rate(addr: std::net::SocketAddr, clients: usize, window: Duration) -> f64 {
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let start = std::time::Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conn = Connection::open(addr, Duration::from_secs(30)).unwrap();
                let body = format!("{{\"passwords\":[\"password{t}\"]}}");
                let mut completed = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let response = conn.request("POST", "/v1/score", Some(&body)).unwrap();
                    assert_eq!(response.status, 200, "{}", response.text());
                    completed += 1;
                }
                completed
            })
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let completed: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    completed as f64 / start.elapsed().as_secs_f64()
}

/// The adaptive micro-batcher's reason to exist: with 64 clients in
/// flight, ticks of up to 64 rows serve at least 3× the requests per
/// second of one-row ticks. Both servers carry the same HTTP, JSON and
/// syscall cost, so the ratio isolates what batching buys. The model is
/// production-shaped (the paper's 18 coupling layers at hidden 128), so
/// scoring, not loopback overhead, dominates a request; on a 6×48 model
/// the HTTP cost swallows the batching win. The bar holds for
/// the optimised build only; `cargo test --release --test serve` runs it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a throughput bar: run with cargo test --release --test serve"
)]
fn batched_serving_is_at_least_3x_serial() {
    const CLIENTS: usize = 64;
    let mut rng = passflow::nn::rng::seeded(11);
    let flow = PassFlow::new(FlowConfig::paper().with_hidden_size(128), &mut rng).unwrap();
    let table = SampleTable::build(&flow, 2_000, 7);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(ServedModel::from_flow("default", &flow, 1, Some(table)));

    let mut rates = Vec::new();
    for max_batch in [1usize, 64] {
        let config = ServerConfig {
            batcher: BatcherConfig {
                max_batch,
                max_wait: Duration::from_millis(2),
                queue_capacity: 1024,
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        };
        let server = serve(config, Arc::clone(&registry)).expect("bind on loopback");
        score_rate(server.addr(), CLIENTS, Duration::from_secs(1));
        let rate = score_rate(server.addr(), CLIENTS, Duration::from_secs(6));
        println!("max_batch {max_batch}: {rate:.0} req/s");
        rates.push(rate);
        server.shutdown();
        server.join();
    }
    let speedup = rates[1] / rates[0];
    println!("batched_over_serial: {speedup:.2}x");
    assert!(
        speedup >= 3.0,
        "batched serving must be at least 3x serial: {:.0} vs {:.0} req/s = {speedup:.2}x",
        rates[1],
        rates[0]
    );
}

#[test]
fn hot_swap_mid_load_never_tears_a_response() {
    let (server, flow_v1, registry) = start_server(quick_config(), 6);
    let addr = server.addr();
    let flow_v2 = tiny_flow(7);

    // Expected scores per version for the probe password.
    let probe = "jimmy91";
    let v1_bits = flow_v1.password_log_prob(probe).unwrap().to_bits();
    let v2_bits = flow_v2.password_log_prob(probe).unwrap().to_bits();
    assert_ne!(v1_bits, v2_bits, "the two versions must disagree");

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conn = Connection::open(addr, Duration::from_secs(30)).unwrap();
                let mut observed: Vec<(u64, u64)> = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let response = conn
                        .request("POST", "/v1/score", Some(r#"{"passwords":["jimmy91"]}"#))
                        .unwrap();
                    assert_eq!(response.status, 200);
                    let text = response.text();
                    observed.push((response_version(&text), response_bits(&text)[0]));
                }
                observed
            })
        })
        .collect();

    // Let load build up, then swap under it.
    std::thread::sleep(Duration::from_millis(100));
    let displaced = registry
        .swap(ServedModel::from_flow("default", &flow_v2, 2, None))
        .expect("default is registered");
    assert_eq!(displaced.version(), 1);
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let mut saw_v1 = false;
    let mut saw_v2 = false;
    for client in clients {
        for (version, bits) in client.join().unwrap() {
            match version {
                1 => {
                    saw_v1 = true;
                    assert_eq!(bits, v1_bits, "version 1 response must carry v1 weights");
                }
                2 => {
                    saw_v2 = true;
                    assert_eq!(bits, v2_bits, "version 2 response must carry v2 weights");
                }
                other => panic!("unexpected version {other}"),
            }
        }
    }
    assert!(saw_v1, "some requests must land before the swap");
    assert!(saw_v2, "some requests must land after the swap");

    server.shutdown();
    server.join();
}

#[test]
fn score_estimates_match_the_sample_table() {
    let flow = tiny_flow(8);
    let table = SampleTable::build(&flow, 500, 3);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(ServedModel::from_flow(
        "default",
        &flow,
        1,
        Some(table.clone()),
    ));
    let server = serve(quick_config(), registry).unwrap();
    let addr = server.addr();

    let response = client::request(
        addr,
        "POST",
        "/v1/score",
        Some(r#"{"passwords":["dragon"]}"#),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    let text = response.text();
    assert!(text.contains("\"log2_guess_number\":"));

    // The served estimate equals the offline estimate for the same score.
    let lp = flow.password_log_prob("dragon").unwrap();
    let expected = table.estimate(lp);
    let served: f64 = text
        .split("\"log2_guess_number\":")
        .nth(1)
        .unwrap()
        .split([',', '}'])
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(served.to_bits(), expected.log2_guess_number.to_bits());

    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Breach screening endpoints (digest store)
// ---------------------------------------------------------------------------

/// Builds a digest store from `passwords` in a temp file and opens it.
fn digest_fixture(
    tag: &str,
    passwords: &[&str],
) -> (Arc<passflow::DigestStore>, std::path::PathBuf) {
    let path =
        std::env::temp_dir().join(format!("pfdigest-serve-{tag}-{}.pfd", std::process::id()));
    let mut builder = passflow::DigestStoreBuilder::new(passflow::DigestConfig::default());
    for pw in passwords {
        builder.add_password(pw).unwrap();
    }
    builder.finish(&path).unwrap();
    (Arc::new(passflow::DigestStore::open(&path).unwrap()), path)
}

#[test]
fn models_endpoint_lists_registered_models_with_versions() {
    let (server, flow, registry) = start_server(quick_config(), 40);
    let addr = server.addr();
    registry.insert(ServedModel::from_flow("alt", &flow, 7, None));

    let response = client::request(addr, "GET", "/v1/models", None).unwrap();
    assert_eq!(response.status, 200);
    let text = response.text();
    assert!(text.contains("\"name\":\"alt\""), "{text}");
    assert!(text.contains("\"name\":\"default\""), "{text}");
    assert!(text.contains("\"version\":7"), "{text}");

    // A swap bumps the reported version.
    registry
        .swap(ServedModel::from_flow("alt", &flow, 8, None))
        .unwrap();
    let text = client::request(addr, "GET", "/v1/models", None)
        .unwrap()
        .text();
    assert!(text.contains("\"version\":8"), "{text}");
    assert!(!text.contains("\"version\":7"), "{text}");

    assert_eq!(
        client::request(addr, "POST", "/v1/models", None)
            .unwrap()
            .status,
        405
    );

    server.shutdown();
    server.join();
}

#[test]
fn breach_endpoints_answer_503_without_a_digest_store() {
    let (server, _flow, _registry) = start_server(quick_config(), 41);
    let addr = server.addr();

    let range = client::request(addr, "GET", "/v1/range/CBFDA", None).unwrap();
    assert_eq!(range.status, 503, "{}", range.text());
    let screen = client::request(
        addr,
        "POST",
        "/v1/screen",
        Some(r#"{"passwords":["dragon"]}"#),
    )
    .unwrap();
    assert_eq!(screen.status, 503, "{}", screen.text());

    server.shutdown();
    server.join();
}

#[test]
fn range_endpoint_serves_k_anonymity_suffixes() {
    let breached = ["password123", "dragon", "letmein", "jimmy91"];
    let (digest, path) = digest_fixture("range", &breached);
    let flow = tiny_flow(42);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(ServedModel::from_flow("default", &flow, 1, None));
    let server = serve(
        ServerConfig {
            digest: Some(Arc::clone(&digest)),
            ..quick_config()
        },
        registry,
    )
    .unwrap();
    let addr = server.addr();

    // Every breached password's suffix appears under its own prefix, and
    // the served set matches the offline range query exactly.
    for pw in breached {
        let hex = passflow::store::sha1::to_hex(&passflow::store::sha1::password_digest(pw));
        let (prefix, _) = hex.split_at(5);
        let response = client::request(addr, "GET", &format!("/v1/range/{prefix}"), None).unwrap();
        assert_eq!(response.status, 200);
        let text = response.text();
        for entry in digest.range(prefix).unwrap() {
            assert!(
                text.contains(&format!("\"suffix\":\"{}\"", entry.suffix)),
                "{pw}: missing {} in {text}",
                entry.suffix
            );
        }
        assert!(text.contains(&format!("\"prefix\":\"{prefix}\"")), "{text}");
    }

    // A prefix with no members answers 200 with an empty set (the
    // k-anonymity protocol must not leak membership through the status).
    let response = client::request(addr, "GET", "/v1/range/00000", None).unwrap();
    assert_eq!(response.status, 200);
    assert!(
        response.text().contains("\"suffixes\":[]"),
        "{}",
        response.text()
    );

    // Malformed prefixes: wrong length or non-hex are 422, not 404.
    for bad in ["CBFD", "CBFDAA", "zzzzz", "%20%20"] {
        let response = client::request(addr, "GET", &format!("/v1/range/{bad}"), None).unwrap();
        assert_eq!(response.status, 422, "prefix {bad:?}: {}", response.text());
    }

    server.shutdown();
    server.join();
    let _ = std::fs::remove_file(path);
}

#[test]
fn screen_verdicts_match_offline_contains_exactly() {
    let breached = ["password123", "dragon", "dragon", "abc123"];
    let (digest, path) = digest_fixture("screen", &breached);
    let flow = tiny_flow(43);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(ServedModel::from_flow("default", &flow, 1, None));
    let server = serve(
        ServerConfig {
            digest: Some(Arc::clone(&digest)),
            ..quick_config()
        },
        registry,
    )
    .unwrap();
    let addr = server.addr();

    // A mix of breached, clean, repeated-breach and unencodable passwords.
    let probes = ["password123", "dragon", "NotBreached42", "abc123", "héllo"];
    let body = format!(
        "{{\"passwords\":[{}]}}",
        probes
            .iter()
            .map(|p| format!("{p:?}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let response = client::request(addr, "POST", "/v1/screen", Some(&body)).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let text = response.text();

    // JSON objects render with sorted keys, so within one result the
    // breach fields precede "password" — parse backwards from the marker.
    for pw in probes {
        let offline = digest.contains_password(pw).unwrap();
        let before = text
            .split(&format!("\"password\":\"{pw}\""))
            .next()
            .unwrap_or_else(|| panic!("{pw} missing from {text}"));
        let served_breached = before
            .rsplit("\"breached\":")
            .next()
            .unwrap()
            .starts_with("true");
        assert_eq!(
            served_breached,
            offline.is_some(),
            "{pw}: served {served_breached}, offline {offline:?}"
        );
        let served_count: u64 = before
            .rsplit("\"breach_count\":")
            .next()
            .unwrap()
            .split([',', '}'])
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(served_count, offline.unwrap_or(0), "{pw} count");
    }
    // The unencodable password still got a verdict with a null score.
    let unencodable = text.split("\"password\":\"héllo\"").next().unwrap();
    assert!(
        unencodable
            .rsplit("\"breach_count\":")
            .next()
            .unwrap()
            .contains("\"log_prob\":null"),
        "{unencodable}"
    );

    // Screening is also visible in the metrics under its own endpoint.
    let metrics = client::request(addr, "GET", "/metrics", None)
        .unwrap()
        .text();
    assert!(
        metrics.contains("passflow_requests_total{endpoint=\"screen\",status=\"2xx\"} 1"),
        "{metrics}"
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_file(path);
}

// ---------------------------------------------------------------------------
// Robustness: vanished clients and per-component health
// ---------------------------------------------------------------------------

#[test]
fn clients_that_vanish_mid_request_leak_nothing() {
    let (server, flow, _registry) = start_server(quick_config(), 45);
    let addr = server.addr();

    // Complete requests whose clients vanish before reading the response:
    // the batcher still scores the job, and both the dead reply channel
    // and the failed response write must be absorbed silently.
    for i in 0..10 {
        let mut conn = Connection::open(addr, Duration::from_secs(5)).unwrap();
        conn.send(
            "POST",
            "/v1/score",
            Some(&format!("{{\"passwords\":[\"gone{i}\"]}}")),
        )
        .unwrap();
        drop(conn);
    }
    // Every orphaned request is still read, routed and *counted* — wait
    // for the handlers to get there rather than racing them.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.metrics().total_requests() < 10 {
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned requests must still be processed and recorded \
             (saw {} of 10)",
            server.metrics().total_requests()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // No phantom failure metrics: nothing expired, nothing was shed.
    assert_eq!(server.metrics().deadline_expired_total(), 0);
    assert_eq!(server.metrics().shed_total(), 0);

    // And the server is fully healthy: live batcher, bit-exact scores.
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
    let expected = flow.password_log_prob("jimmy91").unwrap();
    assert_eq!(response_bits(&response.text()), vec![expected.to_bits()]);

    server.shutdown();
    server.join();
}

#[test]
fn healthz_reports_per_component_status() {
    // Without a digest store: every component reported, store "absent",
    // and absence does not degrade overall health.
    let (server, _flow, _registry) = start_server(quick_config(), 46);
    let health = client::request(server.addr(), "GET", "/healthz", None)
        .unwrap()
        .text();
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"components\":"), "{health}");
    assert!(
        health.contains("\"registry\":{\"models\":1,\"status\":\"ok\"}"),
        "{health}"
    );
    assert!(
        health
            .contains("\"batcher\":{\"lanes\":[{\"lane\":0,\"status\":\"ok\"}],\"status\":\"ok\"}"),
        "{health}"
    );
    assert!(health.contains("\"connections\":{"), "{health}");
    assert!(
        health.contains("\"digest_store\":{\"status\":\"absent\"}"),
        "{health}"
    );
    server.shutdown();
    server.join();

    // With a digest store: the breaker state is part of the report.
    let (digest, path) = digest_fixture("healthz", &["dragon"]);
    let flow = tiny_flow(47);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(ServedModel::from_flow("default", &flow, 1, None));
    let server = serve(
        ServerConfig {
            digest: Some(digest),
            ..quick_config()
        },
        registry,
    )
    .unwrap();
    let health = client::request(server.addr(), "GET", "/healthz", None)
        .unwrap()
        .text();
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"breaker\":\"closed\""), "{health}");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_file(path);
}

// ---------------------------------------------------------------------------
// JSON hardening regressions (depth limit, lone surrogates)
// ---------------------------------------------------------------------------

#[test]
fn deeply_nested_and_lone_surrogate_bodies_get_400() {
    let (server, _flow, _registry) = start_server(quick_config(), 44);
    let addr = server.addr();

    // 64 nested arrays blows the parser's depth limit → 400, not a stack
    // overflow or a hang.
    let deep = format!("{{\"passwords\":{}{}}}", "[".repeat(64), "]".repeat(64));
    let response = client::request(addr, "POST", "/v1/score", Some(&deep)).unwrap();
    assert_eq!(response.status, 400, "{}", response.text());

    // A lone UTF-16 surrogate escape is invalid JSON text → 400.
    let lone = r#"{"passwords":["\ud800"]}"#;
    let response = client::request(addr, "POST", "/v1/score", Some(lone)).unwrap();
    assert_eq!(response.status, 400, "{}", response.text());

    // A valid surrogate *pair* still parses (the limit is precise).
    let pair = r#"{"passwords":["😀"]}"#;
    let response = client::request(addr, "POST", "/v1/score", Some(pair)).unwrap();
    assert_ne!(response.status, 400, "{}", response.text());

    // The server is still alive and correct after the adversarial bodies.
    let health = client::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);

    server.shutdown();
    server.join();
}
