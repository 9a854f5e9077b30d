//! `serve`: the strength meter over HTTP.
//!
//! Set-up builds an untrained 18×128 flow (the paper's depth at
//! `loadgen`'s production width; untrained weights score exactly like
//! trained ones), registers it twice — as f32 and as its int8 tier — with
//! a 2 000-sample `SampleTable`, builds a `PFDIGEST` store holding the
//! passwords of every other screen request of the trace, and starts an
//! in-process server with 1 batcher lane, 1 GEMM thread, no straggler wait
//! and 2 handler threads. A handler serves its connection's requests one
//! at a time, so 2 connections never fill a tick; with the default
//! straggler wait every tick would idle for it, and the saturation rate
//! would measure that timer rather than scoring.
//!
//! Load replays a `Trace::synth` trace (default profile) open-loop from 2
//! keep-alive connections at each rate of a fixed ladder. Gaps are
//! rescaled to the rung's rate and bursts are kept. One request in four
//! names the int8 model. A request's latency runs from its due time, so
//! time spent waiting for a free connection counts.
//!
//! Then rounds of a window at the nominal rate and a closed-loop
//! saturation window follow. The saturation requests carry the trace's
//! passwords packed 32 to a request, so each tick scores a full batch and
//! the rate follows scoring cost; with the trace's few-password requests
//! it followed thread wake-up latency, which a shared host's steal time
//! swings by a factor of two.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use passflow_core::{
    FlowConfig, FlowScorer, FlowWorkspace, PassFlow, QuantizedScorer, SampleTable,
};
use passflow_nn::rng as nnrng;
use passflow_serve::http::{self, ReadOutcome};
use passflow_serve::json::{self, Json};
use passflow_serve::trace::{Endpoint, Trace, TraceRecord, TraceSynthProfile};
use passflow_serve::{
    serve, BatcherConfig, ModelRegistry, ServedModel, ServerConfig, ServerHandle,
};
use passflow_store::{DigestConfig, DigestStore, DigestStoreBuilder};

use crate::report::{say, Report};
use crate::spans::{self, Tracer};
use crate::stats::{median, percentile};

/// Offered rates of the ladder, requests per second, ascending.
pub const LADDER: [f64; 6] = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0];
/// The nominal rate `p50_ms` and `p99_ms` are measured at (a rung of the
/// ladder too).
pub const NOMINAL_RPS: f64 = 200.0;
/// The ladder's share of the run.
const LADDER_SHARE: f64 = 0.3;
/// Rounds the rest of the run is cut into. Each round replays a window at
/// the nominal rate, then a closed-loop saturation window; the metrics
/// are medians over rounds, so a stall of the host moves one round, not
/// the result, and both phases sample the same stretches of time.
const ROUNDS: usize = 8;
/// The nominal window's share of a round; saturation takes the rest.
const NOMINAL_SHARE: f64 = 0.5;
/// Latency limit on p99 for a rung to count towards capacity.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Client connections (and server handler threads).
pub const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight in the saturation windows.
const PIPELINE: usize = 4;
/// Every `INT8_EVERY`-th request names the int8 model.
const INT8_EVERY: usize = 4;
/// Samples in the strength table.
const TABLE_SAMPLES: usize = 2_000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests whose layer calls the traced run times offline.
const OFFLINE_REQUESTS: usize = 2_000;

/// A running server and everything needed to check its answers.
pub struct Setup {
    flow: PassFlow,
    table: SampleTable,
    digest: Arc<DigestStore>,
    handle: ServerHandle,
    trace: Trace,
    dir: PathBuf,
}

impl Setup {
    fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Requests a ladder rung at `rate` sends in a run of `seconds`.
fn rung_requests(seconds: f64, rate: f64) -> usize {
    ((rate * seconds * LADDER_SHARE / LADDER.len() as f64).ceil() as usize).max(1)
}

/// Seconds of one round in a run of `seconds`.
fn round_seconds(seconds: f64) -> f64 {
    seconds * (1.0 - LADDER_SHARE) / ROUNDS as f64
}

/// Requests one nominal window sends in a run of `seconds`.
fn window_requests(seconds: f64) -> usize {
    ((NOMINAL_RPS * round_seconds(seconds) * NOMINAL_SHARE).ceil() as usize).max(1)
}

/// Builds the models, the store and the trace, and starts the server.
///
/// # Panics
///
/// Panics if the flow, the store or the listener cannot be built.
pub fn setup(seed: u64, seconds: f64, tag: &str) -> Setup {
    let flow = PassFlow::new(
        FlowConfig::paper().with_hidden_size(128),
        &mut nnrng::seeded(seed),
    )
    .expect("the serving config is valid");
    let table = SampleTable::build(&flow, TABLE_SAMPLES, seed);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(ServedModel::from_flow(
        "default",
        &flow,
        1,
        Some(table.clone()),
    ));
    registry.insert(ServedModel::from_flow_quantized(
        "int8",
        &flow,
        1,
        Some(table.clone()),
    ));

    let longest =
        rung_requests(seconds, LADDER[LADDER.len() - 1]).max(ROUNDS * window_requests(seconds));
    let trace = Trace::synth(seed, longest, &TraceSynthProfile::default());

    let dir = crate::out_dir().join(format!("serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the scratch directory is writable");
    let mut builder = DigestStoreBuilder::new(DigestConfig::default()).with_scratch_dir(&dir);
    let screens = trace
        .records
        .iter()
        .filter(|r| r.endpoint == Endpoint::Screen);
    for record in screens.step_by(2) {
        for password in record.passwords() {
            builder.add_password(&password).expect("digest build");
        }
    }
    let path = dir.join("breached.pfdigest");
    builder.finish(&path).expect("digest build");
    let digest = Arc::new(DigestStore::open(&path).expect("digest open"));

    let config = ServerConfig {
        batcher: BatcherConfig {
            lanes: 1,
            threads: 1,
            max_wait: Duration::ZERO,
            ..BatcherConfig::default()
        },
        handler_threads: CONNECTIONS,
        digest: Some(Arc::clone(&digest)),
        ..ServerConfig::default()
    };
    let handle = serve(config, registry).expect("the server starts");
    Setup {
        flow,
        table,
        digest,
        handle,
        trace,
        dir,
    }
}

/// The model a request names.
fn model_of(index: usize) -> &'static str {
    if index % INT8_EVERY == INT8_EVERY - 1 {
        "int8"
    } else {
        "default"
    }
}

/// The JSON body of request `index`.
fn body(index: usize, record: &TraceRecord) -> String {
    let items: Vec<String> = record
        .passwords()
        .into_iter()
        .map(|p| format!("\"{p}\""))
        .collect();
    format!(
        "{{\"model\":\"{}\",\"passwords\":[{}]}}",
        model_of(index),
        items.join(",")
    )
}

/// What the client saw of one request.
#[derive(Clone, Debug)]
struct Sent {
    due: Duration,
    sent: Duration,
    done: Duration,
    status: u16,
    body: Option<Vec<u8>>,
}

/// One rung's replay.
struct Rung {
    /// Trace index of the first request.
    first: usize,
    rate: f64,
    wall_s: f64,
    requests: Vec<Sent>,
}

impl Rung {
    fn count(&self, status: u16) -> usize {
        self.requests.iter().filter(|r| r.status == status).count()
    }

    fn ok(&self) -> usize {
        self.count(200)
    }

    /// Requests that neither succeeded nor were shed or expired (an I/O
    /// error shows as status 0).
    fn failed(&self) -> usize {
        self.requests.len() - self.ok() - self.count(503) - self.count(504)
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .map(|r| r.done.saturating_sub(r.due).as_secs_f64() * 1e3)
            .collect()
    }

    fn lateness_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .map(|r| r.sent.saturating_sub(r.due).as_secs_f64() * 1e3)
            .collect()
    }

    fn server_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .map(|r| r.done.saturating_sub(r.sent).as_secs_f64() * 1e3)
            .collect()
    }

    /// The generator's lateness on the rung's last request: the backlog
    /// it ended with.
    fn final_lateness_ms(&self) -> f64 {
        self.lateness_ms().last().copied().unwrap_or(0.0)
    }

    /// Within the limit, nothing failed, shed or expired, and no backlog
    /// left at the end.
    fn passes(&self) -> bool {
        self.ok() == self.requests.len()
            && percentile(&self.latencies_ms(), 99.0) <= P99_LIMIT_MS
            && self.final_lateness_ms() <= P99_LIMIT_MS
    }

    fn print(&self) {
        let lat = self.latencies_ms();
        let late = self.lateness_ms();
        println!(
            "rung {:>5} rps: sent {:>5} ok {:>5} failed {} shed {} expired {} \
             max_lateness {:>8.2} ms p50 {:>7.2} ms p99 {:>7.2} ms achieved {:>7.1} rps {}",
            self.rate,
            self.requests.len(),
            self.ok(),
            self.failed(),
            self.count(503),
            self.count(504),
            percentile(&late, 100.0),
            percentile(&lat, 50.0),
            percentile(&lat, 99.0),
            self.ok() as f64 / self.wall_s,
            if self.passes() { "pass" } else { "MISS" },
        );
    }
}

/// Due offsets of `records`, with gaps rescaled so the mean rate is
/// `rate`; bursts (gap 0) stay bursts.
fn schedule(records: &[TraceRecord], rate: f64) -> Vec<Duration> {
    let total_us: f64 = records.iter().map(|r| f64::from(r.gap_us)).sum();
    let scale = if total_us > 0.0 {
        (records.len() as f64 / rate) * 1e6 / total_us
    } else {
        0.0
    };
    let mut at_us = 0.0;
    records
        .iter()
        .map(|r| {
            at_us += f64::from(r.gap_us) * scale;
            Duration::from_secs_f64(at_us * 1e-6)
        })
        .collect()
}

/// A keep-alive HTTP/1.1 client that sends each request in one write.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request: Vec<u8>,
}

impl Client {
    fn open(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            request: Vec::new(),
        })
    }

    /// Sends one POST and returns the status and body of the answer.
    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
        self.send(path, body)?;
        self.read()
    }

    /// Sends one POST without waiting for the answer.
    fn send(&mut self, path: &str, body: &str) -> std::io::Result<()> {
        self.request.clear();
        write!(
            self.request,
            "POST {path} HTTP/1.1\r\nhost: loopback\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.write_all(&self.request)
    }

    /// Reads the next answer: its status and body.
    fn read(&mut self) -> std::io::Result<(u16, Vec<u8>)> {
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad())?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// Replays trace records `first..first + n` at `rate` from
/// [`CONNECTIONS`] keep-alive connections. Each connection takes the next
/// request that is due, waits for its due time, sends it and reads the
/// answer. Response bodies are kept when `keep_bodies` is set.
fn replay(
    addr: SocketAddr,
    trace: &Trace,
    first: usize,
    n: usize,
    rate: f64,
    keep_bodies: bool,
) -> Rung {
    let records = &trace.records[first..first + n];
    let due = schedule(records, rate);
    let bodies: Vec<String> = records
        .iter()
        .enumerate()
        .map(|(i, r)| body(first + i, r))
        .collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut results: Vec<Option<Sent>> = vec![None; n];
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let (next, due, bodies) = (&next, &due, &bodies);
                scope.spawn(move || {
                    let mut conn = Client::open(addr).ok();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= due.len() {
                            break;
                        }
                        let wait = due[i].saturating_sub(start.elapsed());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let path = records[i].endpoint.path();
                        let answer = conn
                            .as_mut()
                            .ok_or_else(|| std::io::Error::other("connection failed"))
                            .and_then(|c| c.post(path, &bodies[i]));
                        let done = start.elapsed();
                        let (status, body) = match answer {
                            Ok(answer) => answer,
                            Err(_) => {
                                // Reconnect for the next request.
                                conn = Client::open(addr).ok();
                                (0, Vec::new())
                            }
                        };
                        out.push((
                            i,
                            Sent {
                                due: due[i],
                                sent,
                                done,
                                status,
                                body: keep_bodies.then_some(body),
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        for client in clients {
            for (i, sent) in client.join().expect("a client thread panicked") {
                results[i] = Some(sent);
            }
        }
    });
    Rung {
        first,
        rate,
        wall_s: start.elapsed().as_secs_f64(),
        requests: results
            .into_iter()
            .map(|r| r.expect("every request was sent"))
            .collect(),
    }
}

/// What one closed-loop saturation window saw.
struct Saturation {
    sent: usize,
    failed: usize,
    /// Completed requests per second.
    rps: f64,
}

/// Passwords per saturation request.
pub const SATURATION_ROWS: usize = 32;

/// One request of a saturation window: its path and body.
type Probe = (&'static str, String);

/// `count` saturation requests: the trace's passwords in order, packed
/// [`SATURATION_ROWS`] to a request, each with the endpoint and model of
/// the record it starts at.
fn saturation_probes(trace: &Trace, count: usize) -> Vec<Probe> {
    let mut probes = Vec::with_capacity(count);
    let mut i = 0;
    while probes.len() < count {
        let head = i % trace.records.len();
        let mut passwords = Vec::with_capacity(SATURATION_ROWS);
        while passwords.len() < SATURATION_ROWS {
            passwords.extend(trace.records[i % trace.records.len()].passwords());
            i += 1;
        }
        passwords.truncate(SATURATION_ROWS);
        let items: Vec<String> = passwords.iter().map(|p| format!("\"{p}\"")).collect();
        let body = format!(
            "{{\"model\":\"{}\",\"passwords\":[{}]}}",
            model_of(head),
            items.join(",")
        );
        probes.push((trace.records[head].endpoint.path(), body));
    }
    probes
}

/// Closed loop for `seconds`: each of the [`CONNECTIONS`] connections
/// keeps [`PIPELINE`] probes in flight, cycling through `probes`, and
/// sends the next as soon as an answer arrives.
fn hammer(addr: SocketAddr, probes: &[Probe], seconds: f64) -> Saturation {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let (mut sent, mut failed) = (0, 0);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let (mut sent, mut failed) = (0, 0);
                    let Ok(mut conn) = Client::open(addr) else {
                        return (1, 1);
                    };
                    let mut in_flight = 0;
                    loop {
                        while in_flight < PIPELINE && start.elapsed() < deadline {
                            let (path, body) =
                                &probes[next.fetch_add(1, Ordering::Relaxed) % probes.len()];
                            if conn.send(path, body).is_err() {
                                return (sent + 1, failed + 1);
                            }
                            sent += 1;
                            in_flight += 1;
                        }
                        if in_flight == 0 {
                            break;
                        }
                        match conn.read() {
                            Ok((200, _)) => {}
                            Ok(_) => failed += 1,
                            Err(_) => return (sent, failed + in_flight),
                        }
                        in_flight -= 1;
                    }
                    (sent, failed)
                })
            })
            .collect();
        for client in clients {
            let (s, f) = client.join().expect("a client thread panicked");
            sent += s;
            failed += f;
        }
    });
    Saturation {
        sent,
        failed,
        rps: (sent - failed) as f64 / start.elapsed().as_secs_f64(),
    }
}

/// Kept responses checked against offline scoring and the digest store.
#[derive(Clone, Copy, Default)]
struct Checked {
    /// Answered requests whose body did not hold one result per password.
    malformed: usize,
    /// Passwords whose `log_prob_bits` were compared, and how many matched.
    scores: usize,
    score_ok: usize,
    /// Screened passwords whose verdict was compared, and how many matched.
    screens: usize,
    screen_ok: usize,
}

/// What one password's result should say: its `log_prob_bits` (`None`
/// for a password the scorer cannot encode) and, for a screen, whether the
/// store holds it (`None` if the store could not answer).
type Expected = (Option<String>, Option<Option<bool>>);

/// Checks one response's results against what each password should get.
/// A missing `log_prob_bits` where a score is expected, and a `"breached":
/// null` verdict where the store answered, are mismatches.
fn check_results(c: &mut Checked, results: &[Json], expected: &[Expected]) {
    if results.len() != expected.len() {
        c.malformed += 1;
        return;
    }
    for (result, (bits, stored)) in results.iter().zip(expected) {
        let served = result.get("log_prob_bits").and_then(Json::as_str);
        c.scores += 1;
        c.score_ok += usize::from(bits.as_deref() == served);
        if let Some(stored) = stored {
            let verdict = match result.get("breached") {
                Some(Json::Bool(breached)) => Some(*breached),
                _ => None,
            };
            c.screens += 1;
            c.screen_ok += usize::from(verdict.is_some() && verdict == *stored);
        }
    }
}

/// Checks kept responses against offline scoring and the digest store.
fn check_responses(s: &Setup, rung: &Rung) -> Checked {
    let scorer = FlowScorer::new(&s.flow);
    let quant = QuantizedScorer::new(&s.flow);
    let mut c = Checked::default();
    for (offset, sent) in rung.requests.iter().enumerate() {
        let i = rung.first + offset;
        let Some(body) = &sent.body else { continue };
        if sent.status != 200 {
            continue;
        }
        let doc = std::str::from_utf8(body)
            .ok()
            .and_then(|t| json::parse(t).ok());
        let results = doc
            .as_ref()
            .and_then(|d| d.get("results"))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        let record = &s.trace.records[i];
        let expected: Vec<Expected> = record
            .passwords()
            .iter()
            .map(|password| {
                let offline = if model_of(i) == "int8" {
                    quant.log_prob(password)
                } else {
                    scorer.log_prob(password)
                };
                let stored = (record.endpoint == Endpoint::Screen).then(|| {
                    s.digest
                        .contains_password(password)
                        .ok()
                        .map(|hit| hit.is_some())
                });
                (offline.map(|lp| format!("{:016x}", lp.to_bits())), stored)
            })
            .collect();
        check_results(&mut c, results, &expected);
    }
    c
}

/// Records the response checks of every window.
fn report_checks(report: &mut Report, checked: &[Checked]) {
    let c = checked.iter().fold(Checked::default(), |a, c| Checked {
        malformed: a.malformed + c.malformed,
        scores: a.scores + c.scores,
        score_ok: a.score_ok + c.score_ok,
        screens: a.screens + c.screens,
        screen_ok: a.screen_ok + c.screen_ok,
    });
    say("checked.log_prob_bits", c.scores as f64, "count");
    say("checked.screen_verdicts", c.screens as f64, "count");
    report.check(
        "every checked response holds one result per password",
        c.malformed == 0,
    );
    report.check(
        "log_prob_bits of the checked responses equal offline FlowScorer/QuantizedScorer bits",
        c.scores > 0 && c.score_ok == c.scores,
    );
    report.check(
        "screen verdicts of the checked responses equal DigestStore::contains_password",
        c.screens > 0 && c.screen_ok == c.screens,
    );
}

/// The untraced run: `setup_s` from several set-ups, the ladder, then the
/// rounds of nominal and saturation windows.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let mut setup_times = Vec::new();
    let mut current: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = current.take() {
            old.stop();
        }
        let start = Instant::now();
        current = Some(setup(seed, seconds, "run"));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let s = current.expect("at least one set-up");
    say("serve.lanes", 1.0, "threads");
    say("serve.gemm_threads", 1.0, "threads");
    say("serve.connections", CONNECTIONS as f64, "count");

    let addr = s.handle.addr();
    let rungs: Vec<Rung> = LADDER
        .iter()
        .map(|&rate| replay(addr, &s.trace, 0, rung_requests(seconds, rate), rate, false))
        .collect();
    let mut capacity: Option<&Rung> = None;
    for rung in &rungs {
        rung.print();
        report.attempted += rung.requests.len() as u64;
        report.failed += rung.failed() as u64;
        if rung.passes() {
            capacity = Some(rung);
        }
    }
    let cap_rate = capacity.map_or(0.0, |c| c.rate);
    report.check(
        "rungs up to capacity report zero failed requests",
        rungs
            .iter()
            .filter(|r| r.rate <= cap_rate)
            .all(|r| r.failed() == 0),
    );
    say("capacity_rps", cap_rate, "1/s");

    let n = window_requests(seconds);
    let (mut p50s, mut p99s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut checked = Vec::new();
    let mut round_failures = 0;
    // More than a saturation window sends; each window cycles through them.
    let probes = saturation_probes(&s.trace, 4 * n);
    for round in 0..ROUNDS {
        let window = replay(addr, &s.trace, round * n, n, NOMINAL_RPS, true);
        let saturation = hammer(
            addr,
            &probes,
            round_seconds(seconds) * (1.0 - NOMINAL_SHARE),
        );
        checked.push(check_responses(&s, &window));
        let lat = window.latencies_ms();
        p50s.push(percentile(&lat, 50.0));
        p99s.push(percentile(&lat, 99.0));
        rates.push(saturation.rps * SATURATION_ROWS as f64);
        report.attempted += (window.requests.len() + saturation.sent) as u64;
        round_failures += window.failed() + saturation.failed;
    }
    report.failed += round_failures as u64;
    report.check("no request of the rounds failed", round_failures == 0);
    report_checks(report, &checked);
    say("nominal_rps", NOMINAL_RPS, "1/s");
    say("p50_ms", median(&p50s), "ms");
    say("p99_ms", median(&p99s), "ms");
    say("saturation_passwords_per_s", median(&rates), "1/s");
    report.set("throughput_per_s", median(&rates));
    report.set("setup_s", median(&setup_times));
    s.stop();
}

/// Batcher counters read from the server's `/metrics` rendering.
fn batcher_counters(handle: &ServerHandle) -> (f64, f64, f64, f64) {
    let metrics = handle.metrics();
    let text = metrics.render();
    let read = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (
        read("passflow_batch_size_count "),
        read("passflow_batch_size_sum "),
        metrics.shed_total() as f64,
        metrics.deadline_expired_total() as f64,
    )
}

/// The traced run: the nominal-rate requests of every round, then the same
/// requests through each layer's public calls, offline, with spans off and
/// with spans on.
///
/// The client spans are built after the replay from the times it records
/// for its own accounting, so they cost the replay nothing; the tracing
/// overhead is that of the offline calls.
pub fn run_traced(seed: u64, seconds: f64, report: &mut Report) {
    let s = setup(seed, seconds, "traced");
    let addr = s.handle.addr();
    let n = ROUNDS * window_requests(seconds);
    let before = batcher_counters(&s.handle);
    let rung = replay(addr, &s.trace, 0, n, NOMINAL_RPS, true);
    let after = batcher_counters(&s.handle);
    report.attempted += rung.requests.len() as u64;
    report.failed += rung.failed() as u64;
    report_checks(report, &[check_responses(&s, &rung)]);

    // Client spans: each request from its due time, split into the wait
    // for a connection and the server's answer.
    let tracer = Tracer::new();
    let base = tracer.now_ns();
    let ns = |d: Duration| base + d.as_nanos() as u64;
    let mut client = Vec::with_capacity(rung.requests.len() * 3);
    for (i, r) in rung.requests.iter().enumerate() {
        let request = tracer.span_at(
            "serve.request",
            "client",
            0,
            i as u64,
            (ns(r.due), ns(r.done)),
        );
        for (name, from, to) in [
            ("serve.conn_wait", r.due, r.sent),
            ("serve.server", r.sent, r.done),
        ] {
            client.push(tracer.span_at(name, "client", request.id, i as u64, (ns(from), ns(to))));
        }
        client.push(request);
    }
    tracer.extend(client);

    let start = Instant::now();
    time_layers(&s, &rung, &Tracer::disabled());
    let off = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let offline = time_layers(&s, &rung, &tracer);
    let on = start.elapsed().as_secs_f64();
    let all = tracer.take();
    spans::publish("serve", seed, &all);

    let wait = rung.lateness_ms();
    let server = rung.server_ms();
    report.set("serve.conn_wait_ms.p50", percentile(&wait, 50.0));
    report.set("serve.conn_wait_ms.p99", percentile(&wait, 99.0));
    report.set("serve.server_ms.p50", percentile(&server, 50.0));
    report.set("serve.server_ms.p99", percentile(&server, 99.0));
    let ticks = after.0 - before.0;
    report.set("batcher.ticks", ticks);
    report.set(
        "batcher.rows_per_tick",
        (after.1 - before.1) / ticks.max(1.0),
    );
    report.set("batcher.shed", after.2 - before.2);
    report.set("batcher.expired", after.3 - before.3);
    for (name, value) in offline {
        report.set(name, value);
    }
    report.set(
        "kernels.gemm_macs_per_scored_row",
        crate::flow_macs_per_row(s.flow.config()) as f64,
    );
    report.set("trace.overhead_s", on - off);
    s.stop();
}

/// Times each layer's public call on the rung's own requests, offline,
/// recording a span per call. Returns the median per call (per row for
/// the scorers) in microseconds.
fn time_layers(s: &Setup, rung: &Rung, tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let scorer = FlowScorer::new(&s.flow);
    let quant = QuantizedScorer::new(&s.flow);
    let mut ws = FlowWorkspace::new();
    let mut scores = Vec::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut timed = |name: &'static str, request: usize, per: usize, f: &mut dyn FnMut()| {
        let open = tracer.open(name, "offline", 0, request as u64);
        let start = Instant::now();
        f();
        let us = start.elapsed().as_secs_f64() * 1e6 / per.max(1) as f64;
        tracer.close(open);
        samples.entry(name).or_default().push(us);
    };
    for (i, record) in s
        .trace
        .records
        .iter()
        .enumerate()
        .take(OFFLINE_REQUESTS.min(rung.requests.len()))
    {
        let body = body(i, record);
        let raw = format!(
            "POST {} HTTP/1.1\r\nhost: loopback\r\ncontent-length: {}\r\n\r\n{body}",
            record.endpoint.path(),
            body.len()
        );
        let mut request = None;
        timed("http.read_request", i, 1, &mut || {
            request = Some(http::read_request(&mut BufReader::new(raw.as_bytes())));
        });
        let text = match request {
            Some(ReadOutcome::Request(req)) => String::from_utf8(req.body).unwrap_or_default(),
            _ => String::new(),
        };
        let mut passwords = Vec::new();
        timed("json.parse", i, 1, &mut || {
            passwords = json::parse(&text)
                .ok()
                .and_then(|doc| {
                    doc.get("passwords").and_then(Json::as_arr).map(|items| {
                        items
                            .iter()
                            .filter_map(|p| p.as_str().map(str::to_string))
                            .collect::<Vec<String>>()
                    })
                })
                .unwrap_or_default();
        });
        let rows = passwords.len();
        if model_of(i) == "int8" {
            timed("quant.logprob", i, rows, &mut || {
                quant.log_probs_with(&passwords, &mut ws, &mut scores)
            });
        } else {
            timed("fastpath.logprob", i, rows, &mut || {
                scorer.log_probs_with(&passwords, &mut ws, &mut scores)
            });
        }
        if record.endpoint != Endpoint::LogProb {
            for lp in scores.iter().flatten() {
                let mut estimate = None;
                timed("strength.estimate", i, 1, &mut || {
                    estimate = Some(s.table.estimate(*lp))
                });
                std::hint::black_box(estimate);
            }
        }
        if record.endpoint == Endpoint::Screen {
            for password in &passwords {
                let mut hit = None;
                timed("store.contains", i, 1, &mut || {
                    hit = Some(s.digest.contains_password(password))
                });
                std::hint::black_box(hit);
            }
        }
        let answer = rung.requests[i].body.clone().unwrap_or_default();
        let mut out = Vec::with_capacity(answer.len() + 128);
        timed("http.write_response", i, 1, &mut || {
            let _ = http::write_response(&mut out, 200, "application/json", &answer, true);
        });
    }
    let names = [
        ("http.read_request", "http.read_request_us"),
        ("json.parse", "json.parse_us"),
        ("fastpath.logprob", "fastpath.logprob_us_per_row"),
        ("quant.logprob", "quant.logprob_us_per_row"),
        ("strength.estimate", "strength.estimate_us"),
        ("store.contains", "store.contains_us"),
        ("http.write_response", "http.write_response_us"),
    ];
    names
        .iter()
        .map(|(span, metric)| (*metric, samples.get(span).map_or(0.0, |v| median(v))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(body: &str) -> Vec<Json> {
        match json::parse(body).expect("valid JSON") {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn bits(hex: &str) -> Option<String> {
        Some(hex.to_string())
    }

    #[test]
    fn matching_results_pass() {
        let mut c = Checked::default();
        let got = results(
            r#"[{"log_prob_bits":"00000000000000aa","breached":true},
                {"log_prob_bits":"00000000000000bb","breached":false}, null]"#,
        );
        let want = [
            (bits("00000000000000aa"), Some(Some(true))),
            (bits("00000000000000bb"), Some(Some(false))),
            (None, None),
        ];
        check_results(&mut c, &got, &want);
        assert_eq!((c.malformed, c.scores, c.score_ok), (0, 3, 3));
        assert_eq!((c.screens, c.screen_ok), (2, 2));
    }

    #[test]
    fn dropped_and_nulled_answers_are_mismatches() {
        // One result short.
        let mut c = Checked::default();
        let got = results(r#"[{"log_prob_bits":"00000000000000aa"}]"#);
        let want = [
            (bits("00000000000000aa"), None),
            (bits("0000000000000001"), None),
        ];
        check_results(&mut c, &got, &want);
        assert_eq!(c.malformed, 1);

        // A null score where the scorer gives one, and a withheld verdict.
        let mut c = Checked::default();
        let got = results(r#"[{"log_prob":null,"breached":null}]"#);
        check_results(
            &mut c,
            &got,
            &[(bits("00000000000000aa"), Some(Some(false)))],
        );
        assert_eq!((c.scores, c.score_ok, c.screens, c.screen_ok), (1, 0, 1, 0));
    }
}
