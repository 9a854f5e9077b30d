//! Trace determinism suite: `PFTRACE v1` artifacts round-trip
//! byte-identically, seeded synthesis is reproducible, and replaying the
//! same trace against different lane counts yields the **same outcomes**
//! — same statuses, same exact score bits, same breach verdicts — for
//! every record.
//!
//! That last property is what makes the trace format a correctness tool,
//! not just a load tool: a whole recorded *workload* becomes a fixture
//! against which "sharding changed nothing observable" is one `assert_eq`.

use std::sync::Arc;
use std::time::Duration;

use passflow::serve::trace::{replay, Endpoint, Trace, TraceRecord, TraceSynthProfile};
use passflow::serve::{serve, BatcherConfig, ModelRegistry, ServedModel, ServerConfig};
use passflow::{DigestConfig, DigestStoreBuilder, FlowConfig, PassFlow};

fn tiny_flow(seed: u64) -> PassFlow {
    let mut rng = passflow::nn::rng::seeded(seed);
    PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap()
}

/// A digest store fixture so `/v1/screen` records get real verdicts.
fn digest_fixture(tag: &str) -> (Arc<passflow::DigestStore>, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!("pftrace-test-{tag}-{}.pfd", std::process::id()));
    let mut builder = DigestStoreBuilder::new(DigestConfig::default());
    for pw in ["password1", "dragon", "letmein"] {
        builder.add_password(pw).unwrap();
    }
    builder.finish(&path).unwrap();
    (Arc::new(passflow::DigestStore::open(&path).unwrap()), path)
}

#[test]
fn pftrace_round_trips_byte_identically_through_a_file() {
    let trace = Trace::synth(0xFEED, 400, &TraceSynthProfile::default());
    let path =
        std::env::temp_dir().join(format!("pftrace-roundtrip-{}.pftrace", std::process::id()));
    trace.write(&path).expect("write trace");
    let loaded = Trace::load(&path).expect("load trace");
    assert_eq!(loaded, trace, "record -> write -> read must be lossless");
    assert_eq!(
        loaded.to_bytes(),
        trace.to_bytes(),
        "re-serialization must be byte-identical"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn overwriting_a_trace_replaces_the_file_instead_of_rewriting_it() {
    let dir = std::env::temp_dir();
    let stem = format!("pftrace-overwrite-{}", std::process::id());
    let path = dir.join(format!("{stem}.pftrace"));
    let link = dir.join(format!("{stem}.link"));
    let tmp = dir.join(format!("{stem}.pftrace.tmp"));
    let _ = std::fs::remove_file(&link);
    let old = Trace::synth(1, 300, &TraceSynthProfile::default());
    let new = Trace::synth(2, 120, &TraceSynthProfile::default());
    old.write(&path).expect("write first trace");
    // A second name for the first file: an in-place rewrite would change
    // what it reads, a replacement through rename leaves it alone.
    std::fs::hard_link(&path, &link).expect("hard-link the first trace");

    new.write(&path).expect("overwrite trace");
    assert_eq!(
        std::fs::read(&path).expect("read overwritten trace"),
        new.to_bytes(),
        "the overwritten trace must load back byte-identical"
    );
    assert_eq!(Trace::load(&path).expect("load overwritten trace"), new);
    assert_eq!(
        std::fs::read(&link).expect("read the first trace's other name"),
        old.to_bytes(),
        "the previous file must be replaced, not rewritten in place"
    );
    assert!(!tmp.exists(), "no .tmp sibling may be left behind");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&link);
}

#[test]
fn seeded_synth_is_reproducible_and_covers_the_endpoint_mix() {
    let profile = TraceSynthProfile::default();
    let a = Trace::synth(2026, 1_000, &profile);
    let b = Trace::synth(2026, 1_000, &profile);
    assert_eq!(a, b, "same seed, same trace — on every run");
    assert_ne!(
        a,
        Trace::synth(2027, 1_000, &profile),
        "a different seed must produce a different workload"
    );

    // The mix holds all three endpoints and a heavy batch tail.
    let screens = a
        .records
        .iter()
        .filter(|r| r.endpoint == Endpoint::Screen)
        .count();
    let logprobs = a
        .records
        .iter()
        .filter(|r| r.endpoint == Endpoint::LogProb)
        .count();
    assert!(screens > 0, "screen endpoint missing from the mix");
    assert!(logprobs > 0, "logprob endpoint missing from the mix");
    assert!(
        a.records.iter().any(|r| r.batch > 4),
        "heavy-tailed batches must occasionally exceed a handful of rows"
    );
    assert!(
        a.records.iter().filter(|r| r.batch == 1).count() > screens,
        "singleton requests must dominate the tail"
    );

    // Password derivation is part of the determinism contract.
    let pw_a: Vec<Vec<String>> = a
        .records
        .iter()
        .take(50)
        .map(TraceRecord::passwords)
        .collect();
    let pw_b: Vec<Vec<String>> = b
        .records
        .iter()
        .take(50)
        .map(TraceRecord::passwords)
        .collect();
    assert_eq!(pw_a, pw_b);
}

#[test]
fn replaying_one_trace_across_lane_counts_gives_identical_outcomes() {
    // Small but real: ~120 records across all three endpoints, replayed by
    // 8 concurrent clients against lanes=1, 2 and 4 servers built from
    // the same model seed. Every record's observable outcome — status,
    // exact score bits per password, breach verdicts via status/bits of
    // /v1/screen — must match index-for-index.
    let trace = Trace::synth(
        7,
        120,
        &TraceSynthProfile {
            mean_gap_us: 100,
            ..TraceSynthProfile::default()
        },
    );
    let (digest, path) = digest_fixture("xlane");

    let mut runs = Vec::new();
    for lanes in [1usize, 2, 4] {
        let flow = tiny_flow(90);
        let registry = Arc::new(ModelRegistry::new());
        registry.insert(ServedModel::from_flow("default", &flow, 1, None));
        let server = serve(
            ServerConfig {
                batcher: BatcherConfig {
                    lanes,
                    max_batch: 32,
                    max_wait: Duration::from_millis(2),
                    queue_capacity: 1024,
                    ..BatcherConfig::default()
                },
                digest: Some(Arc::clone(&digest)),
                read_timeout: Duration::from_secs(10),
                ..ServerConfig::default()
            },
            registry,
        )
        .expect("bind on loopback");
        let outcomes = replay(server.addr(), &trace, 8).expect("replay");
        server.shutdown();
        server.join();

        assert_eq!(outcomes.len(), trace.records.len(), "lanes={lanes}");
        assert!(
            outcomes.iter().all(|o| o.status == 200),
            "lanes={lanes}: every replayed request must succeed"
        );
        runs.push(outcomes);
    }

    let single = &runs[0];
    for sharded in &runs[1..] {
        for (a, b) in single.iter().zip(sharded.iter()) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.status, b.status, "record {} status drifted", a.index);
            assert_eq!(
                a.bits, b.bits,
                "record {}: score bits must be identical at any lane count",
                a.index
            );
            assert_eq!(
                a.verdicts, b.verdicts,
                "record {}: breach verdicts must be identical at any lane count",
                a.index
            );
        }
    }
    let _ = std::fs::remove_file(path);
}
