//! End-to-end breach screening: train a flow, attack a test set, archive
//! the cracked passwords into a `PFDIGEST v1` digest store, then screen a
//! wordlist against the archive — the full defender pipeline behind
//! `passflow serve --digest` (`cargo run --release -- serve --digest breach.pfd`).
//!
//! Self-checking: every assertion is a hard invariant (membership agrees
//! with the archive's input, counts sum across shards, the one-pass and
//! merged builds are byte-identical), and the process exits non-zero if
//! any fails.
//!
//! ```text
//! cargo run --release --example screening
//! ```

use std::collections::BTreeMap;

use passflow::store::sha1;
use passflow::{
    merge_artifacts, train, Attack, CorpusConfig, DigestConfig, DigestStore, DigestStoreBuilder,
    FlowConfig, PassFlow, SyntheticCorpusGenerator, TrainConfig,
};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scratch = std::env::temp_dir().join(format!("passflow-screening-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;

    // 1. Train a small flow and run a guessing attack.
    let corpus = SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(12_000)).generate(9);
    let split = corpus.paper_split(0.8, 3_000, 9);
    let targets = split.test_set();
    println!(
        "training on {} passwords, attacking {} targets",
        split.train.len(),
        targets.len()
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let flow = PassFlow::new(FlowConfig::tiny(), &mut rng)?;
    train(&flow, &split.train, &TrainConfig::tiny().with_epochs(2))?;
    let outcome = Attack::new(&targets).budget(20_000).run(&flow)?;
    println!(
        "attack cracked {} / {} targets",
        outcome.matched_passwords.len(),
        targets.len()
    );

    // 2. Archive the breach corpus — the training set (a defender's known
    //    breach dump) plus whatever the attack cracked — as a digest
    //    store; and again as four shards merged, which must produce the
    //    identical artifact.
    let archive: Vec<&str> = split
        .train
        .iter()
        .chain(outcome.matched_passwords.iter())
        .map(String::as_str)
        .collect();
    let one_pass = scratch.join("breached.pfd");
    let mut builder = DigestStoreBuilder::new(DigestConfig::default());
    for pw in &archive {
        builder.add_password(pw)?;
    }
    let stats = builder.finish(&one_pass)?;
    println!(
        "archived {} unique digests from {} passwords ({} bytes)",
        stats.record_count,
        archive.len(),
        stats.bytes
    );
    assert!(stats.record_count > 0, "the archive must not be empty");

    let shard_paths: Vec<_> = (0..4).map(|s| scratch.join(format!("s{s}.pfd"))).collect();
    for (s, path) in shard_paths.iter().enumerate() {
        let mut builder = DigestStoreBuilder::new(DigestConfig::default());
        for pw in archive.iter().skip(s).step_by(4) {
            builder.add_password(pw)?;
        }
        builder.finish(path)?;
    }
    let merged = scratch.join("merged.pfd");
    merge_artifacts(&shard_paths, &merged)?;
    assert_eq!(
        std::fs::read(&one_pass)?,
        std::fs::read(&merged)?,
        "one-pass and 4-shard-merged archives must be byte-identical"
    );
    println!("4-shard merge is byte-identical to the one-pass build");

    // 3. Screen a wordlist — the test set plus fresh passwords — and check
    //    every verdict (membership *and* count) against the archive input.
    let store = DigestStore::open(&one_pass)?;
    let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
    for pw in &archive {
        *expected.entry(pw).or_insert(0) += 1;
    }
    let fresh = SyntheticCorpusGenerator::new(CorpusConfig::small().with_size(500))
        .generate(77)
        .into_passwords();

    let mut screened = 0u64;
    let mut breached = 0u64;
    for pw in split
        .test_unique
        .iter()
        .chain(fresh.iter())
        .map(String::as_str)
    {
        let verdict = store.contains_password(pw)?;
        let want = expected.get(pw).copied();
        assert_eq!(
            verdict, want,
            "screening {pw:?}: store says {verdict:?}, archive input says {want:?}"
        );
        screened += 1;
        if verdict.is_some() {
            breached += 1;
        }
    }
    assert!(breached > 0, "some test passwords reuse breached ones");
    assert!(breached < screened, "some screened passwords must be clean");
    println!("screened {screened} passwords, {breached} breached — all verdicts exact");

    // 4. The k-anonymity range view agrees with direct membership: each
    //    archived password's suffix is present under its 5-hex-char prefix
    //    with the right count.
    for pw in archive.iter().take(50) {
        let hex = sha1::to_hex(&sha1::password_digest(pw));
        let (prefix, _) = hex.split_at(5);
        let entries = store.range(prefix)?;
        let count = expected[pw];
        assert!(
            entries
                .iter()
                .any(|e| hex[5..].starts_with(&e.suffix) && e.count == count),
            "{pw:?}: prefix {prefix} range lacks its suffix (entries: {entries:?})"
        );
    }
    println!("k-anonymity range queries agree with direct membership");

    std::fs::remove_dir_all(&scratch)?;
    println!("ok");
    Ok(())
}
