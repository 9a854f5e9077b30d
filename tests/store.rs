//! Store conformance suite: build → query round-trips against `BTreeMap`
//! oracles (with external-sort spills forced), byte-identical one-pass vs
//! sharded-merge builds (merge associativity and commutativity), corruption
//! and truncation detection on load, and boundary prefix queries — for both
//! the `PFDIGEST v1` digest stores and the `PFGUESS v1` guess archives.

use std::collections::BTreeMap;
use std::path::PathBuf;

use passflow::store::{sha1, StoreError};
use passflow::{
    merge_archives, merge_artifacts, DigestConfig, DigestStore, DigestStoreBuilder, GuessArchive,
    GuessArchiveBuilder, GuessConfig,
};

/// A scratch dir that removes itself (and its artifacts) on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "pfdigest-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic synthetic passwords with deliberate duplicates.
fn corpus(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("pw-{}-{}", i % (n / 3 + 1), i % 7))
        .collect()
}

#[test]
fn round_trip_matches_btreemap_oracle_with_spills_forced() {
    let scratch = Scratch::new("oracle");
    let passwords = corpus(5_000);

    // Oracle: digest-keyed counts, exactly the artifact's dedup semantics.
    let mut oracle: BTreeMap<[u8; 20], u64> = BTreeMap::new();
    for pw in &passwords {
        *oracle.entry(sha1::password_digest(pw)).or_insert(0) += 1;
    }

    // 64-record spill threshold forces dozens of external-sort runs.
    let mut builder = DigestStoreBuilder::new(DigestConfig::default())
        .with_memory_records(64)
        .with_scratch_dir(&scratch.0);
    for pw in &passwords {
        builder.add_password(pw).unwrap();
    }
    let out = scratch.path("oracle.pfd");
    let stats = builder.finish(&out).unwrap();
    assert_eq!(stats.record_count, oracle.len() as u64);

    let store = DigestStore::open(&out).unwrap();
    assert_eq!(store.record_count(), oracle.len() as u64);
    store.verify().unwrap();

    // Membership and counts agree with the oracle for every member…
    for (digest, count) in &oracle {
        assert_eq!(store.contains_digest(digest).unwrap(), Some(*count));
    }
    // …and for known non-members.
    for i in 0..500u64 {
        let absent = sha1::sha1(&i.to_be_bytes());
        let expected = oracle.get(&absent).copied();
        assert_eq!(store.contains_digest(&absent).unwrap(), expected);
    }

    // Range queries reconstruct the full record set exactly.
    let mut reconstructed: BTreeMap<[u8; 20], u64> = BTreeMap::new();
    for block in 0u32..256 {
        let prefix = format!("{block:02X}");
        for entry in store.range(&prefix).unwrap() {
            let hex = format!("{prefix}{}", entry.suffix);
            let bytes = sha1::from_hex(&hex).unwrap();
            let mut digest = [0u8; 20];
            digest[..bytes.len()].copy_from_slice(&bytes);
            reconstructed.insert(digest, entry.count);
        }
    }
    // The store truncates digests to 16 bytes; truncate the oracle to match.
    let truncated: BTreeMap<[u8; 20], u64> = oracle
        .iter()
        .map(|(d, c)| {
            let mut t = [0u8; 20];
            t[..16].copy_from_slice(&d[..16]);
            (t, *c)
        })
        .collect();
    assert_eq!(reconstructed, truncated);
}

#[test]
fn one_pass_and_sharded_merge_builds_are_byte_identical() {
    let scratch = Scratch::new("merge");
    let passwords = corpus(4_000);

    // One-pass build over everything.
    let one_pass = scratch.path("one_pass.pfd");
    let mut builder = DigestStoreBuilder::new(DigestConfig::default());
    for pw in &passwords {
        builder.add_password(pw).unwrap();
    }
    builder.finish(&one_pass).unwrap();

    // Four overlapping shards (offset windows, so counts must sum).
    let shard_paths: Vec<PathBuf> = (0..4).map(|s| scratch.path(&format!("s{s}.pfd"))).collect();
    for (s, path) in shard_paths.iter().enumerate() {
        let mut builder = DigestStoreBuilder::new(DigestConfig::default());
        for pw in passwords.iter().skip(s).step_by(4) {
            builder.add_password(pw).unwrap();
        }
        builder.finish(path).unwrap();
    }

    // 4-way merge == one-pass, byte for byte.
    let merged_4way = scratch.path("m4.pfd");
    merge_artifacts(&shard_paths, &merged_4way).unwrap();
    let reference = std::fs::read(&one_pass).unwrap();
    assert_eq!(std::fs::read(&merged_4way).unwrap(), reference, "4-way");

    // Associativity: merge(merge(s0,s1), merge(s2,s3)) == one-pass.
    let left = scratch.path("left.pfd");
    let right = scratch.path("right.pfd");
    merge_artifacts(&shard_paths[..2], &left).unwrap();
    merge_artifacts(&shard_paths[2..], &right).unwrap();
    let pairwise = scratch.path("pairwise.pfd");
    merge_artifacts(&[left, right], &pairwise).unwrap();
    assert_eq!(std::fs::read(&pairwise).unwrap(), reference, "associative");

    // Commutativity: reversed shard order == one-pass.
    let reversed: Vec<PathBuf> = shard_paths.iter().rev().cloned().collect();
    let merged_rev = scratch.path("rev.pfd");
    merge_artifacts(&reversed, &merged_rev).unwrap();
    assert_eq!(
        std::fs::read(&merged_rev).unwrap(),
        reference,
        "commutative"
    );

    // And the merged store serves identical range responses.
    let a = DigestStore::open(&one_pass).unwrap();
    let b = DigestStore::open(&merged_4way).unwrap();
    for pw in passwords.iter().take(64) {
        let prefix = &sha1::to_hex(&sha1::password_digest(pw))[..5];
        assert_eq!(a.range(prefix).unwrap(), b.range(prefix).unwrap());
    }
}

#[test]
fn merge_rejects_mismatched_configs_and_empty_inputs() {
    let scratch = Scratch::new("mismatch");
    let wide = scratch.path("wide.pfd");
    let narrow = scratch.path("narrow.pfd");
    let mut builder = DigestStoreBuilder::new(DigestConfig::default());
    builder.add_password("alpha").unwrap();
    builder.finish(&wide).unwrap();
    let mut builder = DigestStoreBuilder::new(DigestConfig {
        digest_bytes: 8,
        ..DigestConfig::default()
    });
    builder.add_password("alpha").unwrap();
    builder.finish(&narrow).unwrap();

    let out = scratch.path("out.pfd");
    let err = merge_artifacts(&[wide, narrow], &out).unwrap_err();
    assert!(
        err.to_string().contains("mismatched"),
        "unexpected error: {err}"
    );
    let none: [PathBuf; 0] = [];
    assert!(merge_artifacts(&none, &out).is_err(), "empty input list");
}

#[test]
fn corrupted_and_truncated_artifacts_fail_to_open_or_verify() {
    let scratch = Scratch::new("corrupt");
    let path = scratch.path("victim.pfd");
    let mut builder = DigestStoreBuilder::new(DigestConfig::default());
    for pw in corpus(2_000) {
        builder.add_password(&pw).unwrap();
    }
    builder.finish(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Sanity: the pristine artifact opens and verifies.
    DigestStore::open(&path).unwrap().verify().unwrap();

    // Bad magic.
    let mut bytes = pristine.clone();
    bytes[0] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(DigestStore::open(&path).is_err(), "bad magic must not open");

    // Unsupported version.
    let mut bytes = pristine.clone();
    bytes[8] = 99;
    std::fs::write(&path, &bytes).unwrap();
    assert!(DigestStore::open(&path).is_err(), "bad version");

    // Truncation: drop the tail (index) — open must fail, not misread.
    for keep in [10, 63, 64, pristine.len() / 2, pristine.len() - 7] {
        std::fs::write(&path, &pristine[..keep]).unwrap();
        assert!(DigestStore::open(&path).is_err(), "truncated to {keep}");
    }

    // Flipping a record byte passes open (header and index are intact) but
    // must be caught by the checksum verify pass.
    let mut bytes = pristine.clone();
    bytes[70] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    match DigestStore::open(&path) {
        // Either the decode breaks outright (fine), or verify flags it.
        Err(_) => {}
        Ok(store) => {
            assert!(store.verify().is_err(), "checksum must catch a bit flip");
        }
    }

    // Header fields no checksum covers, patched in both formats: a huge
    // block count must not reserve memory before the index is read, and a
    // huge block size must not let lookups size buffers from it (the writer
    // fills every block but the last, so the index contradicts it).
    let guess_path = scratch.path("victim.pfg");
    let mut builder = GuessArchiveBuilder::new(GuessConfig::default());
    for w in corpus(2_000) {
        builder.add_guess(&w, 1).unwrap();
    }
    builder.finish(&guess_path).unwrap();
    let guess_pristine = std::fs::read(&guess_path).unwrap();
    let patches: [(usize, &[u8]); 2] = [
        (32, &(1u64 << 58).to_le_bytes()),
        (16, &u32::MAX.to_le_bytes()),
    ];
    for (at, patch) in patches {
        let mut bytes = pristine.clone();
        bytes[at..at + patch.len()].copy_from_slice(patch);
        std::fs::write(&path, &bytes).unwrap();
        let err = DigestStore::open(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::Format(_)),
            "PFDIGEST @{at}: {err}"
        );

        let mut bytes = guess_pristine.clone();
        bytes[at..at + patch.len()].copy_from_slice(patch);
        std::fs::write(&guess_path, &bytes).unwrap();
        let err = GuessArchive::open(&guess_path).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)), "PFGUESS @{at}: {err}");
    }
}

#[test]
fn empty_store_and_boundary_prefixes_answer_cleanly() {
    let scratch = Scratch::new("boundary");

    // An empty store is valid: zero records, every query answers empty.
    let empty = scratch.path("empty.pfd");
    DigestStoreBuilder::new(DigestConfig::default())
        .finish(&empty)
        .unwrap();
    let store = DigestStore::open(&empty).unwrap();
    assert_eq!(store.record_count(), 0);
    store.verify().unwrap();
    assert_eq!(store.contains_password("anything").unwrap(), None);
    assert!(store.range("00000").unwrap().is_empty());
    assert!(store.range("FFFFF").unwrap().is_empty());

    // A store with digests pinned at both extremes of the keyspace.
    let edges = scratch.path("edges.pfd");
    let mut builder = DigestStoreBuilder::new(DigestConfig::default());
    builder.add_digest(&[0x00; 20], 3).unwrap();
    builder.add_digest(&[0xFF; 20], 9).unwrap();
    builder.finish(&edges).unwrap();
    let store = DigestStore::open(&edges).unwrap();

    let low = store.range("00000").unwrap();
    assert_eq!(low.len(), 1);
    assert_eq!(low[0].count, 3);
    assert!(low[0].suffix.chars().all(|c| c == '0'));
    let high = store.range("fffff").unwrap();
    assert_eq!(high.len(), 1, "lowercase prefixes work too");
    assert_eq!(high[0].count, 9);
    assert!(store.range("77777").unwrap().is_empty(), "middle is empty");

    // Prefix validation: empty, non-hex, and longer than the digest.
    assert!(store.range("").is_err());
    assert!(store.range("zzzzz").is_err());
    assert!(store.range(&"A".repeat(33)).is_err(), "33 > 2×16 hex chars");
    // A whole-digest prefix (32 hex chars at 16 stored bytes) is allowed
    // and acts as exact lookup.
    let full = sha1::to_hex(&[0u8; 16]);
    assert_eq!(store.range(&full).unwrap().len(), 1);
}

#[test]
fn injected_faults_are_deterministic_and_outages_surface_typed_errors() {
    use passflow::store::{FaultPlan, FaultyIo, FileIo};

    let scratch = Scratch::new("faults");
    let path = scratch.path("faulty.pfd");
    let mut builder = DigestStoreBuilder::new(DigestConfig::default());
    for pw in corpus(3_000) {
        builder.add_password(&pw).unwrap();
    }
    builder.finish(&path).unwrap();
    let clean = DigestStore::open(&path).unwrap();

    // ~35% of reads misbehave, deterministically per (seed, read index).
    let plan = FaultPlan {
        seed: 42,
        short_read_per_mille: 150,
        interrupt_per_mille: 120,
        transient_per_mille: 80,
        latency: std::time::Duration::ZERO,
    };
    let probes: Vec<String> = corpus(200);
    let run = || {
        let io = FaultyIo::new(Box::new(FileIo::open(&path).unwrap()), plan);
        let injector = io.injector();
        // Open quietly (the corruption tests own open-failure paths),
        // then arm the plan for every lookup.
        injector.set_active(false);
        let store = DigestStore::open_with_io(&path, Box::new(io)).unwrap();
        injector.set_active(true);
        let verdicts: Vec<Option<u64>> = probes
            .iter()
            .map(|pw| store.contains_password(pw).unwrap())
            .collect();
        (store, injector, verdicts)
    };

    // Same seed → same fault stream → same injected count, twice over.
    let (store, injector, verdicts) = run();
    let (_store2, injector2, verdicts2) = run();
    assert_eq!(verdicts, verdicts2, "same seed, same outcomes");
    assert_eq!(injector.injected_faults(), injector2.injected_faults());
    assert!(injector.injected_faults() > 0, "the plan must have fired");

    // Bounded retries make the noisy store answer exactly like the clean
    // one — membership, counts, and a full checksum verify pass.
    for (pw, verdict) in probes.iter().zip(&verdicts) {
        assert_eq!(clean.contains_password(pw).unwrap(), *verdict, "{pw}");
    }
    store.verify().unwrap();

    // A total outage is a *typed* availability error — distinct from
    // corruption, and never a panic.
    let member = &probes[0];
    let prefix = sha1::to_hex(&sha1::password_digest(member))[..5].to_string();
    injector.set_outage(true);
    let err = store.contains_password(member).unwrap_err();
    assert!(err.is_unavailable(), "got {err}");
    assert!(err.to_string().contains("store unavailable"), "{err}");
    let err = store.range(&prefix).unwrap_err();
    assert!(err.is_unavailable(), "range too: {err}");

    // And the moment the outage ends, the store serves again.
    injector.set_outage(false);
    assert_eq!(
        store.contains_password(member).unwrap(),
        clean.contains_password(member).unwrap()
    );
}

#[test]
fn guess_archive_round_trip_matches_btreemap_oracle_with_spills_forced() {
    let scratch = Scratch::new("guess-oracle");
    let words = corpus(5_000);

    // Oracle: per-guess emission counts, exactly the archive's semantics.
    let mut oracle: BTreeMap<String, u64> = BTreeMap::new();
    for w in &words {
        *oracle.entry(w.clone()).or_insert(0) += 1;
    }

    // 64-record spill threshold forces dozens of external-sort runs.
    let mut builder = GuessArchiveBuilder::new(GuessConfig::default())
        .with_memory_records(64)
        .with_scratch_dir(&scratch.0);
    for w in &words {
        builder.add_guess(w, 1).unwrap();
    }
    let out = scratch.path("oracle.pfg");
    let stats = builder.finish(&out).unwrap();
    assert_eq!(stats.record_count, oracle.len() as u64);

    let archive = GuessArchive::open(&out).unwrap();
    archive.verify().unwrap();
    assert_eq!(archive.record_count(), oracle.len() as u64);

    // Point lookups agree with the oracle for members and non-members.
    for (w, count) in &oracle {
        assert_eq!(archive.contains(w).unwrap(), Some(*count), "{w}");
    }
    assert_eq!(archive.contains("definitely-absent").unwrap(), None);
    assert_eq!(archive.contains("pw-").unwrap(), None, "prefix ≠ member");

    // Every corpus word starts with "pw-", so one prefix extraction must
    // reconstruct the whole oracle.
    let extracted: BTreeMap<String, u64> =
        archive.extract_prefix("pw-").unwrap().into_iter().collect();
    assert_eq!(extracted, oracle);
    assert!(archive.extract_prefix("zz").unwrap().is_empty());

    // The sequential cursor serves the same records, sorted and deduped.
    let mut cursor = archive.records();
    let mut seen: Vec<(String, u64)> = Vec::new();
    while let Some((bytes, count)) = cursor.next_record().unwrap() {
        seen.push((String::from_utf8(bytes).unwrap(), count));
    }
    assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "sorted + deduped");
    assert_eq!(seen.into_iter().collect::<BTreeMap<_, _>>(), oracle);
}

#[test]
fn guess_archive_merge_trees_match_single_pass_byte_for_byte() {
    let scratch = Scratch::new("guess-merge");
    let words = corpus(4_000);

    // One-pass build over everything.
    let one_pass = scratch.path("one_pass.pfg");
    let mut builder = GuessArchiveBuilder::new(GuessConfig::default());
    for w in &words {
        builder.add_guess(w, 1).unwrap();
    }
    builder.finish(&one_pass).unwrap();
    let reference = std::fs::read(&one_pass).unwrap();

    // Four overlapping shards (offset windows, so counts must sum).
    let shard_paths: Vec<PathBuf> = (0..4).map(|s| scratch.path(&format!("s{s}.pfg"))).collect();
    for (s, path) in shard_paths.iter().enumerate() {
        let mut builder = GuessArchiveBuilder::new(GuessConfig::default());
        for w in words.iter().skip(s).step_by(4) {
            builder.add_guess(w, 1).unwrap();
        }
        builder.finish(path).unwrap();
    }

    // 4-way merge == one-pass, byte for byte.
    let merged_4way = scratch.path("m4.pfg");
    merge_archives(&shard_paths, &merged_4way).unwrap();
    assert_eq!(std::fs::read(&merged_4way).unwrap(), reference, "4-way");

    // Associativity: merge(merge(s0,s1), merge(s2,s3)) == one-pass.
    let left = scratch.path("left.pfg");
    let right = scratch.path("right.pfg");
    merge_archives(&shard_paths[..2], &left).unwrap();
    merge_archives(&shard_paths[2..], &right).unwrap();
    let pairwise = scratch.path("pairwise.pfg");
    merge_archives(&[left, right], &pairwise).unwrap();
    assert_eq!(std::fs::read(&pairwise).unwrap(), reference, "associative");

    // Commutativity: reversed shard order == one-pass.
    let reversed: Vec<PathBuf> = shard_paths.iter().rev().cloned().collect();
    let merged_rev = scratch.path("rev.pfg");
    merge_archives(&reversed, &merged_rev).unwrap();
    assert_eq!(
        std::fs::read(&merged_rev).unwrap(),
        reference,
        "commutative"
    );

    // And the merged archive serves identical lookups.
    let a = GuessArchive::open(&one_pass).unwrap();
    let b = GuessArchive::open(&merged_4way).unwrap();
    b.verify().unwrap();
    for w in words.iter().take(64) {
        assert_eq!(a.contains(w).unwrap(), b.contains(w).unwrap(), "{w}");
    }
}

#[test]
fn failed_guess_archive_builds_leave_no_scratch_debris() {
    let scratch = Scratch::new("guess-fault");
    let dir = scratch.path("spill-scratch");
    std::fs::create_dir_all(&dir).unwrap();

    {
        // The second spill (0-based nth = 1) dies after 16 bytes, after the
        // first spill has already parked a healthy run file in `dir`.
        let mut builder = GuessArchiveBuilder::new(GuessConfig::default())
            .with_memory_records(32)
            .with_scratch_dir(&dir)
            .with_injected_spill_fault(1, 16);
        let mut failed = false;
        for w in corpus(2_000) {
            if let Err(e) = builder.add_guess(&w, 1) {
                assert!(e.to_string().contains("injected"), "unexpected: {e}");
                failed = true;
                break;
            }
        }
        if !failed {
            builder.finish(scratch.path("out.pfg")).unwrap_err();
        }
        // While the builder lives, the healthy first run may still exist…
    }
    // …but its drop guard must unlink every pfguess-run-*.tmp.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(leftovers.is_empty(), "scratch debris: {leftovers:?}");
}

#[test]
fn counts_disabled_stores_serve_presence_only() {
    let scratch = Scratch::new("nocounts");
    let path = scratch.path("presence.pfd");
    let mut builder = DigestStoreBuilder::new(DigestConfig {
        counts: false,
        ..DigestConfig::default()
    });
    builder.add_password("hello").unwrap();
    builder.add_password("hello").unwrap();
    builder.add_password("world").unwrap();
    builder.finish(&path).unwrap();

    let store = DigestStore::open(&path).unwrap();
    assert_eq!(store.record_count(), 2);
    // Counts collapse to 1 when the artifact does not store them.
    assert_eq!(store.contains_password("hello").unwrap(), Some(1));
    assert_eq!(store.contains_password("absent").unwrap(), None);
}

/// FNV-1a-64 of a whole file — kept local so the pin does not depend on the
/// store's own hashing code.
fn file_fnv(path: &std::path::Path) -> u64 {
    std::fs::read(path)
        .unwrap()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Fixed input with repeats (so counts exceed 1) and shared prefixes.
fn pin_words() -> Vec<String> {
    (0..40u32)
        .map(|i| format!("pin{}-{}", i % 17, "x".repeat((i % 5) as usize)))
        .collect()
}

#[test]
fn on_disk_bytes_are_pinned() {
    let scratch = Scratch::new("pin");
    let mut digests = Vec::new();
    for counts in [true, false] {
        for digest_bytes in [4, 16, 20] {
            let path = scratch.path(&format!("pin-{digest_bytes}-{counts}.pfd"));
            let mut builder = DigestStoreBuilder::new(DigestConfig {
                digest_bytes,
                counts,
                records_per_block: 3,
            })
            .with_memory_records(7)
            .with_scratch_dir(&scratch.0);
            for w in pin_words() {
                builder.add_password(&w).unwrap();
            }
            let stats = builder.finish(&path).unwrap();
            assert!(stats.block_count > 1, "several blocks");
            digests.push(file_fnv(&path));
        }
    }
    assert_eq!(
        digests,
        [
            0xe5cc_f56d_f16d_ae6c,
            0x58f7_9482_1de4_499a,
            0xf3ef_434b_74cf_58af,
            0xd0ff_0b8c_1aca_8cd9,
            0x309b_eddf_0c46_2643,
            0xac2f_4a3d_3a91_b95a
        ],
        "PFDIGEST bytes drifted"
    );

    let mut guesses = Vec::new();
    for counts in [true, false] {
        let path = scratch.path(&format!("pin-{counts}.pfg"));
        let mut builder = GuessArchiveBuilder::new(GuessConfig {
            counts,
            records_per_block: 3,
        })
        .with_memory_records(7)
        .with_scratch_dir(&scratch.0);
        for (i, w) in pin_words().iter().enumerate() {
            builder.add_guess(w, i as u64 % 4).unwrap();
        }
        let stats = builder.finish(&path).unwrap();
        assert!(stats.block_count > 1, "several blocks");
        guesses.push(file_fnv(&path));
    }
    assert_eq!(
        guesses,
        [0x1939_3d4b_5f8e_b625, 0x380d_2cff_5ce1_1d76],
        "PFGUESS bytes drifted"
    );

    let mut words = pin_words();
    words.sort();
    words.dedup();
    let path = scratch.path("pin.stream");
    let mut stream =
        passflow::store::GuessStreamWriter::new(std::fs::File::create(&path).unwrap(), true);
    for (i, w) in words.iter().enumerate() {
        stream.push(w.as_bytes(), i as u64 * 300).unwrap();
    }
    stream.flush().unwrap();
    drop(stream);
    assert_eq!(
        file_fnv(&path),
        0x56d5_f3d1_92d3_37aa,
        "guess stream bytes drifted"
    );
}
