//! Drives the `passflow` binary end to end through its fast subcommands:
//! the digest and archive tools, `report table1` (which needs no trained
//! workbench), and the argument errors that must stop a run before it
//! trains, binds or writes anything.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("passflow-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn write(&self, name: &str, contents: &str) {
        std::fs::write(self.0.join(name), contents).unwrap();
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `passflow` with the whitespace-separated `args` in `dir`.
fn passflow(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_passflow"))
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("spawning passflow")
}

/// Runs `passflow args` in `dir`, asserts success and returns stdout.
fn ok(dir: &Path, args: &str) -> String {
    let out = passflow(dir, args);
    assert!(
        out.status.success(),
        "passflow {args} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn digest_build_merge_verify_and_query() {
    let tmp = TempDir::new("digest");
    let dir = tmp.0.as_path();
    tmp.write("a.txt", "password123\nletmein\ndragon\n");
    tmp.write("b.txt", "dragon\nqwerty\n");
    ok(dir, "digest build --out a.pfd a.txt");
    ok(dir, "digest build --out b.pfd b.txt");
    ok(dir, "digest merge --out m.pfd a.pfd b.pfd");
    assert!(ok(dir, "digest verify --digest m.pfd").starts_with("ok: 4 records"));

    let breached = ok(dir, "digest query --digest m.pfd --password dragon");
    assert!(breached.starts_with("BREACHED ") && breached.trim_end().ends_with("count=2"));
    let clean = ok(dir, "digest query --digest m.pfd --password jimmy91");
    assert!(clean.starts_with("CLEAN "), "{clean}");
}

#[test]
fn digest_hash_prints_the_sha1() {
    let tmp = TempDir::new("hash");
    assert_eq!(
        ok(&tmp.0, "digest hash password123"),
        "CBFDAC6008F9CAB4083784CBD1874F76618D2A97\n"
    );
}

#[test]
fn archive_merge_is_order_independent_and_verify_catches_a_flipped_byte() {
    let tmp = TempDir::new("archive");
    let dir = tmp.0.as_path();
    tmp.write("a.txt", "dragon\nletmein\ndragon\n");
    tmp.write("b.txt", "dragon\nqwerty\n");
    ok(dir, "archive build --out a.pfg a.txt");
    ok(dir, "archive build --out b.pfg b.txt");
    ok(dir, "archive merge --out ab.pfg a.pfg b.pfg");
    ok(dir, "archive merge --out ba.pfg b.pfg a.pfg");
    let ab = std::fs::read(dir.join("ab.pfg")).unwrap();
    assert_eq!(ab, std::fs::read(dir.join("ba.pfg")).unwrap());
    assert!(ok(dir, "archive verify --archive ab.pfg").starts_with("ok: 3 records"));
    let dragon = ok(dir, "archive query --archive ab.pfg --guess dragon");
    assert_eq!(dragon, "PRESENT dragon count=3\n");

    let mut corrupt = ab;
    corrupt[70] ^= 0x01;
    std::fs::write(dir.join("bad.pfg"), corrupt).unwrap();
    let out = passflow(dir, "archive verify --archive bad.pfg");
    assert!(!out.status.success(), "verify accepted a corrupted PFGUESS");
}

#[test]
fn report_table1_writes_its_csv_without_training() {
    let tmp = TempDir::new("report");
    let out = passflow(&tmp.0, "report table1 --scale smoke");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("preparing workbench"), "{stderr}");
    let csv = std::fs::read_to_string(tmp.0.join("target/experiments/table1.csv")).unwrap();
    assert!(!csv.is_empty());
}

#[test]
fn malformed_arguments_fail_before_any_work() {
    let tmp = TempDir::new("malformed");
    for (args, flag) in [
        ("loadgen --mode synth --seed abc", "--seed"),
        ("loadgen --count five", "--count"),
        ("loadgen --out x.json", "--out"),
        ("loadgen", "--mode"),
        ("loadgen --mode hammer", "--mode"),
        ("loadgen --mode sweep", "--mode"),
        ("loadgen --mode synth --quick", "--quick"),
        ("report strength --scale smoke --threads x", "--threads"),
        ("report --scale bogus", "--scale"),
        ("digest build --out a.pfd --bogus-flag", "--bogus-flag"),
        ("serve --max-batch many", "--max-batch"),
    ] {
        let out = passflow(&tmp.0, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("preparing workbench"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("serving on"), "{args:?}: {stderr}");
    }
    // Nothing was written: no trace, no digest, no CSV.
    assert_eq!(std::fs::read_dir(&tmp.0).unwrap().count(), 0);
}
