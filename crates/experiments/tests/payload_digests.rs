//! Every artifact of an `--all --zoo --ablation --solver
//! --compare-wavefront` run, pinned by an FNV-64 digest:
//! `tests/fixtures/payload_digests_SCALE.txt` holds one `FILE DIGEST`
//! line per file the run writes at that scale. A JSON artifact's digest
//! covers its `"data"` payload only (its manifest records the git
//! revision and the command line); a CSV's covers the whole file.
//!
//! The smoke scale runs by default; the paper scale (about 10 s of
//! experiments in a release build) runs with
//! `cargo test --release -p experiments --test payload_digests -- --ignored`.

use advisor::cache::fnv64;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// The digest of one artifact.
fn digest(path: &Path) -> u64 {
    let bytes = std::fs::read(path).expect("read artifact");
    if path.extension().is_some_and(|e| e == "json") {
        let text = std::str::from_utf8(&bytes).expect("UTF-8 JSON");
        let Value::Map(fields) = serde_json::from_str(text).expect("parse JSON") else {
            panic!("{}: not a JSON object", path.display());
        };
        let (_, data) = fields
            .iter()
            .find(|(k, _)| k == "data")
            .unwrap_or_else(|| panic!("{}: no \"data\" field", path.display()));
        fnv64(serde_json::to_string(data).expect("render data").as_bytes())
    } else {
        fnv64(&bytes)
    }
}

/// Run the experiments at `scale` and compare every artifact against
/// the `fixture` lines.
fn payloads_match_their_digests(scale: &str, fixture: &str) {
    let dir = std::env::temp_dir().join(format!(
        "experiments-digests-{scale}-{}",
        std::process::id()
    ));
    let out = dir.join("out");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "--all",
            "--zoo",
            "--ablation",
            "--solver",
            "--compare-wavefront",
        ])
        .args(["--scale", scale, "--out"])
        .arg(&out)
        .current_dir(&dir)
        .stdout(Stdio::null())
        .status()
        .expect("run experiments");
    assert!(status.success(), "{status}");

    let expected: BTreeMap<&str, &str> = fixture
        .lines()
        .map(|line| line.split_once(' ').expect("a `FILE DIGEST` line"))
        .collect();
    let mut written: Vec<String> = std::fs::read_dir(&out)
        .expect("list artifacts")
        .map(|e| {
            e.expect("artifact entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .collect();
    written.sort();
    let mut problems = Vec::new();
    for name in &written {
        let hex = format!("{:016x}", digest(&out.join(name)));
        let line = format!("{name} {hex}");
        match expected.get(name.as_str()) {
            Some(&pinned) if pinned == hex => {}
            Some(_) => problems.push(format!("{name}: payload changed; new line:\n  {line}")),
            None => problems.push(format!("{name}: not in the fixture; new line:\n  {line}")),
        }
    }
    for name in expected.keys().filter(|n| !written.iter().any(|w| w == *n)) {
        problems.push(format!("{name}: in the fixture but not written"));
    }
    std::fs::remove_dir_all(dir).ok();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn smoke_payloads_match_their_digests() {
    payloads_match_their_digests("smoke", include_str!("fixtures/payload_digests_smoke.txt"));
}

#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn paper_payloads_match_their_digests() {
    payloads_match_their_digests("paper", include_str!("fixtures/payload_digests_paper.txt"));
}
