//! The `experiments` binary end to end: the model commands' output is
//! pinned by a fixture, and bad input ends a run with exit code 2 before
//! any work.

use std::path::Path;
use std::process::{Command, Output};

fn experiments(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run experiments")
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("experiments-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `tests/fixtures/model_commands.txt` holds blocks of a `$ ARGS` line
/// followed by the stdout those arguments printed when the model
/// commands were a binary of their own.
#[test]
fn model_commands_match_the_fixture() {
    let fixture = include_str!("fixtures/model_commands.txt");
    let dir = scratch("model");
    let mut cases = 0;
    for block in fixture.split("$ ").filter(|b| !b.is_empty()) {
        let (args, expected) = block.split_once('\n').expect("an argument line");
        let args: Vec<&str> = args.split_whitespace().collect();
        let out = experiments(&args, &dir);
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{args:?}");
        cases += 1;
    }
    assert_eq!(cases, 7);
    std::fs::remove_dir_all(dir).ok();
}

/// `predict` models a radius-2 stencil at its own radius: the `M_tile`
/// and `k` it prints are the ones the advisor ranks Lap4_2D with.
#[test]
fn predict_uses_the_stencil_radius() {
    let dir = scratch("radius");
    let out = experiments(
        &[
            "predict",
            "--stencil",
            "lap4_2d",
            "--size",
            "1024x1024xT64",
            "--tile",
            "2,6,96",
        ],
        &dir,
    );
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("M_tile = 2448 words"), "{stdout}");
    assert!(stdout.contains("  k = 4   "), "{stdout}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn bad_input_exits_2_before_any_work() {
    let dir = scratch("bad");
    let queries = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/advisor_smoke.jsonl");
    let queries = queries.to_str().expect("utf-8 path");
    let cases: &[(&[&str], &str)] = &[
        (
            &["predict", "--stencil", "jacobi2d", "--size", "512x512xT64"],
            "--tile is required",
        ),
        (
            &[
                "params",
                "--stencil",
                "jacobi2d",
                "--size",
                "512x512xT64",
                "--samples",
                "0",
            ],
            "params: --samples: expected an integer >= 1",
        ),
        (
            &[
                "serve",
                "--queries",
                queries,
                "--log-out",
                "missing/dir/x.jsonl",
            ],
            "--log-out missing/dir/x.jsonl",
        ),
        (
            &[
                "--table2",
                "--out",
                "out",
                "--trace-out",
                "missing/dir/t.json",
            ],
            "--trace-out missing/dir/t.json",
        ),
        (
            &[
                "serve",
                "--queries",
                queries,
                "--metrics-out",
                "missing/dir/m.jsonl",
            ],
            "--metrics-out missing/dir/m.jsonl",
        ),
        (
            &[
                "serve-bench",
                "--requests",
                "1",
                "--out",
                "missing/dir/b.json",
            ],
            "--out missing/dir/b.json",
        ),
    ];
    for (args, want) in cases {
        let out = experiments(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(want),
            "{args:?}: {stderr}"
        );
        assert_eq!(
            stderr.lines().count(),
            1,
            "{args:?} worked before failing: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} answered before failing");
    }
    // No run got far enough to arm, let alone dump, the flight recorder.
    for sub in ["results", "out"] {
        let dumps = std::fs::read_dir(dir.join(sub))
            .into_iter()
            .flatten()
            .flatten();
        let names: Vec<_> = dumps.map(|e| e.file_name()).collect();
        assert!(
            names
                .iter()
                .all(|n| !n.to_string_lossy().starts_with("flightrec_")),
            "{names:?}"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}
