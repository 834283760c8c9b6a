//! Integration tests of the advisory service: answer-tier byte
//! identity, batch dedup through the JSON-lines loop, and graceful
//! degradation under a zero deadline.
//!
//! Tests that install a telemetry recorder share one process-global
//! lock — the obs recorder slot is process-wide.

use advisor::{Advisor, AdvisorConfig, AnswerStore, Query};
use std::sync::{Arc, Mutex, MutexGuard};

fn lock_obs() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("advisor-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn query_line(id: &str, stencil: &str) -> String {
    format!(
        "{{\"id\": \"{id}\", \"device\": \"GTX 980\", \"stencil\": \"{stencil}\", \
         \"size\": [96, 96], \"time\": 8}}"
    )
}

fn parse(line: &str) -> Query {
    Query::parse_line(line).expect("test query parses")
}

#[test]
fn cache_hits_are_byte_identical_to_cold_answers() {
    let _g = lock_obs();
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let dir = temp_dir("bytes");
    let path = dir.join("store.jsonl");
    let open = || {
        let cfg = AdvisorConfig::default();
        let store = AnswerStore::open(&path, false, None, cfg.seed, cfg.citer_samples)
            .expect("store opens");
        Advisor::new(AdvisorConfig {
            store: Some(Arc::new(store)),
            ..cfg
        })
    };
    let q = parse(&query_line("q1", "Heat2D"));

    // Cold: computed, kept in memory, and appended to the store file.
    let advisor = open();
    let cold = advisor.advise(&q).to_json_line();
    // Warm: served from the in-memory LRU.
    let warm = advisor.advise(&q).to_json_line();
    assert_eq!(cold, warm, "memory-tier answer must be byte-identical");
    // A fresh advisor over the same file loads the appended line: this
    // one is served from the store.
    let fresh = open();
    let from_store = fresh.advise(&q).to_json_line();
    assert_eq!(cold, from_store, "store answer must be byte-identical");

    obs::uninstall();
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.queries"), 3);
    assert_eq!(snap.counter("advisor.model_evals"), 1);
    assert_eq!(snap.counter("advisor.cache_hits_mem"), 1);
    assert_eq!(snap.counter("advisor.store_hits"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_round_trip_dedups_duplicate_queries() {
    let _g = lock_obs();
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let advisor = Advisor::with_defaults();
    // Three queries, two of them identical up to `id`.
    let input = format!(
        "{}\n{}\n{}\n",
        query_line("a", "Heat2D"),
        query_line("b", "Jacobi2D"),
        query_line("c", "Heat2D"),
    );
    let mut out = Vec::new();
    let stats = advisor::serve_lines(&advisor, input.as_bytes(), &mut out).unwrap();
    assert_eq!(stats.answered, 3);
    assert_eq!(stats.errors, 0);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    // Answers come back in input order, ids echoed.
    assert!(lines[0].contains("\"id\":\"a\""));
    assert!(lines[1].contains("\"id\":\"b\""));
    assert!(lines[2].contains("\"id\":\"c\""));
    // The duplicate differs from its twin only in the echoed id.
    assert_eq!(
        lines[0].replace("\"id\":\"a\"", "\"id\":\"c\""),
        lines[2].to_string()
    );
    obs::uninstall();
    let snap = rec.snapshot();
    assert!(
        snap.counter("advisor.batch_dedup") >= 1,
        "duplicate in the batch must be counted"
    );
    assert_eq!(
        snap.counter("advisor.queries"),
        2,
        "only distinct queries computed"
    );
}

#[test]
fn validated_queries_feed_the_accuracy_log_and_latency_histograms() {
    let _g = lock_obs();
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let dir = temp_dir("acc");
    let log_path = dir.join("accuracy_log.jsonl");
    let advisor = Advisor::new(AdvisorConfig {
        accuracy: Some(Arc::new(
            obs::AccuracyLog::open(&log_path).expect("open accuracy log"),
        )),
        ..AdvisorConfig::default()
    });
    let line = "{\"id\": \"v1\", \"device\": \"GTX 980\", \"stencil\": \"Heat2D\", \
                \"size\": [64, 64], \"time\": 8, \"validate\": true}";
    let answer = advisor.advise(&parse(line));
    assert!(
        !answer.degraded,
        "validation must complete with no deadline"
    );
    obs::uninstall();

    // Every validated candidate logged one (predicted, measured) pair...
    let snap = rec.snapshot();
    assert!(snap.counter("model.accuracy_pairs") >= 1);
    let text = std::fs::read_to_string(&log_path).expect("accuracy log written");
    assert!(!text.is_empty());
    let first = text.lines().next().unwrap();
    for needle in [
        "\"kind\":\"accuracy\"",
        "\"source\":\"advisor\"",
        "\"stencil\":\"Heat2D\"",
        "\"predicted_s\":",
        "\"measured_s\":",
        "\"rel_err\":",
    ] {
        assert!(first.contains(needle), "{needle} missing from {first}");
    }
    // ...the per-segment rolling rel-error gauge is populated...
    let gauge = snap
        .gauges
        .iter()
        .find(|(k, _)| k.starts_with("model.rel_err.advisor."))
        .map(|(k, v)| (k.clone(), *v));
    let (name, rmse) = gauge.expect("rel_err gauge populated");
    assert!(name.contains("heat2d"), "{name}");
    assert!(rmse.is_finite() && rmse >= 0.0);
    // ...and the query latency landed in the per-outcome histogram.
    let lat = snap
        .histogram("advisor.latency_ms.ok")
        .expect("latency histogram for the ok outcome");
    assert_eq!(lat.count, 1);
    assert!(lat.sum > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_deadline_serves_a_degraded_model_only_answer() {
    let _g = lock_obs();
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let advisor = Advisor::with_defaults();
    let line = "{\"id\": \"slow\", \"device\": \"Titan X\", \"stencil\": \"Jacobi2D\", \
                \"size\": [96, 96], \"time\": 8, \"validate\": true, \"timeout_ms\": 0}";
    let mut out = Vec::new();
    advisor::serve_lines(&advisor, line.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("\"degraded\":true"), "{text}");
    assert!(text.contains("\"validation\":null"), "{text}");
    // The model-only ranking is still present.
    assert!(text.contains("\"candidates\":[{\"rank\":0"), "{text}");
    obs::uninstall();
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.degraded"), 1);
    assert_eq!(
        snap.histogram("advisor.latency_ms.degraded")
            .expect("latency histogram for the degraded outcome")
            .count,
        1
    );
}

#[test]
fn one_advisor_answers_a_mixed_set_byte_identically_to_fresh_ones() {
    // 2D, 3D and radius-2 stencils, a second device, and an override
    // that shrinks the per-block shared memory (so the same shape has a
    // smaller feasible space); the repeats reuse what the earlier
    // queries memoized. No answer may depend on what the advisor
    // answered before.
    let lines = [
        r#"{"id": "a", "device": "GTX 980", "stencil": "Heat2D", "size": [256, 256], "time": 32}"#,
        r#"{"id": "b", "device": "GTX 980", "stencil": "Heat3D", "size": [64, 64, 64], "time": 16}"#,
        r#"{"id": "c", "device": "GTX 980", "stencil": "Lap4_2D", "size": [256, 256], "time": 32}"#,
        r#"{"id": "d", "device": {"preset": "GTX 980", "shared_per_block_words": 6144}, "stencil": "Heat2D", "size": [256, 256], "time": 32}"#,
        r#"{"id": "e", "device": "Titan X", "stencil": "Jacobi2D", "size": [256, 256], "time": 32}"#,
        r#"{"id": "f", "device": "GTX 980", "stencil": "Jacobi2D", "size": [384, 384], "time": 48, "top_n": 3}"#,
        r#"{"id": "g", "device": "GTX 980", "stencil": "Heat3D", "size": [48, 48, 48], "time": 8}"#,
        r#"{"id": "h", "device": {"preset": "GTX 980", "shared_per_block_words": 6144}, "stencil": "Jacobi2D", "size": [320, 320], "time": 24}"#,
    ];
    let queries: Vec<Query> = lines.iter().map(|l| parse(l)).collect();
    let _g = lock_obs();
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let advisor = Advisor::with_defaults();
    let shared: Vec<_> = queries.iter().map(|q| advisor.advise(q)).collect();
    obs::uninstall();
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.model_evals"), 8);
    // Five spaces enumerated once each: four 2D ones (GTX 980 at
    // radius 1 and 2, the override, Titan X; 13 x 14 x 12 candidates
    // each) and GTX 980's 3D one (13 x 14 x 8 x 12).
    assert_eq!(snap.counter("opt.space_enumerated"), 4 * 2184 + 17_472);
    for (q, got) in queries.iter().zip(&shared) {
        let want = Advisor::with_defaults().advise(q).to_json_line();
        assert_eq!(got.to_json_line(), want, "{:?}", q.id);
    }
    // The override's space is its own, not GTX 980's.
    assert!(shared[3].feasible_points < shared[0].feasible_points);
}
