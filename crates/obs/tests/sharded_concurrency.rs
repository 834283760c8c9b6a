//! Concurrency and estimation guarantees of the sharded recorder:
//! an N-thread stress test whose merged snapshot must equal the
//! closed-form totals exactly, a fixed script whose snapshot and JSONL
//! are pinned in `tests/fixtures/recorder_script.txt`, and a property
//! test pinning histogram quantile estimates to within one bucket of
//! the exact order statistic.

use obs::{FieldValue, Histogram, Level, Recorder, ShardedRecorder, Snapshot};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dyadic-rational sample values: sums of these are exact in f64
/// regardless of accumulation order, so the merged multi-thread sum can
/// be compared bit-for-bit against the closed form.
const DYADIC: [f64; 4] = [0.25, 0.5, 1.0, 2.0];

const THREADS: usize = 4;
const OPS: usize = 5_000;

fn run_ops(r: &dyn Recorder, thread: usize) {
    for i in 0..OPS {
        r.counter("stress.shared", 1);
        r.counter(&format!("stress.t{thread}"), (i % 7) as u64);
        r.histogram("stress.lat", DYADIC[(thread + i) % DYADIC.len()]);
        if i % 100 == 0 {
            r.event(
                Level::Info,
                "stress.tick",
                &[("i", obs::FieldValue::U64(i as u64))],
            );
        }
    }
}

/// The counter totals `threads` runs of [`run_ops`] must add up to.
fn expected_counters(threads: usize) -> BTreeMap<String, u64> {
    let per_thread = (0..OPS as u64).map(|i| i % 7).sum::<u64>();
    let mut counters: BTreeMap<String, u64> = (0..threads)
        .map(|t| (format!("stress.t{t}"), per_thread))
        .collect();
    counters.insert("stress.shared".into(), (threads * OPS) as u64);
    counters
}

/// The `stress.lat` histogram of `threads` runs of [`run_ops`]: every
/// thread cycles through all four dyadic values, `OPS / 4` times each.
fn expected_lat(threads: usize) -> Histogram {
    let each = (threads * OPS / DYADIC.len()) as u64;
    let mut buckets = [0; Histogram::BUCKETS];
    for v in DYADIC {
        buckets[bucket_of(v) as usize] += each;
    }
    Histogram {
        count: (threads * OPS) as u64,
        sum: each as f64 * DYADIC.iter().sum::<f64>(),
        min: 0.25,
        max: 2.0,
        buckets,
    }
}

#[test]
fn merged_snapshot_equals_the_closed_form_exactly() {
    let sharded = Arc::new(ShardedRecorder::new(Level::Debug));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let r = Arc::clone(&sharded);
            std::thread::spawn(move || run_ops(r.as_ref(), t))
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut s = sharded.snapshot();

    // Work really crossed stripes: each spawned thread gets its own
    // round-robin stripe (THREADS ≤ SHARDS, fresh threads).
    let merged = s.counters.remove("obs.shards_merged").unwrap();
    assert!(merged >= 2, "expected multi-stripe data, got {merged}");

    assert_eq!(
        s.counters,
        expected_counters(THREADS),
        "counter totals must match exactly"
    );
    // Dyadic samples make the sum order-independent, hence bit-equal.
    let h = s.histogram("stress.lat").unwrap();
    assert_eq!(h.sum.to_bits(), expected_lat(THREADS).sum.to_bits());
    assert_eq!(*h, expected_lat(THREADS));
    assert_eq!(s.events.len(), THREADS * OPS / 100);
    assert_eq!(s.dropped, 0);
}

#[test]
fn single_spawned_thread_matches_the_sequential_fold_and_event_order() {
    let sharded = Arc::new(ShardedRecorder::new(Level::Debug));
    let r = Arc::clone(&sharded);
    std::thread::spawn(move || run_ops(r.as_ref(), 0))
        .join()
        .unwrap();
    let mut s = sharded.snapshot();
    assert_eq!(s.counters.remove("obs.shards_merged"), Some(1));
    assert_eq!(s.counters, expected_counters(1));
    assert_eq!(s.histogram("stress.lat").unwrap(), &expected_lat(1));
    let ticks: Vec<_> = s
        .events
        .iter()
        .map(|e| (e.name.as_str(), &e.fields[..]))
        .collect();
    let expected: Vec<_> = (0..OPS as u64)
        .step_by(100)
        .map(|i| [("i".to_owned(), FieldValue::U64(i))])
        .collect();
    let expected: Vec<_> = expected.iter().map(|f| ("stress.tick", &f[..])).collect();
    assert_eq!(ticks, expected);
}

/// A fixed script through every recorder entry point: counters (one
/// with a zero delta), histogram samples across the bucket range (zero,
/// negative, NaN, past the last bucket), a gauge written twice, events
/// at every level with every field type, and spans at explicit instants.
fn script(r: &dyn Recorder, epoch: Instant) {
    let ns = Duration::from_nanos;
    for i in 1..=3 {
        r.counter("script.calls", i);
    }
    r.counter("script.zero", 0);
    for v in [2.5e-7, 0.25, 0.0, -1.0, 3.0, 5e4, 1e-13, 0.25] {
        r.histogram("script.lat_s", v);
    }
    r.histogram("script.nan", 0.5);
    r.histogram("script.nan", f64::NAN);
    r.gauge("script.level", 1.5);
    r.gauge("script.level", -0.25);
    r.gauge("script.tiny", 2.5e-9);
    r.event(
        Level::Info,
        "script.start",
        &[
            ("u", FieldValue::U64(u64::MAX)),
            ("i", FieldValue::I64(-7)),
            ("f", FieldValue::F64(0.1)),
            ("b", FieldValue::Bool(true)),
            ("s", FieldValue::Str("a\"b\\c\n\u{e9}".into())),
        ],
    );
    r.event(Level::Debug, "script.detail", &[]);
    r.event(Level::Quiet, "script.quiet", &[("n", FieldValue::U64(1))]);
    r.span(
        "script.phase",
        "driver",
        epoch + ns(1_000),
        epoch + ns(4_500),
        &[("n", FieldValue::U64(7))],
    );
    r.span("script.inner", "worker", epoch, epoch + ns(9_250), &[]);
}

/// The snapshot, one record per line and event timestamps masked, then
/// its JSONL rendering.
fn render(mut snap: Snapshot, level: Level) -> String {
    for e in &mut snap.events {
        e.ts_us = 0.0;
    }
    let mut out = String::from("# snapshot\n");
    for e in &snap.events {
        out += &format!("{e:?}\n");
    }
    for s in &snap.spans {
        out += &format!("{s:?}\n");
    }
    for (name, h) in &snap.histograms {
        out += &format!("{name}: {h:?}\n");
    }
    out += &format!("counters: {:?}\n", snap.counters);
    out += &format!("gauges: {:?}\n", snap.gauges);
    out += &format!("dropped: {}\n# jsonl\n", snap.dropped);
    let mut jsonl = Vec::new();
    obs::write_jsonl_snapshot(&snap, level, &mut jsonl).unwrap();
    out + std::str::from_utf8(&jsonl).unwrap()
}

const SCRIPT_FIXTURE: &str = include_str!("fixtures/recorder_script.txt");
/// The script renders to the fixture byte for byte (the synthesized
/// `obs.shards_merged` aside).
#[test]
fn script_matches_the_fixture() {
    let r = ShardedRecorder::new(Level::Info);
    script(&r, r.epoch());
    let mut snap = r.snapshot();
    assert_eq!(snap.counters.remove("obs.shards_merged"), Some(1));
    assert_eq!(render(snap, Level::Info), SCRIPT_FIXTURE);
}

/// The documented bucket formula, reproduced independently so the test
/// does not trust the implementation it checks.
fn bucket_of(v: f64) -> i64 {
    if v <= 0.0 || !v.is_finite() {
        return 0;
    }
    let idx = (v.log10() + 12.0) * 2.0;
    (idx.ceil().max(0.0) as i64).min(Histogram::BUCKETS as i64 - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantile estimates land within one half-decade bucket of the
    /// exact order statistic, for every probed quantile.
    #[test]
    fn quantiles_within_one_bucket_of_exact(
        raw in proptest::collection::vec((1u64..1000, 0u32..12), 1..120)
    ) {
        let samples: Vec<f64> = raw
            .iter()
            .map(|(m, e)| *m as f64 * 1e-9 * 10f64.powi(*e as i32))
            .collect();
        let r = ShardedRecorder::new(Level::Quiet);
        for &v in &samples {
            r.histogram("q", v);
        }
        let snap = r.snapshot();
        let h = snap.histogram("q").unwrap();
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = h.quantile(q);
            prop_assert!(est >= h.min && est <= h.max, "q={q} est={est}");
            let diff = (bucket_of(est) - bucket_of(exact)).abs();
            prop_assert!(
                diff <= 1,
                "q={q}: estimate {est} (bucket {}) vs exact {exact} (bucket {})",
                bucket_of(est),
                bucket_of(exact)
            );
        }
    }
}
