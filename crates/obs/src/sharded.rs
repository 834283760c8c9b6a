//! The workspace's one recorder: counters, histograms, and gauges live
//! in per-stripe atomic cells, merged only at snapshot time.
//!
//! Under a multi-threaded advisor or the parallel executor one lock
//! around every sample would be the telemetry bottleneck. Instead each
//! thread is assigned one of [`SHARDS`] stripes round-robin at first
//! use and then touches only its own cache line:
//!
//! * **counters** — one relaxed `fetch_add` on the thread's stripe;
//! * **histograms** — relaxed atomic bucket increments plus CAS loops
//!   for the `f64` sum/min/max (the semantics of the sequential fold
//!   `sum += v; min = min.min(v); max = max.max(v)`, so a one-thread
//!   snapshot is exactly that fold);
//! * **gauges** — a single last-write-wins atomic store of the bits;
//! * **events/spans** — per-stripe `Mutex<Vec<_>>` (these are rare and
//!   already allocate), with one shared capacity cap and drop counter.
//!
//! `snapshot()` merges the stripes into one [`Snapshot`] (events sorted
//! by timestamp, spans by end) and synthesizes an `obs.shards_merged`
//! counter — the number of stripes that actually held data — so
//! concurrency smoke tests can assert work really spread across
//! threads.

use crate::{flight, FieldValue, Histogram, Level, LogEvent, Recorder, Snapshot, SpanRecord};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Default cap on stored events + spans; past it, new entries are counted
/// as dropped rather than stored (the drop count is reported in the JSONL
/// summary, never silently).
pub const DEFAULT_CAPACITY: usize = 1_000_000;

/// Number of stripes. A small power of two: enough that a typical
/// worker pool (the driver caps at the core count) rarely shares a
/// stripe, small enough that merge-on-snapshot stays trivial.
pub const SHARDS: usize = 16;

/// Round-robin stripe assignment, one per thread at first use.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn stripe() -> usize {
    STRIPE.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            idx = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(idx);
        }
        idx
    })
}

/// One cache line per stripe so neighbor stripes never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// CAS an `f64` update onto atomic bits, preserving the exact
/// semantics of the sequential fold `cur = op(cur, v)` (including
/// `f64::min`/`max` NaN behavior, which plain compare-and-store would
/// not).
#[inline]
fn f64_update(cell: &AtomicU64, v: f64, op: impl Fn(f64, f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = op(f64::from_bits(cur), v).to_bits();
        if new == cur {
            return;
        }
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

struct HistStripe {
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; Histogram::BUCKETS],
}

impl Default for HistStripe {
    fn default() -> HistStripe {
        HistStripe {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Stripe 0 of each cell starts a fresh cache line; the histogram
/// stripes are line-sized already via the alignment below.
#[repr(align(64))]
#[derive(Default)]
struct PaddedHist(HistStripe);

#[derive(Default)]
struct CounterCell {
    stripes: [PaddedU64; SHARDS],
}

#[derive(Default)]
struct HistCell {
    stripes: [PaddedHist; SHARDS],
}

#[derive(Default)]
struct EventStripe {
    events: Mutex<Vec<LogEvent>>,
    spans: Mutex<Vec<SpanRecord>>,
}

/// The sharded, merge-on-snapshot [`Recorder`]: hot-path samples touch
/// only per-thread stripes, [`snapshot`](ShardedRecorder::snapshot)
/// copies everything out for tests, and
/// [`write_jsonl`](ShardedRecorder::write_jsonl) backs the `--log-out`
/// exporter. It also feeds the process-global [`flight`] ring, so
/// installing it arms the crash-dump path.
pub struct ShardedRecorder {
    level: Level,
    epoch: Instant,
    capacity: usize,
    counters: RwLock<HashMap<String, Arc<CounterCell>>>,
    histograms: RwLock<HashMap<String, Arc<HistCell>>>,
    gauges: RwLock<HashMap<String, Arc<AtomicU64>>>,
    stripes: [EventStripe; SHARDS],
    stored: AtomicUsize,
    dropped: AtomicU64,
}

impl ShardedRecorder {
    /// A recorder keeping events up to `level`, with the default cap on
    /// stored events + spans.
    pub fn new(level: Level) -> ShardedRecorder {
        ShardedRecorder::with_capacity(level, DEFAULT_CAPACITY)
    }

    /// [`new`](ShardedRecorder::new) with an explicit storage cap.
    pub fn with_capacity(level: Level, capacity: usize) -> ShardedRecorder {
        ShardedRecorder {
            level,
            epoch: Instant::now(),
            capacity,
            counters: RwLock::new(HashMap::new()),
            histograms: RwLock::new(HashMap::new()),
            gauges: RwLock::new(HashMap::new()),
            stripes: std::array::from_fn(|_| EventStripe::default()),
            stored: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The recorder's epoch (span and event timestamps are relative to
    /// this instant).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn us_since_epoch(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Fetch-or-create a named cell. The common path is a read-locked
    /// hash lookup; only the first sample of a new name takes the write
    /// lock.
    fn cell<T: Default>(registry: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
        if let Some(c) = registry.read().unwrap_or_else(|e| e.into_inner()).get(name) {
            return Arc::clone(c);
        }
        let mut map = registry.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// True when the shared events+spans cap admits one more entry.
    fn admit(&self) -> bool {
        if self.stored.fetch_add(1, Ordering::Relaxed) < self.capacity {
            return true;
        }
        self.stored.fetch_sub(1, Ordering::Relaxed);
        self.dropped.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Merge every stripe into one [`Snapshot`]. Events are ordered by
    /// timestamp and spans by end time (single-stripe data keeps its
    /// arrival order). The synthesized `obs.shards_merged` counter
    /// reports how many stripes held data.
    pub fn snapshot(&self) -> Snapshot {
        let mut touched = [false; SHARDS];

        let mut counters = BTreeMap::new();
        for (name, cell) in self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let mut total = 0u64;
            for (i, s) in cell.stripes.iter().enumerate() {
                let v = s.0.load(Ordering::Relaxed);
                touched[i] |= v != 0;
                total += v;
            }
            counters.insert(name.clone(), total);
        }

        let mut histograms = BTreeMap::new();
        for (name, cell) in self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let mut h = Histogram::new();
            for (i, s) in cell.stripes.iter().enumerate() {
                let stripe = &s.0;
                let count = stripe.count.load(Ordering::Relaxed);
                if count == 0 {
                    continue;
                }
                touched[i] = true;
                let mut part = Histogram::new();
                part.count = count;
                part.sum = f64::from_bits(stripe.sum_bits.load(Ordering::Relaxed));
                part.min = f64::from_bits(stripe.min_bits.load(Ordering::Relaxed));
                part.max = f64::from_bits(stripe.max_bits.load(Ordering::Relaxed));
                for (b, a) in part.buckets.iter_mut().zip(stripe.buckets.iter()) {
                    *b = a.load(Ordering::Relaxed);
                }
                h.merge(&part);
            }
            if h.count > 0 {
                histograms.insert(name.clone(), h);
            }
        }

        let mut gauges = BTreeMap::new();
        for (name, cell) in self.gauges.read().unwrap_or_else(|e| e.into_inner()).iter() {
            gauges.insert(name.clone(), f64::from_bits(cell.load(Ordering::Relaxed)));
        }

        let mut events = Vec::new();
        let mut spans = Vec::new();
        for (i, stripe) in self.stripes.iter().enumerate() {
            let e = stripe.events.lock().unwrap_or_else(|e| e.into_inner());
            let s = stripe.spans.lock().unwrap_or_else(|e| e.into_inner());
            touched[i] |= !e.is_empty() || !s.is_empty();
            events.extend(e.iter().cloned());
            spans.extend(s.iter().cloned());
        }
        events.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        spans.sort_by(|a, b| a.end_us.total_cmp(&b.end_us));

        let merged = touched.iter().filter(|t| **t).count() as u64;
        if merged > 0 {
            counters.insert("obs.shards_merged".to_owned(), merged);
        }

        Snapshot {
            events,
            spans,
            counters,
            histograms,
            gauges,
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Write the collected telemetry as JSONL (see
    /// [`write_jsonl_snapshot`](crate::write_jsonl_snapshot)).
    pub fn write_jsonl(&self, out: &mut dyn Write) -> io::Result<()> {
        let snap = self.snapshot();
        crate::write_jsonl_snapshot(&snap, self.level, out)
    }
}

impl Recorder for ShardedRecorder {
    fn level(&self) -> Level {
        self.level
    }

    fn event(&self, level: Level, name: &str, fields: &[(&str, FieldValue)]) {
        if level > self.level {
            return;
        }
        let ts_us = self.us_since_epoch(Instant::now());
        flight::note_event(ts_us, name, fields);
        if !self.admit() {
            return;
        }
        let rec = LogEvent {
            ts_us,
            level,
            name: name.to_owned(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        };
        self.stripes[stripe()]
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec);
    }

    fn counter(&self, name: &str, delta: u64) {
        let cell = ShardedRecorder::cell(&self.counters, name);
        cell.stripes[stripe()].0.fetch_add(delta, Ordering::Relaxed);
    }

    fn histogram(&self, name: &str, value: f64) {
        let cell = ShardedRecorder::cell(&self.histograms, name);
        let s = &cell.stripes[stripe()].0;
        s.count.fetch_add(1, Ordering::Relaxed);
        s.buckets[Histogram::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        f64_update(&s.sum_bits, value, |a, b| a + b);
        f64_update(&s.min_bits, value, f64::min);
        f64_update(&s.max_bits, value, f64::max);
    }

    fn gauge(&self, name: &str, value: f64) {
        let cell = ShardedRecorder::cell(&self.gauges, name);
        cell.store(value.to_bits(), Ordering::Relaxed);
    }

    fn span(
        &self,
        name: &str,
        track: &str,
        start: Instant,
        end: Instant,
        fields: &[(&str, FieldValue)],
    ) {
        let rec = SpanRecord {
            name: name.to_owned(),
            track: track.to_owned(),
            start_us: self.us_since_epoch(start),
            end_us: self.us_since_epoch(end),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        };
        flight::note_span(&rec);
        if !self.admit() {
            return;
        }
        self.stripes[stripe()]
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_matches_the_sequential_fold_bit_for_bit() {
        let r = ShardedRecorder::new(Level::Debug);
        for i in 0..100u64 {
            r.counter("c.a", i);
            r.counter("c.b", 1);
            r.histogram("h.t", 0.1 + i as f64 * 1e-3);
        }
        r.gauge("g.x", 0.25);
        r.gauge("g.x", 0.75);
        let mut s = r.snapshot();
        assert_eq!(s.counters.remove("obs.shards_merged"), Some(1));
        let counters: Vec<_> = s.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(counters, [("c.a", 4950), ("c.b", 100)]);
        assert_eq!(s.gauges, BTreeMap::from([("g.x".to_owned(), 0.75)]));
        // One stripe accumulates in call order, so the sum is the
        // sequential fold's, bit for bit.
        let h = s.histogram("h.t").unwrap();
        let sum = (0..100).fold(0.0, |acc, i| acc + (0.1 + i as f64 * 1e-3));
        assert_eq!(h.sum.to_bits(), sum.to_bits());
        assert_eq!((h.count, h.min, h.max), (100, 0.1, 0.1 + 99.0 * 1e-3));
        // 0.1 is the upper edge of its bucket; 0.101..0.199 share the
        // next half-decade.
        let mut buckets = [0u64; Histogram::BUCKETS];
        buckets[22] = 1;
        buckets[23] = 99;
        assert_eq!(h.buckets, buckets);
    }

    #[test]
    fn counters_accumulate_and_histograms_summarize() {
        let r = ShardedRecorder::new(Level::Debug);
        r.counter("a", 2);
        r.counter("a", 3);
        r.histogram("h", 0.1);
        r.histogram("h", 0.3);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), 5);
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.sum - 0.4).abs() < 1e-12);
        assert!((h.mean() - 0.2).abs() < 1e-12);
        assert_eq!(h.min, 0.1);
        assert_eq!(h.max, 0.3);
    }

    #[test]
    fn jsonl_lines_are_complete_objects() {
        let _g = crate::test_lock();
        let r = ShardedRecorder::new(Level::Debug);
        r.event(
            Level::Info,
            "note",
            &[
                ("s", FieldValue::Str("a\"b".into())),
                ("n", FieldValue::U64(3)),
            ],
        );
        r.counter("c", 7);
        r.histogram("h", 2.0);
        r.span(
            "work",
            "driver",
            r.epoch(),
            r.epoch() + std::time::Duration::from_micros(5),
            &[],
        );
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // meta, event, span, counters `c` and `obs.shards_merged`,
        // histogram.
        assert_eq!(lines.len(), 6, "{text}");
        assert!(lines[0].contains("\"kind\":\"meta\""));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains("a\\\"b"));
        assert!(text.contains("\"total\":7"));
        assert!(text.contains("\"kind\":\"span\""));
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let r = ShardedRecorder::new(Level::Quiet);
        r.gauge("g", 1.0);
        r.gauge("g", 2.5);
        assert_eq!(r.snapshot().gauge("g"), Some(2.5));
    }

    #[test]
    fn capacity_cap_is_shared_and_counts_drops() {
        let _g = crate::test_lock();
        let r = ShardedRecorder::with_capacity(Level::Debug, 2);
        for i in 0..5 {
            r.event(Level::Info, &format!("e{i}"), &[]);
        }
        let s = r.snapshot();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.dropped, 3);
    }

    #[test]
    fn level_filter_applies_per_event() {
        let _g = crate::test_lock();
        let r = ShardedRecorder::new(Level::Info);
        r.event(Level::Info, "kept", &[]);
        r.event(Level::Debug, "dropped", &[]);
        let s = r.snapshot();
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].name, "kept");
    }

    #[test]
    fn spans_merge_sorted_by_end() {
        let _g = crate::test_lock();
        let r = ShardedRecorder::new(Level::Quiet);
        let t0 = r.epoch();
        let us = std::time::Duration::from_micros;
        r.span("b", "t", t0 + us(5), t0 + us(9), &[]);
        r.span("a", "t", t0 + us(1), t0 + us(4), &[]);
        let s = r.snapshot();
        assert_eq!(
            s.spans.iter().map(|x| x.name.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
    }
}
