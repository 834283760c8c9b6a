//! What a recorder has collected: the [`Snapshot`] of events, spans,
//! counters, histograms, and gauges, and its JSONL rendering.

use crate::json::JsonWriter;
use crate::{FieldValue, Level};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// One recorded structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEvent {
    /// Microseconds since the recorder was created.
    pub ts_us: f64,
    /// Event level.
    pub level: Level,
    /// Event name (dotted, e.g. `sim.kernel`).
    pub name: String,
    /// Named scalar fields.
    pub fields: Vec<(String, FieldValue)>,
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Track (one timeline lane group in the Chrome export).
    pub track: String,
    /// Start, microseconds since the recorder epoch.
    pub start_us: f64,
    /// End, microseconds since the recorder epoch.
    pub end_us: f64,
    /// Named scalar fields.
    pub fields: Vec<(String, FieldValue)>,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A fixed-bucket log-scale histogram of `f64` samples.
///
/// Buckets are half-decades from `1e-12` up (anything below the first
/// boundary lands in bucket 0), which spans simulated kernel times
/// (~1e-7 s) through wall-clock phase times (~1e2 s) with no allocation
/// per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Half-decade bucket counts; bucket `i` holds samples in
    /// `[10^((i-1)/2 - 12), 10^(i/2 - 12))`.
    pub buckets: [u64; Histogram::BUCKETS],
}

impl Histogram {
    /// Number of half-decade buckets (1e-12 ..= 1e4).
    pub const BUCKETS: usize = 33;

    pub(crate) fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; Histogram::BUCKETS],
        }
    }

    pub(crate) fn bucket_of(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0;
        }
        let idx = (value.log10() + 12.0) * 2.0;
        (idx.ceil().max(0.0) as usize).min(Histogram::BUCKETS - 1)
    }

    /// Fold another histogram into this one (used by the sharded
    /// recorder's merge-on-snapshot).
    pub(crate) fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Arithmetic mean of the samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// The value range `[lo, hi)` of bucket `i` (bucket 0 reaches down
    /// to zero; the last bucket's `hi` is where clamping starts, not a
    /// true upper bound).
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        let hi = 10f64.powf(i as f64 / 2.0 - 12.0);
        let lo = if i == 0 {
            0.0
        } else {
            10f64.powf((i as f64 - 1.0) / 2.0 - 12.0)
        };
        (lo, hi)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts.
    ///
    /// The estimate is the geometric midpoint of the bucket holding the
    /// rank-`ceil(q·count)` sample, clamped to the exact `[min, max]`;
    /// since the true order statistic lies in that same bucket, the
    /// estimate is always within one bucket (a half-decade) of it.
    /// Returns `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        let mut bucket = Histogram::BUCKETS - 1;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                bucket = i;
                break;
            }
        }
        let (lo, hi) = Histogram::bucket_bounds(bucket);
        // Geometric midpoint matches the log-scale bucketing; bucket 0
        // has no positive lower edge, so use its upper edge.
        let mid = if lo > 0.0 { (lo * hi).sqrt() } else { hi };
        mid.clamp(self.min, self.max)
    }

    /// Median estimate (see [`quantile`](Histogram::quantile)).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// An immutable copy of everything a [`ShardedRecorder`](crate::ShardedRecorder)
/// has collected.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Structured events in arrival order.
    pub events: Vec<LogEvent>,
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Gauges by name (most recent value wins).
    pub gauges: BTreeMap<String, f64>,
    /// Events/spans discarded after the capacity cap was hit.
    pub dropped: u64,
}

impl Snapshot {
    /// Total of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The named gauge's most recent value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }
}

/// Render a [`Snapshot`] as JSONL: one `meta` line, every event and
/// span in time order, then one line per counter, gauge, and histogram.
/// Every line is a complete JSON object with a `kind` discriminator.
pub fn write_jsonl_snapshot(snap: &Snapshot, level: Level, out: &mut dyn Write) -> io::Result<()> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("kind", "meta");
    w.field_str("level", level.name());
    w.field_u64("events", snap.events.len() as u64);
    w.field_u64("spans", snap.spans.len() as u64);
    w.field_u64("dropped", snap.dropped);
    w.end_object();
    writeln!(out, "{}", w.finish())?;

    for e in &snap.events {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("kind", "event");
        w.field_f64("ts_us", e.ts_us);
        w.field_str("level", e.level.name());
        w.field_str("name", &e.name);
        w.begin_field_object("fields");
        for (k, v) in &e.fields {
            w.field_value(k, v);
        }
        w.end_object();
        w.end_object();
        writeln!(out, "{}", w.finish())?;
    }
    for s in &snap.spans {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("kind", "span");
        w.field_str("name", &s.name);
        w.field_str("track", &s.track);
        w.field_f64("start_us", s.start_us);
        w.field_f64("end_us", s.end_us);
        w.field_f64("dur_us", s.dur_us());
        w.begin_field_object("fields");
        for (k, v) in &s.fields {
            w.field_value(k, v);
        }
        w.end_object();
        w.end_object();
        writeln!(out, "{}", w.finish())?;
    }
    for (name, total) in &snap.counters {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("kind", "counter");
        w.field_str("name", name);
        w.field_u64("total", *total);
        w.end_object();
        writeln!(out, "{}", w.finish())?;
    }
    for (name, value) in &snap.gauges {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("kind", "gauge");
        w.field_str("name", name);
        w.field_f64("value", *value);
        w.end_object();
        writeln!(out, "{}", w.finish())?;
    }
    for (name, h) in &snap.histograms {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("kind", "histogram");
        w.field_str("name", name);
        w.field_u64("count", h.count);
        w.field_f64("sum", h.sum);
        w.field_f64("min", h.min);
        w.field_f64("max", h.max);
        w.field_f64("mean", h.mean());
        w.field_f64("p50", h.p50());
        w.field_f64("p90", h.p90());
        w.field_f64("p99", h.p99());
        // Sparse bucket dump: [index, count] pairs for nonzero buckets
        // keeps tails inspectable without 33 columns of zeros.
        w.begin_field_array("buckets");
        for (i, n) in h.buckets.iter().enumerate().filter(|(_, n)| **n > 0) {
            w.begin_array();
            w.elem_u64(i as u64);
            w.elem_u64(*n);
            w.end_array();
        }
        w.end_array();
        w.end_object();
        writeln!(out, "{}", w.finish())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_in_value() {
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(-1.0), 0);
        assert_eq!(Histogram::bucket_of(f64::NAN), 0);
        let mut last = 0;
        for exp in -11..4 {
            let b = Histogram::bucket_of(10f64.powi(exp));
            assert!(b >= last, "bucket {b} for 1e{exp} after {last}");
            last = b;
        }
        assert_eq!(Histogram::bucket_of(1e20), Histogram::BUCKETS - 1);
    }
}
