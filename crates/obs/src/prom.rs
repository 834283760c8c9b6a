//! Prometheus text-exposition rendering of a [`Snapshot`], so a scrape
//! endpoint or a file-based collector can ingest the same metrics the
//! JSONL exporter reports.
//!
//! Conventions follow the exposition format: counters gain a `_total`
//! suffix, histograms emit cumulative `_bucket{le="..."}` series plus
//! `_sum`/`_count`, and the exact sample extrema ride along as
//! `_min`/`_max` gauges (Prometheus histograms normally lose them; ours
//! track them exactly). Dotted metric names are sanitized to the
//! `[a-zA-Z0-9_:]` alphabet (`sim.kernel` → `sim_kernel`).

use crate::{Histogram, Snapshot};
use std::fmt::Write as _;

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

impl Snapshot {
    /// Render counters, gauges, and histograms in the Prometheus text
    /// exposition format (events and spans are not representable there
    /// and are skipped).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, total) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n}_total counter");
            let _ = writeln!(out, "{n}_total {total}");
        }
        for (name, value) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", fmt_f64(*value));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for (i, b) in h.buckets.iter().enumerate() {
                cum += b;
                // Skip empty leading/interior buckets but keep every
                // boundary after the first sample so the cumulative
                // series stays monotone and parseable.
                if *b == 0 && cum == 0 {
                    continue;
                }
                let (_, hi) = Histogram::bucket_bounds(i);
                let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", fmt_f64(hi));
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", fmt_f64(h.sum));
            let _ = writeln!(out, "{n}_count {}", h.count);
            let _ = writeln!(out, "# TYPE {n}_min gauge");
            let _ = writeln!(out, "{n}_min {}", fmt_f64(h.min));
            let _ = writeln!(out, "# TYPE {n}_max gauge");
            let _ = writeln!(out, "{n}_max {}", fmt_f64(h.max));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, Recorder, ShardedRecorder};

    #[test]
    fn exposition_covers_counters_gauges_histograms() {
        let r = ShardedRecorder::new(Level::Quiet);
        r.counter("sim.runs", 3);
        r.gauge("model.rel_err.cpu", 0.05);
        r.histogram("advisor.latency_ms", 2.0);
        r.histogram("advisor.latency_ms", 8.0);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE sim_runs_total counter"));
        assert!(text.contains("sim_runs_total 3"));
        assert!(text.contains("model_rel_err_cpu 0.05"));
        assert!(text.contains("# TYPE advisor_latency_ms histogram"));
        assert!(text.contains("advisor_latency_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("advisor_latency_ms_sum 10"));
        assert!(text.contains("advisor_latency_ms_count 2"));
        assert!(text.contains("advisor_latency_ms_min 2"));
        assert!(text.contains("advisor_latency_ms_max 8"));
    }

    #[test]
    fn bucket_series_is_cumulative_and_monotone() {
        let r = ShardedRecorder::new(Level::Quiet);
        for v in [1e-3, 1e-3, 1e-1, 1e2] {
            r.histogram("h", v);
        }
        let text = r.snapshot().to_prometheus();
        let mut last = 0u64;
        let mut saw = 0;
        for line in text.lines().filter(|l| l.starts_with("h_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line} after {last}");
            last = v;
            saw += 1;
        }
        assert!(saw > 2);
        assert_eq!(last, 4, "the +Inf bucket holds every sample");
    }

    #[test]
    fn names_sanitize_to_the_prometheus_alphabet() {
        assert_eq!(sanitize("sim.kernel-time"), "sim_kernel_time");
        assert_eq!(sanitize("9lives"), "_9lives");
    }
}
