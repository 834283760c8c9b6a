//! A periodic metrics emitter: a background thread that appends one
//! JSON summary line per interval to a file, so long advisor runs
//! stream a time series instead of a single terminal dump.
//!
//! Each line is `{"kind":"metrics","seq":..,"ts_ms":..,"uptime_ms":..,`
//! `"counters":{..},"gauges":{..},"histograms":{name:{count,sum,min,`
//! `max,p50,p90,p99}}}` — cumulative totals, not deltas, so a consumer
//! can diff adjacent lines without caring about missed ticks. The
//! emitter takes a snapshot closure rather than a concrete recorder so
//! either recorder (or a test stub) can feed it.
//!
//! A path ending in `.prom` switches the format: instead of appending
//! JSON lines, each tick atomically rewrites the file with the
//! [`Snapshot::to_prometheus`] text exposition — the textfile-collector
//! convention, where a scraper always reads the latest complete state.

use crate::json::JsonWriter;
use crate::Snapshot;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

type SnapFn = Box<dyn Fn() -> Snapshot + Send>;

/// Handle to the emitter thread; [`stop`](MetricsEmitter::stop) (or
/// drop) writes one final line and joins.
pub struct MetricsEmitter {
    stop_tx: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<()>>,
}

fn write_line(out: &mut dyn Write, snap: &Snapshot, seq: u64, start: Instant) -> io::Result<()> {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("kind", "metrics");
    w.field_u64("seq", seq);
    w.field_u64("ts_ms", ts_ms);
    w.field_u64("uptime_ms", start.elapsed().as_millis() as u64);
    w.begin_field_object("counters");
    for (name, total) in &snap.counters {
        w.field_u64(name, *total);
    }
    w.end_object();
    w.begin_field_object("gauges");
    for (name, value) in &snap.gauges {
        w.field_f64(name, *value);
    }
    w.end_object();
    w.begin_field_object("histograms");
    for (name, h) in &snap.histograms {
        w.begin_field_object(name);
        w.field_u64("count", h.count);
        w.field_f64("sum", h.sum);
        w.field_f64("min", h.min);
        w.field_f64("max", h.max);
        w.field_f64("p50", h.p50());
        w.field_f64("p90", h.p90());
        w.field_f64("p99", h.p99());
        w.end_object();
    }
    w.end_object();
    w.end_object();
    writeln!(out, "{}", w.finish())?;
    out.flush()
}

/// Replace `path` with the snapshot's text exposition via a same-dir
/// temp file + rename, so a concurrent scrape never sees a half write.
fn write_prom(path: &std::path::Path, snap: &Snapshot) -> io::Result<()> {
    let tmp = path.with_extension("prom.tmp");
    std::fs::write(&tmp, snap.to_prometheus())?;
    std::fs::rename(&tmp, path)
}

impl MetricsEmitter {
    /// Start emitting a snapshot to `path` every `interval` — JSON
    /// lines by default, Prometheus text exposition when `path` ends in
    /// `.prom`. The file is created (truncated) immediately so a
    /// misconfigured path fails fast rather than at first tick.
    pub fn start(path: PathBuf, interval: Duration, snap: SnapFn) -> io::Result<MetricsEmitter> {
        let prometheus = path.extension().is_some_and(|e| e == "prom");
        let mut file = std::fs::File::create(&path)?;
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("obs-metrics-emitter".into())
            .spawn(move || {
                let start = Instant::now();
                let mut seq = 0u64;
                loop {
                    // A stop message (or a dropped sender) ends the
                    // loop after one final line, so even runs shorter
                    // than the interval emit a complete summary.
                    let stopped = !matches!(
                        stop_rx.recv_timeout(interval),
                        Err(mpsc::RecvTimeoutError::Timeout)
                    );
                    if prometheus {
                        let _ = write_prom(&path, &snap());
                    } else {
                        let _ = write_line(&mut file, &snap(), seq, start);
                    }
                    seq += 1;
                    if stopped {
                        return;
                    }
                }
            })?;
        Ok(MetricsEmitter {
            stop_tx: Some(stop_tx),
            handle: Some(handle),
        })
    }

    /// Signal the thread, wait for its final line, and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(tx) = self.stop_tx.take() {
            let _ = tx.send(());
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsEmitter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, Recorder, ShardedRecorder};
    use std::sync::Arc;

    #[test]
    fn emits_final_line_on_stop_and_periodic_lines() {
        let dir = std::env::temp_dir().join("obs_emit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let rec = Arc::new(ShardedRecorder::new(Level::Quiet));
        rec.counter("tick.count", 5);
        rec.gauge("tick.gauge", 1.5);
        rec.histogram("tick.hist", 0.25);
        let r2 = rec.clone();
        let emitter = MetricsEmitter::start(
            path.clone(),
            Duration::from_millis(20),
            Box::new(move || r2.snapshot()),
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(70));
        emitter.stop();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "periodic + final: {text}");
        for l in &lines {
            assert!(l.starts_with("{\"kind\":\"metrics\",\"seq\":"), "{l}");
            assert!(l.contains("\"tick.count\":5"));
            assert!(l.contains("\"p99\":"));
        }
    }

    #[test]
    fn prom_extension_writes_text_exposition() {
        let dir = std::env::temp_dir().join("obs_emit_prom_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let rec = Arc::new(ShardedRecorder::new(Level::Quiet));
        rec.counter("tick.count", 7);
        rec.gauge("tick.gauge", 2.5);
        let r2 = rec.clone();
        let emitter = MetricsEmitter::start(
            path.clone(),
            Duration::from_millis(20),
            Box::new(move || r2.snapshot()),
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        emitter.stop();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("# TYPE tick_count_total counter"), "{text}");
        assert!(text.contains("tick_count_total 7"), "{text}");
        assert!(text.contains("tick_gauge 2.5"), "{text}");
        assert!(!text.contains("\"kind\""), "not JSON: {text}");
    }

    #[test]
    fn bad_path_fails_at_start() {
        let rec = Arc::new(ShardedRecorder::new(Level::Quiet));
        let res = MetricsEmitter::start(
            PathBuf::from("/nonexistent-dir/metrics.jsonl"),
            Duration::from_millis(10),
            Box::new(move || rec.snapshot()),
        );
        assert!(res.is_err());
    }
}
