//! # obs
//!
//! The workspace's unified telemetry layer: **structured events**,
//! **counters**, **histograms**, and **spans**, recorded through a
//! process-global [`Recorder`] that defaults to a no-op.
//!
//! Design constraints (and why this crate is hand-rolled rather than a
//! `tracing`/`metrics` stack):
//!
//! * the build environment has no registry access, and the vendored shim
//!   policy (`shims/`) covers only what the workspace already used — so
//!   the telemetry substrate is implemented directly, on `std` alone;
//! * it sits on the simulator/executor/optimizer **hot paths**, so the
//!   disabled state must cost exactly **one relaxed atomic load** per
//!   call site (verified by `crates/bench/benches/obs_overhead.rs`);
//! * the consumers are the `experiments` driver's two exporters — a
//!   JSONL structured log ([`ShardedRecorder::write_jsonl`]) and a Chrome
//!   trace-event file ([`chrome::ChromeTrace`]) — so everything a
//!   recorder collects is exportable without further dependencies.
//!
//! ## Quick tour
//!
//! ```
//! use std::sync::Arc;
//!
//! // Hot-path call sites are free while no recorder is installed:
//! obs::counter("demo.widgets", 3);
//!
//! let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Debug));
//! obs::install(rec.clone());
//! obs::counter("demo.widgets", 4);
//! obs::histogram("demo.latency_s", 0.25);
//! {
//!     let _span = obs::span("demo.phase", "driver");
//!     obs::event(obs::Level::Info, "demo.note", &[("k", obs::FieldValue::U64(1))]);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("demo.widgets"), 4);
//! assert_eq!(snap.spans.len(), 1);
//! obs::uninstall();
//! ```

pub mod accuracy;
pub mod chrome;
mod emit;
pub mod flight;
mod json;
mod prom;
mod sharded;
mod snapshot;

pub use accuracy::AccuracyLog;
pub use emit::MetricsEmitter;
pub use sharded::ShardedRecorder;
pub use snapshot::{write_jsonl_snapshot, Histogram, LogEvent, Snapshot, SpanRecord};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Verbosity of structured events. Counters, histograms, and spans are
/// always recorded once a recorder is installed; `Level` gates only
/// [`event`] emission — `Quiet` silences every diagnostic event while
/// keeping the aggregate counters for the end-of-run summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No events; counters/histograms/spans only.
    Quiet,
    /// Phase progress and per-experiment outcomes.
    Info,
    /// The firehose: per-kernel-launch and per-evaluation detail.
    Debug,
}

impl Level {
    /// Parse a `--log-level` argument.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "quiet" => Some(Level::Quiet),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Level::Quiet => "quiet",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// One field of a structured event: a name with a scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A telemetry sink. Implementations must be cheap and thread-safe: the
/// instrumented crates call these from rayon worker threads.
pub trait Recorder: Send + Sync {
    /// The maximum event level this recorder wants (events above it are
    /// not delivered; counters/histograms/spans always are).
    fn level(&self) -> Level;
    /// A structured one-shot event.
    fn event(&self, level: Level, name: &str, fields: &[(&str, FieldValue)]);
    /// Add `delta` to the named monotonic counter.
    fn counter(&self, name: &str, delta: u64);
    /// Record one sample of the named histogram.
    fn histogram(&self, name: &str, value: f64);
    /// Set the named gauge to its most recent value (last write wins).
    /// Default: ignored, so pre-gauge recorders stay source-compatible.
    fn gauge(&self, name: &str, value: f64) {
        let _ = (name, value);
    }
    /// A completed span on a named track (wall-clock instants).
    fn span(
        &self,
        name: &str,
        track: &str,
        start: Instant,
        end: Instant,
        fields: &[(&str, FieldValue)],
    );
}

/// Global recorder state, packed so the disabled fast path is one relaxed
/// atomic load: 0 = no recorder; 1 + level otherwise.
static STATE: AtomicU8 = AtomicU8::new(0);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Install `recorder` as the process-global sink (replacing any previous
/// one). Instrumented call sites across the workspace start feeding it
/// immediately.
pub fn install(recorder: Arc<dyn Recorder>) {
    let state = 1 + recorder.level() as u8;
    *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
    STATE.store(state, Ordering::Release);
    // Each installed recorder starts a fresh flight; stale rings from a
    // previous run must not leak into this run's crash dumps.
    flight::clear();
}

/// Remove the global recorder; call sites return to the free no-op path.
pub fn uninstall() {
    STATE.store(0, Ordering::Release);
    *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Whether any recorder is installed (counters/histograms/spans are live).
#[inline]
pub fn active() -> bool {
    STATE.load(Ordering::Relaxed) != 0
}

/// Whether events at `level` would currently be recorded. Use this to
/// guard call sites whose *field construction* is not free.
#[inline]
pub fn enabled(level: Level) -> bool {
    let s = STATE.load(Ordering::Relaxed);
    s != 0 && s > level as u8
}

#[inline]
fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if STATE.load(Ordering::Relaxed) == 0 {
        return;
    }
    if let Some(r) = RECORDER
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_deref()
    {
        f(r)
    }
}

/// Emit a structured event (dropped unless [`enabled`]`(level)`).
#[inline]
pub fn event(level: Level, name: &str, fields: &[(&str, FieldValue)]) {
    if !enabled(level) {
        return;
    }
    with_recorder(|r| r.event(level, name, fields));
}

/// Add `delta` to a monotonic counter.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if STATE.load(Ordering::Relaxed) == 0 {
        return;
    }
    with_recorder(|r| r.counter(name, delta));
}

/// Record one histogram sample.
#[inline]
pub fn histogram(name: &str, value: f64) {
    if STATE.load(Ordering::Relaxed) == 0 {
        return;
    }
    with_recorder(|r| r.histogram(name, value));
}

/// Set a gauge to its most recent value (last write wins).
#[inline]
pub fn gauge(name: &str, value: f64) {
    if STATE.load(Ordering::Relaxed) == 0 {
        return;
    }
    with_recorder(|r| r.gauge(name, value));
}

/// Open a span on `track`; it records itself when dropped. While no
/// recorder is installed the guard is inert and costs one atomic load.
#[inline]
pub fn span(name: &'static str, track: &'static str) -> SpanGuard {
    span_with(name, track, Vec::new())
}

/// [`span`] with fields attached to the completed span.
#[inline]
pub fn span_with(
    name: &'static str,
    track: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
) -> SpanGuard {
    let start = active().then(Instant::now);
    SpanGuard {
        name,
        track,
        start,
        fields,
    }
}

/// Live span handle from [`span`]; records on drop.
#[must_use = "a span records when the guard drops"]
pub struct SpanGuard {
    name: &'static str,
    track: &'static str,
    start: Option<Instant>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let fields = std::mem::take(&mut self.fields);
        with_recorder(|r| r.span(self.name, self.track, start, end, &fields));
    }
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // The global recorder and the flight ring are process-wide state;
    // tests that install a recorder or record events and spans serialize
    // on this to keep `cargo test`'s parallel threads honest.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_noops() {
        let _g = test_lock();
        uninstall();
        assert!(!active());
        assert!(!enabled(Level::Quiet));
        counter("x", 1);
        histogram("y", 1.0);
        event(Level::Info, "z", &[]);
        drop(span("s", "t"));
    }

    #[test]
    fn level_gates_events_but_not_counters() {
        let _g = test_lock();
        let rec = Arc::new(ShardedRecorder::new(Level::Quiet));
        install(rec.clone());
        assert!(active());
        assert!(!enabled(Level::Info));
        event(Level::Info, "dropped", &[]);
        counter("kept", 2);
        histogram("h", 0.5);
        uninstall();
        let snap = rec.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.counter("kept"), 2);
        assert_eq!(snap.histogram("h").map(|h| h.count), Some(1));
    }

    #[test]
    fn install_replaces_previous_recorder() {
        let _g = test_lock();
        let a = Arc::new(ShardedRecorder::new(Level::Info));
        let b = Arc::new(ShardedRecorder::new(Level::Info));
        install(a.clone());
        counter("c", 1);
        install(b.clone());
        counter("c", 10);
        uninstall();
        assert_eq!(a.snapshot().counter("c"), 1);
        assert_eq!(b.snapshot().counter("c"), 10);
    }

    #[test]
    fn spans_record_duration_and_fields() {
        let _g = test_lock();
        let rec = Arc::new(ShardedRecorder::new(Level::Quiet));
        install(rec.clone());
        {
            let _s = span_with("work", "driver", vec![("n", FieldValue::U64(7))]);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        uninstall();
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert_eq!(s.name, "work");
        assert_eq!(s.track, "driver");
        assert!(s.end_us >= s.start_us + 1000.0, "{s:?}");
        assert_eq!(s.fields[0].0, "n");
    }

    #[test]
    fn level_parse_round_trips() {
        for l in [Level::Quiet, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
        assert_eq!(Level::parse("loud"), None);
    }
}
