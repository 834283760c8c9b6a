//! Accuracy and drift telemetry: every predicted-vs-measured pair the
//! stack produces (advisor `validate: true` traffic, `--bench-exec` /
//! `--check-roofline` runs) is appended to a JSONL log and folded into
//! rolling per-segment error gauges, so the paper's central claim — the
//! model stays within its §5.3 band — is continuously checked instead
//! of eyeballed.
//!
//! Each [`record`](AccuracyLog::record) call appends one
//! `{"kind":"accuracy",...}` row, updates the segment's rolling-window
//! relative-error RMSE gauge (`model.rel_err.<source>.<device>.
//! <stencil>.<dim>d`), and bumps `model.accuracy_pairs`. When a full
//! window's RMSE exceeds the caller's band, a `model.drift` event fires
//! (once per excursion — re-arming only after the window recovers) and
//! `model.drift_detected` counts it.
//!
//! Three durability properties back the closed calibration loop built
//! on this log (the `calib` crate):
//!
//! * **Line-atomic appends.** All handles opened on the same path share
//!   one process-global mutex-guarded writer, and each row is written
//!   with a *single* `write_all` of the full `line\n` — concurrent
//!   server worker threads can never interleave partial lines.
//! * **Rotation.** When the file exceeds its size cap it is rolled to
//!   `<path>.1` (replacing any previous rollover) and a fresh file is
//!   started, so append-only traffic cannot grow without bound
//!   (`model.accuracy_rotated` counts rollovers).
//! * **Tail replay.** Opening a log re-reads the persisted tail into
//!   the rolling windows (`model.accuracy_replayed`), so a process
//!   restart does not silently reset the `model.rel_err.*` gauges and
//!   the drift detector to a cold "no drift" state — the first
//!   over-band record after a restart fires against a warm window.
//!
//! When the prediction was produced by a *calibrated* model, the pair
//! also carries the raw (pre-correction) prediction; its rolling RMSE
//! is exported as `model.rel_err_raw.<segment>` so the pre- vs
//! post-correction error of every segment is visible side by side,
//! while the drift detector runs on the corrected (served) error.

use crate::json::JsonWriter;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};
use std::time::{SystemTime, UNIX_EPOCH};

/// Rolling window length for the per-segment RMSE gauges.
pub const DEFAULT_WINDOW: usize = 32;

/// Default rotation threshold for the append-only file.
pub const DEFAULT_MAX_BYTES: u64 = 16 * 1024 * 1024;

/// One predicted-vs-measured observation.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Producing subsystem (`"advisor"`, `"roofline"`, ...).
    pub source: String,
    /// Device name the prediction was made for.
    pub device: String,
    /// Stencil name.
    pub stencil: String,
    /// Problem dimensionality.
    pub dim: u32,
    /// Free-form workload key (size × tile, canonical query key, ...).
    pub key: String,
    /// Model-predicted time (seconds) — the prediction that was
    /// *served*, i.e. post-correction when a calibration is active.
    pub predicted_s: f64,
    /// Measured time (seconds), same time domain as the prediction.
    pub measured_s: f64,
    /// The uncorrected model prediction, when `predicted_s` went
    /// through a calibration correction; `None` when the served
    /// prediction *is* the raw model output.
    pub raw_predicted_s: Option<f64>,
    /// Whether the model placed this configuration in the memory-bound
    /// regime (`m' > c`) — the attribution bit the calibration fitter
    /// uses to split error between `Citer` and the memory-time term.
    pub memory_bound: Option<bool>,
}

struct SegmentWindow {
    errs: VecDeque<f64>,
    raw_errs: VecDeque<f64>,
    drifted: bool,
}

impl SegmentWindow {
    fn new() -> SegmentWindow {
        SegmentWindow {
            errs: VecDeque::new(),
            raw_errs: VecDeque::new(),
            drifted: false,
        }
    }
}

fn push_windowed(q: &mut VecDeque<f64>, v: f64, window: usize) {
    if q.len() >= window {
        q.pop_front();
    }
    q.push_back(v);
}

fn rmse(q: &VecDeque<f64>) -> f64 {
    (q.iter().map(|e| e * e).sum::<f64>() / q.len().max(1) as f64).sqrt()
}

// ---------------------------------------------------------------------
// Shared line-atomic writer
// ---------------------------------------------------------------------

struct WriterState {
    file: std::fs::File,
    len: u64,
}

/// One mutex-guarded appender per log *path*, shared by every
/// [`AccuracyLog`] handle opened on it in this process. Each line is a
/// single `write_all`, so rows are atomic with respect to both the
/// process's own threads and (on POSIX `O_APPEND` semantics) other
/// writers of the file.
struct SharedWriter {
    path: PathBuf,
    max_bytes: u64,
    state: Mutex<WriterState>,
}

impl SharedWriter {
    fn append(&self, line: &str) {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let _ = s.file.write_all(buf.as_bytes());
        let _ = s.file.flush();
        s.len += buf.len() as u64;
        if s.len >= self.max_bytes {
            // Roll the full file to `<path>.1` (clobbering the previous
            // rollover) and start fresh. Best-effort: a failed rotation
            // keeps appending to the oversized file rather than losing
            // rows.
            let rolled = rolled_path(&self.path);
            if std::fs::rename(&self.path, &rolled).is_ok() {
                if let Ok(file) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                {
                    s.file = file;
                    s.len = 0;
                    drop(s);
                    crate::counter("model.accuracy_rotated", 1);
                }
            }
        }
    }
}

/// Where a rotated log lands: `accuracy_log.jsonl` → `accuracy_log.jsonl.1`.
pub fn rolled_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".1");
    PathBuf::from(os)
}

/// Path → live writer. Two `AccuracyLog::open` calls on the same file
/// must share one writer, or their lines could interleave mid-row.
static WRITERS: Mutex<Vec<(PathBuf, Weak<SharedWriter>)>> = Mutex::new(Vec::new());

fn shared_writer(path: &Path, max_bytes: u64) -> io::Result<Arc<SharedWriter>> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    // Canonicalize (the file now exists) so `results/x` and `./results/x`
    // resolve to the same writer.
    let canon = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mut reg = WRITERS.lock().unwrap_or_else(|e| e.into_inner());
    reg.retain(|(_, w)| w.strong_count() > 0);
    if let Some((_, w)) = reg.iter().find(|(p, _)| *p == canon) {
        if let Some(existing) = w.upgrade() {
            return Ok(existing);
        }
    }
    let len = file.metadata().map(|m| m.len()).unwrap_or(0);
    let writer = Arc::new(SharedWriter {
        path: path.to_path_buf(),
        max_bytes,
        state: Mutex::new(WriterState { file, len }),
    });
    reg.push((canon, Arc::downgrade(&writer)));
    Ok(writer)
}

// ---------------------------------------------------------------------
// Row parsing (for tail replay)
// ---------------------------------------------------------------------

/// A parsed accuracy row — exactly the fields the rolling windows and
/// the calibration fitter need.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub source: String,
    pub device: String,
    pub stencil: String,
    pub dim: u32,
    pub predicted_s: f64,
    pub measured_s: f64,
    pub rel_err: f64,
    pub raw_predicted_s: Option<f64>,
    pub memory_bound: Option<bool>,
}

/// The rows of an accuracy log's bytes, in file order. A line that is not
/// UTF-8 (an append torn inside a multi-byte device or stencil name) or
/// does not [`parse_row`] is skipped, never the rest of the file.
pub fn rows(bytes: &[u8]) -> impl Iterator<Item = Row> + '_ {
    bytes
        .split(|&b| b == b'\n')
        .filter_map(|line| std::str::from_utf8(line).ok())
        .filter_map(parse_row)
}

/// Parse one line of the accuracy log. Returns `None` for blank lines,
/// rows of another kind, and malformed rows (a torn tail line from a
/// crashed writer must not poison a replay or a calibration fit).
pub fn parse_row(line: &str) -> Option<Row> {
    let fields = parse_flat_object(line.trim())?;
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    match get("kind") {
        Some(Lit::Str(k)) if k == "accuracy" => {}
        _ => return None,
    }
    let str_of = |name: &str| match get(name) {
        Some(Lit::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let num_of = |name: &str| match get(name) {
        Some(Lit::Num(v)) => Some(*v),
        _ => None,
    };
    Some(Row {
        source: str_of("source")?,
        device: str_of("device")?,
        stencil: str_of("stencil")?,
        dim: num_of("dim")? as u32,
        predicted_s: num_of("predicted_s")?,
        measured_s: num_of("measured_s")?,
        rel_err: num_of("rel_err")?,
        raw_predicted_s: num_of("raw_predicted_s"),
        memory_bound: match get("memory_bound") {
            Some(Lit::Bool(b)) => Some(*b),
            _ => None,
        },
    })
}

/// A scalar JSON literal (the accuracy rows are flat objects).
enum Lit {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

/// Minimal parser for one-line flat JSON objects, tolerant of exactly
/// the output our own [`JsonWriter`] produces (string escapes included).
fn parse_flat_object(line: &str) -> Option<Vec<(String, Lit)>> {
    let mut chars = line.char_indices().peekable();
    let mut out = Vec::new();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices>| {
        while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
    };
    let parse_string = |chars: &mut std::iter::Peekable<std::str::CharIndices>| -> Option<String> {
        match chars.next() {
            Some((_, '"')) => {}
            _ => return None,
        }
        let mut s = String::new();
        loop {
            match chars.next()? {
                (_, '"') => return Some(s),
                (_, '\\') => match chars.next()?.1 {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'b' => s.push('\u{8}'),
                    'f' => s.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + chars.next()?.1.to_digit(16)?;
                        }
                        s.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                (_, c) => s.push(c),
            }
        }
    };
    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return None,
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
        return Some(out);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            _ => return None,
        }
        skip_ws(&mut chars);
        let value = match chars.peek()? {
            (_, '"') => Lit::Str(parse_string(&mut chars)?),
            (_, 't') => {
                for want in "true".chars() {
                    if chars.next()?.1 != want {
                        return None;
                    }
                }
                Lit::Bool(true)
            }
            (_, 'f') => {
                for want in "false".chars() {
                    if chars.next()?.1 != want {
                        return None;
                    }
                }
                Lit::Bool(false)
            }
            (_, 'n') => {
                for want in "null".chars() {
                    if chars.next()?.1 != want {
                        return None;
                    }
                }
                Lit::Null
            }
            _ => {
                let start = chars.peek()?.0;
                let mut end = start;
                while let Some(&(i, c)) = chars.peek() {
                    if c == ',' || c == '}' || c.is_ascii_whitespace() {
                        break;
                    }
                    end = i + c.len_utf8();
                    chars.next();
                }
                Lit::Num(line[start..end].parse().ok()?)
            }
        };
        out.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => return Some(out),
            _ => return None,
        }
    }
}

// ---------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------

struct State {
    windows: HashMap<String, SegmentWindow>,
}

/// Append-only accuracy log with drift detection. Cheap enough to hold
/// behind an `Arc` in the advisor config; each record is one short
/// write plus O(window) arithmetic.
pub struct AccuracyLog {
    path: PathBuf,
    window: usize,
    writer: Arc<SharedWriter>,
    state: Mutex<State>,
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

impl std::fmt::Debug for AccuracyLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccuracyLog")
            .field("path", &self.path)
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

impl AccuracyLog {
    /// Open (append) the log at `path`, creating parent directories,
    /// and replay the persisted tail into the rolling windows.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<AccuracyLog> {
        AccuracyLog::with_options(path, DEFAULT_WINDOW, DEFAULT_MAX_BYTES)
    }

    /// [`open`](AccuracyLog::open) with an explicit rolling-window
    /// length (useful for tests; must be ≥ 1).
    pub fn with_window(path: impl Into<PathBuf>, window: usize) -> io::Result<AccuracyLog> {
        AccuracyLog::with_options(path, window, DEFAULT_MAX_BYTES)
    }

    /// [`open`](AccuracyLog::open) with explicit rolling-window length
    /// and rotation threshold. When several handles share one path, the
    /// first opener's threshold wins (the writer is shared).
    pub fn with_options(
        path: impl Into<PathBuf>,
        window: usize,
        max_bytes: u64,
    ) -> io::Result<AccuracyLog> {
        let path = path.into();
        let writer = shared_writer(&path, max_bytes.max(1))?;
        let log = AccuracyLog {
            path,
            window: window.max(1),
            writer,
            state: Mutex::new(State {
                windows: HashMap::new(),
            }),
        };
        log.replay_tail();
        Ok(log)
    }

    /// Where the log is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The gauge/segment name a pair folds into.
    pub fn segment(pair: &Pair) -> String {
        segment_name(&pair.source, &pair.device, &pair.stencil, pair.dim)
    }

    /// Re-read the persisted file into the rolling windows so a process
    /// restart resumes with warm gauges instead of silently reporting a
    /// cold window as "no drift". Rows are folded oldest-first, so each
    /// segment's window ends up holding exactly the newest `window`
    /// errors; the per-segment gauges are re-emitted immediately and
    /// `model.accuracy_replayed` counts the rows consumed. Drift state
    /// starts re-armed: a window replayed already over the band raises
    /// `model.drift` on the first post-restart record.
    fn replay_tail(&self) {
        let Ok(bytes) = std::fs::read(&self.path) else {
            return;
        };
        if bytes.is_empty() {
            return;
        }
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut replayed = 0u64;
        for row in rows(&bytes) {
            let segment = segment_name(&row.source, &row.device, &row.stencil, row.dim);
            let win = s.windows.entry(segment).or_insert_with(SegmentWindow::new);
            push_windowed(&mut win.errs, row.rel_err, self.window);
            if let Some(raw) = row.raw_predicted_s {
                if row.measured_s > 0.0 {
                    push_windowed(
                        &mut win.raw_errs,
                        (raw - row.measured_s) / row.measured_s,
                        self.window,
                    );
                }
            }
            replayed += 1;
        }
        if replayed == 0 {
            return;
        }
        let gauges: Vec<(String, f64, Option<f64>)> = s
            .windows
            .iter()
            .map(|(seg, win)| {
                let raw = (!win.raw_errs.is_empty()).then(|| rmse(&win.raw_errs));
                (seg.clone(), rmse(&win.errs), raw)
            })
            .collect();
        drop(s);
        crate::counter("model.accuracy_replayed", replayed);
        for (seg, err, raw) in gauges {
            crate::gauge(&format!("model.rel_err.{seg}"), err);
            if let Some(raw) = raw {
                crate::gauge(&format!("model.rel_err_raw.{seg}"), raw);
            }
        }
    }

    /// Append one observation and update the segment's rolling gauge;
    /// `band` is the acceptable rolling RMSE (e.g. `0.10` for the
    /// paper's §5.3 within-10% claim) above which drift is raised. The
    /// drift detector runs on the *served* prediction (`predicted_s`),
    /// so when a calibration is active it is anchored to the corrected
    /// model; the uncorrected error only feeds the
    /// `model.rel_err_raw.*` gauge. Pairs with a non-positive or
    /// non-finite measurement are counted (`model.accuracy_skipped`)
    /// but not logged.
    pub fn record(&self, pair: &Pair, band: f64) {
        if !(pair.measured_s > 0.0 && pair.measured_s.is_finite() && pair.predicted_s.is_finite()) {
            crate::counter("model.accuracy_skipped", 1);
            return;
        }
        let rel_err = (pair.predicted_s - pair.measured_s) / pair.measured_s;
        let raw_rel_err = pair
            .raw_predicted_s
            .filter(|r| r.is_finite())
            .map(|r| (r - pair.measured_s) / pair.measured_s);
        let segment = AccuracyLog::segment(pair);
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);

        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("kind", "accuracy");
        w.field_u64("ts_ms", ts_ms);
        w.field_str("source", &pair.source);
        w.field_str("device", &pair.device);
        w.field_str("stencil", &pair.stencil);
        w.field_u64("dim", pair.dim as u64);
        w.field_str("key", &pair.key);
        w.field_f64("predicted_s", pair.predicted_s);
        w.field_f64("measured_s", pair.measured_s);
        w.field_f64("rel_err", rel_err);
        if let Some(raw) = pair.raw_predicted_s {
            w.field_f64("raw_predicted_s", raw);
        }
        if let Some(mb) = pair.memory_bound {
            w.field_bool("memory_bound", mb);
        }
        w.end_object();
        self.writer.append(&w.finish());

        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let win = s
            .windows
            .entry(segment.clone())
            .or_insert_with(SegmentWindow::new);
        push_windowed(&mut win.errs, rel_err, self.window);
        if let Some(raw) = raw_rel_err {
            push_windowed(&mut win.raw_errs, raw, self.window);
        }
        let err_rmse = rmse(&win.errs);
        let raw_rmse = (!win.raw_errs.is_empty()).then(|| rmse(&win.raw_errs));
        let full = win.errs.len() >= self.window;
        let drift_now = full && err_rmse > band;
        let raise = drift_now && !win.drifted;
        win.drifted = drift_now;
        drop(s);

        crate::counter("model.accuracy_pairs", 1);
        crate::gauge(&format!("model.rel_err.{segment}"), err_rmse);
        if let Some(raw) = raw_rmse {
            crate::gauge(&format!("model.rel_err_raw.{segment}"), raw);
        }
        if raise {
            crate::counter("model.drift_detected", 1);
            crate::event(
                crate::Level::Info,
                "model.drift",
                &[
                    ("segment", crate::FieldValue::Str(segment)),
                    ("rmse", crate::FieldValue::F64(err_rmse)),
                    ("band", crate::FieldValue::F64(band)),
                    ("window", crate::FieldValue::U64(self.window as u64)),
                ],
            );
        }
    }
}

fn segment_name(source: &str, device: &str, stencil: &str, dim: u32) -> String {
    format!(
        "{}.{}.{}.{}d",
        sanitize(source),
        sanitize(device),
        sanitize(stencil),
        dim
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, uninstall, Level, ShardedRecorder};
    use std::sync::Arc;

    fn pair(err: f64) -> Pair {
        Pair {
            source: "test".into(),
            device: "GTX 980".into(),
            stencil: "Jacobi2D".into(),
            dim: 2,
            key: "k".into(),
            predicted_s: 1.0 + err,
            measured_s: 1.0,
            raw_predicted_s: None,
            memory_bound: None,
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "obs-accuracy-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn records_rows_updates_gauge_and_raises_drift_once() {
        let _g = crate::test_lock();
        let path = temp_path("basic");
        let _ = std::fs::remove_file(&path);
        let rec = Arc::new(ShardedRecorder::new(Level::Info));
        install(rec.clone());
        let log = AccuracyLog::with_window(&path, 4).unwrap();
        // Four in-band pairs: gauge set, no drift.
        for _ in 0..4 {
            log.record(&pair(0.05), 0.10);
        }
        // Four bad pairs push the window's RMSE over the band — drift
        // fires exactly once even though the state persists.
        for _ in 0..4 {
            log.record(&pair(0.50), 0.10);
        }
        // Recovery re-arms, another excursion fires again.
        for _ in 0..4 {
            log.record(&pair(0.01), 0.10);
        }
        for _ in 0..4 {
            log.record(&pair(0.80), 0.10);
        }
        log.record(
            &Pair {
                measured_s: 0.0,
                ..pair(0.0)
            },
            0.10,
        );
        uninstall();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("model.accuracy_pairs"), 16);
        assert_eq!(snap.counter("model.accuracy_skipped"), 1);
        assert_eq!(snap.counter("model.drift_detected"), 2);
        let g = snap
            .gauge("model.rel_err.test.gtx_980.jacobi2d.2d")
            .expect("segment gauge set");
        assert!((g - 0.80).abs() < 1e-9, "final window is all 0.80: {g}");
        let drift_events: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "model.drift")
            .collect();
        assert_eq!(drift_events.len(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 16, "skipped pair not logged");
        assert!(text.contains("\"kind\":\"accuracy\""));
        assert!(text.contains("\"rel_err\":0.05"));
        drop(log);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn raw_prediction_feeds_the_pre_correction_gauge() {
        let _g = crate::test_lock();
        let path = temp_path("raw");
        let _ = std::fs::remove_file(&path);
        let rec = Arc::new(ShardedRecorder::new(Level::Info));
        install(rec.clone());
        let log = AccuracyLog::with_window(&path, 4).unwrap();
        for _ in 0..4 {
            log.record(
                &Pair {
                    predicted_s: 1.05,
                    raw_predicted_s: Some(3.0),
                    memory_bound: Some(false),
                    ..pair(0.0)
                },
                0.10,
            );
        }
        uninstall();
        let snap = rec.snapshot();
        let post = snap
            .gauge("model.rel_err.test.gtx_980.jacobi2d.2d")
            .unwrap();
        let pre = snap
            .gauge("model.rel_err_raw.test.gtx_980.jacobi2d.2d")
            .unwrap();
        assert!((post - 0.05).abs() < 1e-12, "{post}");
        assert!((pre - 2.0).abs() < 1e-12, "{pre}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"raw_predicted_s\":3.0"));
        assert!(text.contains("\"memory_bound\":false"));
        // Every row round-trips through the replay parser.
        for line in text.lines() {
            let row = parse_row(line).expect("row parses");
            assert_eq!(row.raw_predicted_s, Some(3.0));
            assert_eq!(row.memory_bound, Some(false));
        }
        drop(log);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_replays_tail_and_keeps_drift_detector_warm() {
        let _g = crate::test_lock();
        let path = temp_path("replay");
        let _ = std::fs::remove_file(&path);
        {
            let log = AccuracyLog::with_window(&path, 4).unwrap();
            for _ in 0..6 {
                log.record(&pair(0.50), 0.10);
            }
        }
        // Restarted process: gauges come back at open, and the very
        // first over-band record fires drift against the warm window —
        // no cold-start "no drift" report.
        let rec = Arc::new(ShardedRecorder::new(Level::Info));
        install(rec.clone());
        let log = AccuracyLog::with_window(&path, 4).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("model.accuracy_replayed"), 6);
        let g = snap
            .gauge("model.rel_err.test.gtx_980.jacobi2d.2d")
            .expect("gauge restored from persisted tail");
        assert!((g - 0.50).abs() < 1e-9, "{g}");
        log.record(&pair(0.50), 0.10);
        uninstall();
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter("model.drift_detected"),
            1,
            "first post-restart record must see the warm window"
        );
        drop(log);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_handles_never_interleave_partial_lines() {
        let _g = crate::test_lock();
        let path = temp_path("interleave");
        let _ = std::fs::remove_file(&path);
        const THREADS: usize = 4;
        const PER_THREAD: usize = 200;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let path = path.clone();
            handles.push(std::thread::spawn(move || {
                // Each thread opens its *own* handle on the same path —
                // the registry must route them all through one writer.
                let log = AccuracyLog::with_window(&path, 8).unwrap();
                for i in 0..PER_THREAD {
                    log.record(
                        &Pair {
                            key: format!("thread-{t}-row-{i}-{}", "x".repeat(64)),
                            ..pair(0.01)
                        },
                        0.10,
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), THREADS * PER_THREAD);
        for line in lines {
            let row = parse_row(line).unwrap_or_else(|| panic!("torn line: {line}"));
            assert_eq!(row.source, "test");
            assert!(row.rel_err.is_finite());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_log_rolls_over_to_dot_one() {
        let _g = crate::test_lock();
        let path = temp_path("rotate");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(rolled_path(&path));
        let log = AccuracyLog::with_options(&path, 4, 2048).unwrap();
        for i in 0..64 {
            log.record(
                &Pair {
                    key: format!("row-{i}"),
                    ..pair(0.01)
                },
                0.10,
            );
        }
        let rolled = rolled_path(&path);
        assert!(rolled.exists(), "rollover file created");
        let head = std::fs::metadata(&path).unwrap().len();
        assert!(head < 2048 + 256, "live file stays near the cap: {head}");
        // Both files hold only complete rows.
        let mut total = 0;
        for p in [&path, &rolled] {
            for line in std::fs::read_to_string(p).unwrap().lines() {
                assert!(parse_row(line).is_some(), "torn line after rotation");
                total += 1;
            }
        }
        assert!(total <= 64, "rotation keeps at most cap+rollover rows");
        drop(log);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(rolled);
    }

    /// A well-formed advisor row for `stencil`, newline-terminated.
    fn row_line(stencil: &str) -> Vec<u8> {
        format!(
            "{{\"kind\":\"accuracy\",\"ts_ms\":1,\"source\":\"advisor\",\
             \"device\":\"GTX 980\",\"stencil\":\"{stencil}\",\"dim\":2,\
             \"key\":\"k\",\"predicted_s\":1.5e-3,\"measured_s\":1.0e-3,\
             \"rel_err\":0.5}}\n"
        )
        .into_bytes()
    }

    /// A row cut inside a two-byte character, then newline-terminated:
    /// what an append torn inside a non-ASCII name leaves behind.
    fn torn_line() -> Vec<u8> {
        let mut line = row_line("Wärme2D");
        let cut = line.iter().position(|&b| b == 0xc3).unwrap() + 1;
        line.truncate(cut);
        line.push(b'\n');
        line
    }

    #[test]
    fn replay_skips_a_line_torn_inside_a_multibyte_name() {
        let _g = crate::test_lock();
        let path = temp_path("utf8");
        let log = [row_line("Heat2D"), torn_line(), row_line("Wärme2D")].concat();
        assert!(std::str::from_utf8(&log).is_err(), "premise: invalid UTF-8");
        std::fs::write(&path, log).unwrap();
        let rec = Arc::new(ShardedRecorder::new(Level::Info));
        install(rec.clone());
        let handle = AccuracyLog::with_window(&path, 4).unwrap();
        uninstall();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("model.accuracy_replayed"), 2);
        assert!(snap
            .gauge("model.rel_err.advisor.gtx_980.heat2d.2d")
            .is_some());
        drop(handle);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_row_rejects_torn_and_foreign_lines() {
        assert!(parse_row("").is_none());
        assert!(parse_row("{\"kind\":\"gauge\",\"name\":\"x\"}").is_none());
        assert!(parse_row("{\"kind\":\"accuracy\",\"source\":\"a").is_none());
        assert!(parse_row("{\"kind\":\"accuracy\"}").is_none());
        let full = "{\"kind\":\"accuracy\",\"ts_ms\":1,\"source\":\"advisor\",\
                    \"device\":\"GTX 980\",\"stencil\":\"Heat2D\",\"dim\":2,\
                    \"key\":\"k\",\"predicted_s\":1.5e-3,\"measured_s\":1.0e-3,\
                    \"rel_err\":0.5}";
        let row = parse_row(full).expect("well-formed row parses");
        assert_eq!(row.device, "GTX 980");
        assert_eq!(row.dim, 2);
        assert!((row.rel_err - 0.5).abs() < 1e-12);
        assert_eq!(row.raw_predicted_s, None);
        assert_eq!(row.memory_bound, None);
    }
}
