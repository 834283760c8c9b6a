//! One benchmark run: its configuration, the measurement pieces every
//! workload shares, and the result line the caller reads.

use crate::fixture::Checks;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{self, ratio};
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Rayon pool size of every run. The vendored rayon spawns fresh OS
/// threads for every parallel call; on the two-vCPU VM the benchmark was
/// built on, a pool of two widened the run-to-run spread of `reproduce`
/// from 5-8% to 12-41% and slowed `select` and `serve-mixed`.
pub const RAYON_THREADS: usize = 1;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    /// Seeds the generated inputs (query order, key streams); never the
    /// model, so fixtures hold for every seed.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Report the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Smallest input set and no warm-up, for tests.
    pub smoke: bool,
    /// Where each run appends its record (`<workload>.jsonl`).
    pub out_dir: PathBuf,
}

/// The end-to-end view of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency samples, ms: one per request on the serve workloads, one
    /// per round of the fixed work set on `select` and `reproduce` (a
    /// round mixes operations whose costs differ tenfold, so percentiles
    /// over single operations would jump between them from run to run).
    pub op_ms: Vec<f32>,
    /// Operations completed.
    pub completed: u64,
    /// Seconds the completions are counted over.
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    /// Mean measured seconds per attempted operation, ms.
    pub fn ms_per_op(&self) -> f64 {
        ratio(self.seconds * 1e3, self.attempted as f64)
    }

    /// Nearest-rank latency percentile, ms.
    pub fn percentile_ms(&mut self, q: f64) -> f64 {
        self.op_ms.sort_by(f32::total_cmp);
        let n = self.op_ms.len();
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        f64::from(self.op_ms[rank - 1])
    }
}

/// The outcome of one run, before rendering.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// `(name, value)` in `spec` order.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time this process has used, all threads (ended ones too), s.
pub fn process_cpu_s() -> f64 {
    // utime and stime are fields 14 and 15 of /proc/self/stat, in
    // USER_HZ ticks (100 per second on Linux); the command name before
    // them may hold spaces, so count from its closing parenthesis.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: &[f64], phase: &mut Phase) -> Vec<(&'static str, f64)> {
    let values = [
        ("setup_s", stats::median(setup_s)),
        ("ops_per_s", ratio(phase.completed as f64, phase.seconds)),
        ("p50_ms", phase.percentile_ms(0.50)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    debug_assert!(values.iter().zip(END_TO_END).all(|(v, m)| v.0 == m.name));
    values.to_vec()
}

/// The per-layer ledger of a traced run: every metric starts at 0 (the
/// layer did no work on this workload) and the workload fills in what it
/// measured.
#[derive(Debug)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            values: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
        }
    }
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric")) = value;
    }

    /// Tracing overhead: traced over untraced median latency, minus one.
    pub fn set_overhead(&mut self, untraced: &mut Phase, traced: &mut Phase) {
        let base = untraced.percentile_ms(0.5);
        self.set(
            "obs.trace_overhead_frac",
            ratio(traced.percentile_ms(0.5), base) - 1.0,
        );
    }

    pub fn into_metrics(self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.values[m.name]))
            .collect()
    }
}

/// Time one call into a layer from benchmark code, recorded as a span on
/// the `benchmark` track when a [`Tracer`] is installed.
pub fn layer<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = obs::span(name, "benchmark");
    timed(f)
}

/// The obs recorder of a traced run. What it records while installed —
/// the library's counters and spans, and the benchmark's spans around
/// each call into a layer — is written out as a Chrome trace when the
/// run ends.
pub struct Tracer {
    rec: Arc<obs::ShardedRecorder>,
}

/// A recorder, not yet installed.
impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            rec: Arc::new(obs::ShardedRecorder::with_capacity(
                obs::Level::Quiet,
                200_000,
            )),
        }
    }
}

impl Tracer {
    /// Start recording.
    pub fn resume(&self) {
        obs::install(self.rec.clone());
    }

    /// Stop recording; what was recorded stays.
    pub fn pause(&self) {
        obs::uninstall();
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> obs::Snapshot {
        self.rec.snapshot()
    }

    /// Stop recording, and write the spans to `path` as a Chrome trace.
    pub fn finish(self, path: &std::path::Path) {
        obs::uninstall();
        let mut trace = obs::chrome::ChromeTrace::new();
        trace.name_process(0, "hhc-benchmark");
        trace.add_spans(0, &self.rec.snapshot().spans);
        let written = std::fs::create_dir_all(path.parent().unwrap_or(path))
            .and_then(|()| std::fs::write(path, trace.to_json()));
        if let Err(e) = written {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Total duration of the named spans, seconds.
pub fn span_seconds(snap: &obs::Snapshot, name: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us() * 1e-6)
        .sum()
}

/// Provenance recorded with every run.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub git_rev: String,
    pub rayon_threads: usize,
    pub nproc: usize,
    pub simd: String,
}

impl Manifest {
    pub fn collect(git_rev: String) -> Manifest {
        Manifest {
            git_rev,
            rayon_threads: rayon::current_num_threads(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: stencil_core::simd::caps().describe(),
        }
    }
}

fn metrics_value(metrics: &[(&'static str, f64)], with_units: bool) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|(name, v)| {
                let value = if with_units {
                    Value::Map(vec![
                        ("value".into(), Value::F64(*v)),
                        (
                            "unit".into(),
                            Value::Str(crate::spec::unit_of(name).unwrap_or("").into()),
                        ),
                    ])
                } else {
                    Value::F64(*v)
                };
                (name.to_string(), value)
            })
            .collect(),
    )
}

/// Print the run's metrics (`name value unit` lines, then the one-line
/// JSON result) and append its record to `<out_dir>/<workload>.jsonl`.
/// Returns whether every output check passed.
pub fn emit(cfg: &RunConfig, manifest: &Manifest, report: &Report) -> bool {
    let correct = report.checks.failures().is_empty();
    for msg in report.checks.failures() {
        eprintln!("check failed: {msg}");
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (name, v) in &report.metrics {
        let _ = writeln!(
            out,
            "{name} {v} {}",
            crate::spec::unit_of(name).unwrap_or("")
        );
    }
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(report.attempted)),
        ("failed".into(), Value::UInt(report.failed)),
        ("metrics".into(), metrics_value(&report.metrics, true)),
    ]);
    let _ = writeln!(
        out,
        "{}",
        serde_json::to_string(&result).expect("result renders")
    );
    let _ = out.flush();

    let record = Value::Map(vec![
        ("workload".into(), Value::Str(cfg.workload.clone())),
        ("seed".into(), Value::UInt(cfg.seed)),
        ("trace".into(), Value::Bool(cfg.trace)),
        ("smoke".into(), Value::Bool(cfg.smoke)),
        ("seconds".into(), Value::F64(cfg.seconds)),
        ("git_rev".into(), Value::Str(manifest.git_rev.clone())),
        (
            "rayon_threads".into(),
            Value::UInt(manifest.rayon_threads as u64),
        ),
        ("nproc".into(), Value::UInt(manifest.nproc as u64)),
        ("simd".into(), Value::Str(manifest.simd.clone())),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(report.attempted)),
        ("failed".into(), Value::UInt(report.failed)),
        ("metrics".into(), metrics_value(&report.metrics, false)),
    ]);
    let line = serde_json::to_string(&record).expect("record renders");
    let path = cfg.out_dir.join(format!("{}.jsonl", cfg.workload));
    let appended = std::fs::create_dir_all(&cfg.out_dir).and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        writeln!(f, "{line}")
    });
    if let Err(e) = appended {
        eprintln!("warning: could not append to {}: {e}", path.display());
    }
    correct
}
