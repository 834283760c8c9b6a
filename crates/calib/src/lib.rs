//! # calib
//!
//! Closed-loop model calibration: turns the accuracy log that PR 7
//! started collecting (validated advisor traffic, `--bench-exec`
//! roofline rows) into per-segment multiplicative corrections for the
//! analytical model's two measured time terms, served back through
//! `Advisor::advise`.
//!
//! The paper calibrates `Citer` and the memory path (`L`, `τ_sync`)
//! once, offline (§5.2), and accepts the residual error as the price of
//! an analytical model. But every validated query already produces a
//! (predicted, measured) pair — evidence this crate refuses to discard.
//! Following Ernst et al. (*Analytical Performance Estimation during
//! Code Generation on Modern GPUs*), an analytical model plus cheap
//! measured corrections beats either alone: the model supplies the
//! shape of the space, the corrections remove systematic per-segment
//! bias, and the within-10% band tightens so fewer candidates need
//! measured validation per query.
//!
//! ## Fitting
//!
//! A **segment** is a (device, stencil, dim) triple — the granularity
//! at which `Citer` is measured in the paper (Table 4 is exactly a
//! stencil × device table). Each observed pair contributes the ratio
//! `measured / predicted` (against the *raw*, uncorrected prediction
//! when the row carries one, so refitting a log produced by calibrated
//! serving does not compound corrections). The row's `memory_bound`
//! bit attributes the ratio to the term that dominated that tile's
//! modeled time: memory-bound rows fit the memory factor, compute-bound
//! rows fit the `Citer` factor. Ratios are folded as a running mean of
//! `ln(ratio)` — the geometric mean, robust to the multiplicative
//! noise of timing data — winsorized to `[1/8, 8]` so one wild
//! measurement cannot drag a factor.
//!
//! ## Evidence gating
//!
//! A factor is **inactive** (treated as exactly 1.0) until its segment
//! has accumulated [`CalibrationStore::min_evidence`] pairs (default
//! [`DEFAULT_MIN_EVIDENCE`]); a segment with both factors inactive
//! yields no [`Correction`] at all, and the advisor serves the
//! uncorrected model bit-identically. This is the same posture the
//! paper takes toward its own microbenchmarks: don't trust a parameter
//! until it has been measured enough times to be boring.
//!
//! ## Revisions
//!
//! [`CalibrationStore::revision`] is a deterministic content hash. The
//! advisor folds it into its canonical query key, so disk-cache entries
//! and precomputed answer stores minted under a different calibration
//! are structurally unreachable, and answer stores record the revision
//! they were built under (`advisor.store_stale_calib` counts refusals).

use serde::Value;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use time_model::Correction;

/// Pairs a factor needs before it is trusted (per segment, per term).
pub const DEFAULT_MIN_EVIDENCE: u64 = 8;

/// Winsorization bound: observed ratios are clamped to
/// `[1/RATIO_CLAMP, RATIO_CLAMP]` before entering a fit.
pub const RATIO_CLAMP: f64 = 8.0;

/// On-disk format version.
pub const STORE_VERSION: u64 = 1;

/// Robust online fit of one multiplicative factor: a running mean of
/// winsorized `ln(measured/predicted)`, exponentiated on read.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParamFit {
    /// Pairs folded in.
    pub n: u64,
    /// Σ ln(ratio), after winsorization.
    pub sum_log: f64,
}

impl ParamFit {
    /// Fold one `measured/predicted` ratio into the fit. Non-finite or
    /// non-positive ratios are rejected (returns `false`).
    pub fn push(&mut self, ratio: f64) -> bool {
        if !(ratio.is_finite() && ratio > 0.0) {
            return false;
        }
        let clamped = ratio.clamp(1.0 / RATIO_CLAMP, RATIO_CLAMP);
        self.sum_log += clamped.ln();
        self.n += 1;
        true
    }

    /// The fitted factor: the geometric mean of the observed ratios
    /// (1.0 while empty).
    pub fn factor(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            (self.sum_log / self.n as f64).exp()
        }
    }
}

/// One segment's evidence: the two term fits plus the display names the
/// evidence arrived under.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentCalib {
    /// Device name as logged (e.g. `"GTX 980"`).
    pub device: String,
    /// Stencil name as logged (e.g. `"Heat2D"`).
    pub stencil: String,
    /// Problem dimensionality.
    pub dim: u32,
    /// Fit for the `2 C_iter Σ` compute product (compute-bound rows).
    pub citer: ParamFit,
    /// Fit for the memory term `m'` (memory-bound rows).
    pub mem: ParamFit,
}

impl SegmentCalib {
    fn new(device: &str, stencil: &str, dim: u32) -> SegmentCalib {
        SegmentCalib {
            device: device.to_string(),
            stencil: stencil.to_string(),
            dim,
            citer: ParamFit::default(),
            mem: ParamFit::default(),
        }
    }
}

/// What [`CalibrationStore::consume_log`] did with a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConsumeStats {
    /// Rows folded into a fit.
    pub consumed: u64,
    /// Accuracy rows skipped: missing `memory_bound` attribution,
    /// non-positive ratio, or the store is frozen.
    pub rejected: u64,
}

/// The normalized segment key a (device, stencil, dim) triple files
/// under — same sanitization as the obs gauge segments, minus the
/// source component (corrections apply to the model, not to whoever
/// observed the error).
pub fn segment_key(device: &str, stencil: &str, dim: u32) -> String {
    format!("{}.{}.{}d", sanitize(device), sanitize(stencil), dim)
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

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Persistent per-segment correction store. Fitting is mutable
/// (`consume*`); serving treats the store as immutable behind an `Arc`,
/// so [`revision`](CalibrationStore::revision) is stable for the
/// lifetime of a serving process and safe to bake into cache keys.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationStore {
    min_evidence: u64,
    frozen: bool,
    segments: BTreeMap<String, SegmentCalib>,
}

impl Default for CalibrationStore {
    fn default() -> Self {
        CalibrationStore::new(DEFAULT_MIN_EVIDENCE)
    }
}

impl CalibrationStore {
    /// An empty store gating factors on `min_evidence` pairs (clamped
    /// to ≥ 1).
    pub fn new(min_evidence: u64) -> CalibrationStore {
        CalibrationStore {
            min_evidence: min_evidence.max(1),
            frozen: false,
            segments: BTreeMap::new(),
        }
    }

    /// The evidence gate: pairs a factor needs before it corrects.
    pub fn min_evidence(&self) -> u64 {
        self.min_evidence
    }

    /// Whether the store refuses further evidence.
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    /// Freeze the store: `consume*` becomes a no-op (rows count as
    /// rejected), pinning the corrections for reproducible serving.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Number of segments holding any evidence.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether no segment holds evidence.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Iterate segments in key order.
    pub fn segments(&self) -> impl Iterator<Item = (&str, &SegmentCalib)> {
        self.segments.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Segments whose correction would actually fire (≥ one factor past
    /// the evidence gate) — the `calib.segments_active` gauge value.
    pub fn active_segments(&self) -> usize {
        self.segments
            .keys()
            .filter(|k| {
                let s = &self.segments[*k];
                self.correction(&s.device, &s.stencil, s.dim).is_some()
            })
            .count()
    }

    /// Fold one accuracy row into the fits. Returns `false` when the
    /// row is rejected: the store is frozen, the row lacks the
    /// `memory_bound` attribution bit, or the ratio is unusable. Rows
    /// from calibrated serving are fitted against their raw
    /// (pre-correction) prediction so corrections never compound.
    pub fn consume(&mut self, row: &obs::accuracy::Row) -> bool {
        if self.frozen {
            return false;
        }
        let Some(memory_bound) = row.memory_bound else {
            return false;
        };
        let base = row.raw_predicted_s.unwrap_or(row.predicted_s);
        if !(base > 0.0 && base.is_finite() && row.measured_s > 0.0 && row.measured_s.is_finite()) {
            return false;
        }
        let key = segment_key(&row.device, &row.stencil, row.dim);
        let seg = self
            .segments
            .entry(key)
            .or_insert_with(|| SegmentCalib::new(&row.device, &row.stencil, row.dim));
        let fit = if memory_bound {
            &mut seg.mem
        } else {
            &mut seg.citer
        };
        fit.push(row.measured_s / base)
    }

    /// Fold every accuracy row of a log file (and its `.1` rollover,
    /// oldest first) into the fits, bumping `calib.pairs_consumed` /
    /// `calib.pairs_rejected`. A missing log file is an error; a
    /// missing rollover is normal.
    pub fn consume_log(&mut self, path: &Path) -> io::Result<ConsumeStats> {
        let mut stats = ConsumeStats::default();
        let rolled = obs::accuracy::rolled_path(path);
        let mut logs = Vec::new();
        if let Ok(bytes) = std::fs::read(&rolled) {
            logs.push(bytes);
        }
        logs.push(std::fs::read(path)?);
        for bytes in &logs {
            for row in obs::accuracy::rows(bytes) {
                if self.consume(&row) {
                    stats.consumed += 1;
                } else {
                    stats.rejected += 1;
                }
            }
        }
        obs::counter("calib.pairs_consumed", stats.consumed);
        obs::counter("calib.pairs_rejected", stats.rejected);
        Ok(stats)
    }

    /// The correction for a (device, stencil, dim) segment, or `None`
    /// when no factor has cleared the evidence gate — in which case the
    /// caller must serve the uncorrected model (bit-identically, per
    /// the `time_model::Correction` contract). An under-evidenced
    /// factor inside an otherwise active segment stays at exactly 1.0.
    pub fn correction(&self, device: &str, stencil: &str, dim: u32) -> Option<Correction> {
        let seg = self.segments.get(&segment_key(device, stencil, dim))?;
        let citer_active = seg.citer.n >= self.min_evidence;
        let mem_active = seg.mem.n >= self.min_evidence;
        if !citer_active && !mem_active {
            return None;
        }
        let corr = Correction {
            citer_scale: if citer_active {
                seg.citer.factor()
            } else {
                1.0
            },
            mem_scale: if mem_active { seg.mem.factor() } else { 1.0 },
        };
        corr.is_valid().then_some(corr)
    }

    /// Deterministic content hash of everything that determines served
    /// corrections (evidence sums and the gate; *not* the frozen bit).
    /// Stable across save/load — fit sums round-trip exactly through
    /// the shortest-representation float serialization.
    pub fn revision(&self) -> String {
        let mut h = fnv64(&self.min_evidence.to_le_bytes());
        for (key, seg) in &self.segments {
            h ^= fnv64(key.as_bytes());
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            for fit in [&seg.citer, &seg.mem] {
                h ^= fnv64(&fit.n.to_le_bytes());
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
                h ^= fnv64(&fit.sum_log.to_bits().to_le_bytes());
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }

    /// Merge another store's evidence into this one (summing fits;
    /// `min_evidence` keeps `self`'s gate). Errors if either store is
    /// frozen.
    pub fn merge(&mut self, other: &CalibrationStore) -> Result<(), String> {
        if self.frozen || other.frozen {
            return Err("cannot merge frozen calibration stores".to_string());
        }
        for (key, seg) in &other.segments {
            let mine = self
                .segments
                .entry(key.clone())
                .or_insert_with(|| SegmentCalib::new(&seg.device, &seg.stencil, seg.dim));
            mine.citer.n += seg.citer.n;
            mine.citer.sum_log += seg.citer.sum_log;
            mine.mem.n += seg.mem.n;
            mine.mem.sum_log += seg.mem.sum_log;
        }
        Ok(())
    }

    /// Serialize as JSONL: a header line then one line per segment.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Value::Map(vec![
            ("kind".into(), Value::Str("calib_store".into())),
            ("version".into(), Value::UInt(STORE_VERSION)),
            ("min_evidence".into(), Value::UInt(self.min_evidence)),
            ("frozen".into(), Value::Bool(self.frozen)),
            ("revision".into(), Value::Str(self.revision())),
            ("segments".into(), Value::UInt(self.segments.len() as u64)),
        ]);
        out.push_str(&serde_json::to_string(&header).expect("header serializes"));
        out.push('\n');
        for (key, seg) in &self.segments {
            let line = Value::Map(vec![
                ("kind".into(), Value::Str("calib_segment".into())),
                ("segment".into(), Value::Str(key.clone())),
                ("device".into(), Value::Str(seg.device.clone())),
                ("stencil".into(), Value::Str(seg.stencil.clone())),
                ("dim".into(), Value::UInt(seg.dim as u64)),
                ("citer_n".into(), Value::UInt(seg.citer.n)),
                ("citer_sum_log".into(), Value::F64(seg.citer.sum_log)),
                ("citer_factor".into(), Value::F64(seg.citer.factor())),
                ("mem_n".into(), Value::UInt(seg.mem.n)),
                ("mem_sum_log".into(), Value::F64(seg.mem.sum_log)),
                ("mem_factor".into(), Value::F64(seg.mem.factor())),
            ]);
            out.push_str(&serde_json::to_string(&line).expect("segment serializes"));
            out.push('\n');
        }
        out
    }

    /// Write atomically (tmp + rename) so a reader never sees a torn
    /// store.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_jsonl().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Parse a store from its JSONL serialization.
    pub fn from_jsonl(text: &str) -> Result<CalibrationStore, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty calibration store")?;
        let header = parse_map(header).ok_or("calibration header is not a JSON object")?;
        match get_str(&header, "kind") {
            Some(k) if k == "calib_store" => {}
            _ => return Err("not a calibration store (missing kind)".to_string()),
        }
        match get_u64(&header, "version") {
            Some(STORE_VERSION) => {}
            Some(v) => return Err(format!("unsupported calibration store version {v}")),
            None => return Err("calibration header missing version".to_string()),
        }
        let mut store = CalibrationStore::new(
            get_u64(&header, "min_evidence").ok_or("calibration header missing min_evidence")?,
        );
        store.frozen = matches!(get(&header, "frozen"), Some(Value::Bool(true)));
        for line in lines {
            let seg = parse_map(line).ok_or_else(|| format!("bad segment line: {line}"))?;
            match get_str(&seg, "kind") {
                Some(k) if k == "calib_segment" => {}
                _ => return Err(format!("unexpected line kind in store: {line}")),
            }
            let device = get_str(&seg, "device").ok_or("segment missing device")?;
            let stencil = get_str(&seg, "stencil").ok_or("segment missing stencil")?;
            let dim = get_u64(&seg, "dim").ok_or("segment missing dim")? as u32;
            let mut sc = SegmentCalib::new(&device, &stencil, dim);
            sc.citer.n = get_u64(&seg, "citer_n").ok_or("segment missing citer_n")?;
            sc.citer.sum_log =
                get_f64(&seg, "citer_sum_log").ok_or("segment missing citer_sum_log")?;
            sc.mem.n = get_u64(&seg, "mem_n").ok_or("segment missing mem_n")?;
            sc.mem.sum_log = get_f64(&seg, "mem_sum_log").ok_or("segment missing mem_sum_log")?;
            store
                .segments
                .insert(segment_key(&device, &stencil, dim), sc);
        }
        if let Some(rev) = get_str(&header, "revision") {
            let actual = store.revision();
            if rev != actual {
                return Err(format!(
                    "calibration store revision mismatch: header says {rev}, content hashes to {actual}"
                ));
            }
        }
        Ok(store)
    }

    /// Load a store from disk.
    pub fn load(path: &Path) -> io::Result<CalibrationStore> {
        let text = std::fs::read_to_string(path)?;
        CalibrationStore::from_jsonl(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Overall per-segment RMSE of an accuracy log's `rel_err` column,
/// keyed by [`segment_key`] — what `experiments calibrate --compare`
/// uses to check that calibrated serving actually tightened the error.
pub fn log_segment_rmse(path: &Path) -> io::Result<BTreeMap<String, (u64, f64)>> {
    let bytes = std::fs::read(path)?;
    let mut acc: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for row in obs::accuracy::rows(&bytes) {
        let e = acc
            .entry(segment_key(&row.device, &row.stencil, row.dim))
            .or_insert((0, 0.0));
        e.0 += 1;
        e.1 += row.rel_err * row.rel_err;
    }
    Ok(acc
        .into_iter()
        .map(|(k, (n, sq))| (k, (n, (sq / n.max(1) as f64).sqrt())))
        .collect())
}

fn parse_map(line: &str) -> Option<Vec<(String, Value)>> {
    match serde_json::from_str(line.trim()).ok()? {
        Value::Map(m) => Some(m),
        _ => None,
    }
}

fn get<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_str(map: &[(String, Value)], key: &str) -> Option<String> {
    match get(map, key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn get_u64(map: &[(String, Value)], key: &str) -> Option<u64> {
    match get(map, key) {
        Some(Value::UInt(u)) => Some(*u),
        Some(Value::Int(i)) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

fn get_f64(map: &[(String, Value)], key: &str) -> Option<f64> {
    match get(map, key) {
        Some(Value::F64(f)) => Some(*f),
        Some(Value::F32(f)) => Some(*f as f64),
        Some(Value::UInt(u)) => Some(*u as f64),
        Some(Value::Int(i)) => Some(*i as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::accuracy::Row;

    fn row(memory_bound: bool, predicted: f64, measured: f64) -> Row {
        Row {
            source: "advisor".into(),
            device: "GTX 980".into(),
            stencil: "Heat2D".into(),
            dim: 2,
            predicted_s: predicted,
            measured_s: measured,
            rel_err: (predicted - measured) / measured,
            raw_predicted_s: None,
            memory_bound: Some(memory_bound),
        }
    }

    #[test]
    fn factor_is_geometric_mean_of_ratios() {
        let mut fit = ParamFit::default();
        assert!(fit.push(2.0));
        assert!(fit.push(8.0));
        assert!((fit.factor() - 4.0).abs() < 1e-12, "{}", fit.factor());
        assert!(!fit.push(0.0));
        assert!(!fit.push(f64::NAN));
        assert_eq!(fit.n, 2);
    }

    #[test]
    fn winsorization_caps_wild_ratios() {
        let mut fit = ParamFit::default();
        fit.push(1e9);
        assert!((fit.factor() - RATIO_CLAMP).abs() < 1e-12);
    }

    #[test]
    fn gating_refuses_until_min_evidence() {
        let mut store = CalibrationStore::new(8);
        // Model predicts 1.0, reality is 3.0, compute-bound: Citer is 3×
        // too small.
        for _ in 0..7 {
            assert!(store.consume(&row(false, 1.0, 3.0)));
        }
        assert!(store.correction("GTX 980", "Heat2D", 2).is_none());
        assert_eq!(store.active_segments(), 0);
        store.consume(&row(false, 1.0, 3.0));
        let corr = store.correction("GTX 980", "Heat2D", 2).expect("gated in");
        assert!((corr.citer_scale - 3.0).abs() < 1e-9, "{corr:?}");
        assert_eq!(corr.mem_scale, 1.0, "mem fit has no evidence");
        assert_eq!(store.active_segments(), 1);
        // Other segments untouched.
        assert!(store.correction("GTX 980", "Heat2D", 3).is_none());
        assert!(store.correction("Tesla K20", "Heat2D", 2).is_none());
    }

    #[test]
    fn memory_bound_rows_fit_the_memory_factor() {
        let mut store = CalibrationStore::new(2);
        store.consume(&row(true, 2.0, 1.0));
        store.consume(&row(true, 2.0, 1.0));
        let corr = store.correction("GTX 980", "Heat2D", 2).unwrap();
        assert!((corr.mem_scale - 0.5).abs() < 1e-12);
        assert_eq!(corr.citer_scale, 1.0);
    }

    /// A well-formed memory-bound advisor row for `stencil`,
    /// newline-terminated.
    fn row_line(stencil: &str) -> Vec<u8> {
        format!(
            "{{\"kind\":\"accuracy\",\"ts_ms\":1,\"source\":\"advisor\",\
             \"device\":\"GTX 980\",\"stencil\":\"{stencil}\",\"dim\":2,\
             \"key\":\"k\",\"predicted_s\":2.0,\"measured_s\":1.0,\
             \"rel_err\":1.0,\"memory_bound\":true}}\n"
        )
        .into_bytes()
    }

    /// Good rows around a row cut inside a two-byte character: what an
    /// append torn inside a non-ASCII name leaves behind.
    fn log_with_torn_row() -> Vec<u8> {
        let mut torn = row_line("Wärme2D");
        let cut = torn.iter().position(|&b| b == 0xc3).unwrap() + 1;
        torn.truncate(cut);
        torn.push(b'\n');
        let log = [row_line("Heat2D"), torn, row_line("Wärme2D")].concat();
        assert!(std::str::from_utf8(&log).is_err(), "premise: invalid UTF-8");
        log
    }

    #[test]
    fn log_readers_skip_a_line_torn_inside_a_multibyte_name() {
        let path = std::env::temp_dir().join(format!("calib-utf8-{}.jsonl", std::process::id()));
        let rolled = obs::accuracy::rolled_path(&path);
        std::fs::write(&rolled, log_with_torn_row()).unwrap();
        std::fs::write(&path, log_with_torn_row()).unwrap();
        let mut store = CalibrationStore::new(1);
        let stats = store.consume_log(&path).expect("the live log reads");
        assert_eq!((stats.consumed, stats.rejected), (4, 0));
        let rmse = log_segment_rmse(&path).expect("the live log reads");
        let rows: u64 = rmse.values().map(|(n, _)| n).sum();
        assert_eq!(rows, 2);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rolled);
    }

    #[test]
    fn rows_without_attribution_are_rejected() {
        let mut store = CalibrationStore::new(1);
        let mut r = row(false, 1.0, 2.0);
        r.memory_bound = None;
        assert!(!store.consume(&r));
        assert!(store.is_empty());
    }

    #[test]
    fn calibrated_rows_fit_against_raw_prediction() {
        let mut store = CalibrationStore::new(1);
        let mut r = row(false, 3.0, 3.0); // served prediction already corrected
        r.raw_predicted_s = Some(1.0); // raw model was 3× low
        store.consume(&r);
        let corr = store.correction("GTX 980", "Heat2D", 2).unwrap();
        assert!(
            (corr.citer_scale - 3.0).abs() < 1e-9,
            "fit must target the raw model, got {corr:?}"
        );
    }

    #[test]
    fn frozen_store_refuses_evidence() {
        let mut store = CalibrationStore::new(1);
        store.consume(&row(false, 1.0, 2.0));
        let rev = store.revision();
        store.freeze();
        assert!(!store.consume(&row(false, 1.0, 9.0)));
        assert_eq!(
            store.revision(),
            rev,
            "freezing does not change corrections"
        );
    }

    #[test]
    fn save_load_round_trips_and_revision_is_stable() {
        let mut store = CalibrationStore::new(4);
        for i in 0..10 {
            store.consume(&row(i % 2 == 0, 1.0, 1.5 + 0.01 * i as f64));
        }
        let mut r3 = row(false, 2.0e-3, 1.7e-3);
        r3.device = "Tesla K20".into();
        r3.dim = 3;
        store.consume(&r3);
        let path = std::env::temp_dir().join(format!("calib-rt-{}.jsonl", std::process::id()));
        store.save(&path).unwrap();
        let loaded = CalibrationStore::load(&path).unwrap();
        assert_eq!(loaded, store);
        assert_eq!(loaded.revision(), store.revision());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_store_never_loads_as_a_different_store() {
        let mut store = CalibrationStore::new(2);
        for (device, stencil, dim) in [
            ("GTX 980", "Heat2D", 2),
            ("GTX 980", "Jacobi2D", 2),
            ("Titan X", "Heat3D", 3),
        ] {
            let mut r = row(dim == 3, 1.0e-3, 1.3e-3);
            r.device = device.into();
            r.stencil = stencil.into();
            r.dim = dim;
            store.consume(&r);
            store.consume(&r);
        }
        assert_eq!(store.len(), 3);
        let path = std::env::temp_dir().join(format!("calib-cut-{}.jsonl", std::process::id()));
        store.save(&path).unwrap();
        let whole = std::fs::read(&path).unwrap();
        assert_eq!(whole.last(), Some(&b'\n'));
        for cut in 0..whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            let loaded = CalibrationStore::load(&path);
            if cut == whole.len() - 1 {
                assert_eq!(loaded.expect("only the final newline is cut"), store);
            } else {
                let e = loaded.expect_err("a cut store must not load");
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "cut at {cut}: {e}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tampered_store_is_rejected() {
        let mut store = CalibrationStore::new(2);
        store.consume(&row(false, 1.0, 2.0));
        let mut text = store.to_jsonl();
        text = text.replace("\"citer_n\":1", "\"citer_n\":99");
        let err = CalibrationStore::from_jsonl(&text).unwrap_err();
        assert!(err.contains("revision mismatch"), "{err}");
    }

    #[test]
    fn merge_sums_evidence() {
        let mut a = CalibrationStore::new(4);
        let mut b = CalibrationStore::new(4);
        for _ in 0..2 {
            a.consume(&row(false, 1.0, 2.0));
            b.consume(&row(false, 1.0, 2.0));
        }
        assert!(a.correction("GTX 980", "Heat2D", 2).is_none());
        a.merge(&b).unwrap();
        let corr = a.correction("GTX 980", "Heat2D", 2).expect("4 pairs now");
        assert!((corr.citer_scale - 2.0).abs() < 1e-9);
        let mut frozen = CalibrationStore::new(4);
        frozen.freeze();
        assert!(a.merge(&frozen).is_err());
    }

    #[test]
    fn different_evidence_different_revision() {
        let mut a = CalibrationStore::new(8);
        let b = CalibrationStore::new(8);
        assert_ne!(CalibrationStore::new(4).revision(), b.revision());
        a.consume(&row(false, 1.0, 2.0));
        assert_ne!(a.revision(), b.revision());
    }
}
