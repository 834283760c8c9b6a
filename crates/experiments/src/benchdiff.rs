//! Noise-aware comparison of two benchmark reports — the CI regression
//! gate behind `experiments bench-diff`.
//!
//! Absolute seconds (and absolute QPS) are useless across CI runners
//! (different silicon, different neighbors), so the diff compares only
//! *ratio* metrics that are stable properties of the code, not the
//! machine. Two report shapes are recognized by their top-level key:
//!
//! * `BENCH_exec.json` (`exec` array) — per-benchmark rows with
//!   `speedup` (fast path over the seed baseline), `simd_speedup`
//!   (what vectorization alone buys), and `roofline_ratio`
//!   (measured/predicted throughput);
//! * `BENCH_serve.json` (`serve` object) — one row with
//!   `store_hit_rate` (fraction of queries served by the ahead-of-time
//!   store), `answered_rate` (fraction answered rather than shed), and
//!   `warm_speedup` (served QPS over the cold model-only sweep).
//!
//! Rows are matched by `(benchmark, size)` and metrics by name; a
//! metric regresses when the current value falls below
//! `reference × (1 − band)`. The band is deliberately generous (CI
//! default 0.6): the gate exists to catch the 5–10× collapse of a fast
//! path falling off its kernel — or a store that stops hitting — not
//! 10% noise. A reference row with no current counterpart is itself a
//! regression — silently dropping a benchmark must not pass the gate.
//!
//! Reports are read structurally (the vendored `serde_json` parses to a
//! [`Value`] tree, not typed structs), so the gate only requires the
//! rows to carry their name keys and metrics — additions elsewhere in
//! the report never break old references.

use serde::Value;

/// Default tolerance band on the relative drop of a ratio metric.
pub const DEFAULT_BAND: f64 = 0.6;

/// The ratio metrics of a `BENCH_exec.json` row, in report order.
pub const METRICS: [&str; 3] = ["speedup", "simd_speedup", "roofline_ratio"];

/// The ratio metrics of a `BENCH_serve.json` report. All are
/// higher-is-better fractions/ratios, so the one-sided lower-bound gate
/// applies unchanged.
pub const SERVE_METRICS: [&str; 3] = ["store_hit_rate", "answered_rate", "warm_speedup"];

/// One report row reduced to its machine-stable ratio metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioRow {
    pub benchmark: String,
    pub size: String,
    /// `(metric name, value)` pairs in report order; a metric missing
    /// from the JSON is `NAN` (skipped as a reference, regressed as a
    /// current value).
    pub metrics: Vec<(&'static str, f64)>,
}

/// One compared metric of one matched row.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    pub benchmark: String,
    pub size: String,
    pub metric: &'static str,
    pub reference: f64,
    pub current: f64,
    /// `current / reference`.
    pub ratio: f64,
    pub regressed: bool,
}

/// The full comparison of two reports.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Per-metric comparisons over all matched rows.
    pub rows: Vec<MetricDiff>,
    /// `(benchmark, size)` keys present in the reference but absent from
    /// the current report — each counts as a regression.
    pub missing: Vec<String>,
    /// The band the comparison ran with.
    pub band: f64,
}

impl DiffReport {
    /// Number of regressed metrics plus missing rows.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count() + self.missing.len()
    }

    /// The gate verdict.
    pub fn passed(&self) -> bool {
        self.regressions() == 0
    }
}

fn field<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::F32(x) => Some(f64::from(*x)),
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    }
}

fn pick_metrics(row: &[(String, Value)], names: &[&'static str]) -> Vec<(&'static str, f64)> {
    names
        .iter()
        .map(|name| (*name, field(row, name).and_then(as_f64).unwrap_or(f64::NAN)))
        .collect()
}

/// Extract the ratio rows of a parsed report tree. `BENCH_exec.json`
/// (top-level `exec` array) yields one row per benchmark; a
/// `BENCH_serve.json` (top-level `serve` object) yields a single
/// `("serve", "default")` row over [`SERVE_METRICS`].
pub fn rows_from_value(report: &Value) -> Result<Vec<RatioRow>, String> {
    let Value::Map(top) = report else {
        return Err("top level is not a JSON object".into());
    };
    if let Some(serve) = field(top, "serve") {
        let Value::Map(serve) = serve else {
            return Err("'serve' is not an object".into());
        };
        return Ok(vec![RatioRow {
            benchmark: "serve".into(),
            size: "default".into(),
            metrics: pick_metrics(serve, &SERVE_METRICS),
        }]);
    }
    let Some(Value::Seq(exec)) = field(top, "exec") else {
        return Err("missing exec array (or serve object)".into());
    };
    let mut rows = Vec::with_capacity(exec.len());
    for (i, row) in exec.iter().enumerate() {
        let Value::Map(row) = row else {
            return Err(format!("exec[{i}] is not an object"));
        };
        let get_str = |key: &str| match field(row, key) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("exec[{i}] has no string '{key}'")),
        };
        rows.push(RatioRow {
            benchmark: get_str("benchmark")?,
            size: get_str("size")?,
            metrics: pick_metrics(row, &METRICS),
        });
    }
    Ok(rows)
}

/// Read, parse, and reduce a benchmark report.
pub fn load_rows(path: &str) -> Result<Vec<RatioRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    rows_from_value(&value).map_err(|e| format!("{path}: {e}"))
}

/// Compare `current` against `reference` with the given relative `band`.
pub fn diff_rows(reference: &[RatioRow], current: &[RatioRow], band: f64) -> DiffReport {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for r in reference {
        let Some(c) = current
            .iter()
            .find(|c| c.benchmark == r.benchmark && c.size == r.size)
        else {
            missing.push(format!("{} {}", r.benchmark, r.size));
            continue;
        };
        for (name, rv) in &r.metrics {
            // A reference metric that is not a usable baseline (zero,
            // negative, NaN) cannot regress; a current metric that is
            // missing or not finite always does.
            if !(rv.is_finite() && *rv > 0.0) {
                continue;
            }
            let cv = c
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            let ratio = cv / rv;
            rows.push(MetricDiff {
                benchmark: r.benchmark.clone(),
                size: r.size.clone(),
                metric: name,
                reference: *rv,
                current: cv,
                ratio,
                regressed: !(ratio.is_finite() && ratio >= 1.0 - band),
            });
        }
    }
    DiffReport {
        rows,
        missing,
        band,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(benchmark: &str, speedup: f64, simd: f64, roofline: f64) -> RatioRow {
        RatioRow {
            benchmark: benchmark.into(),
            size: "64x64 T=8".into(),
            metrics: METRICS
                .iter()
                .zip([speedup, simd, roofline])
                .map(|(n, v)| (*n, v))
                .collect(),
        }
    }

    #[test]
    fn identical_rows_pass() {
        let a = vec![row("Heat2D", 3.0, 1.5, 0.4), row("Jacobi2D", 2.5, 1.4, 0.5)];
        let d = diff_rows(&a, &a.clone(), 0.2);
        assert!(d.passed(), "{d:?}");
        assert_eq!(d.rows.len(), 6);
        assert!(d.missing.is_empty());
    }

    #[test]
    fn synthetic_regression_is_detected() {
        let reference = vec![row("Heat2D", 3.0, 1.5, 0.4)];
        // Fast path collapsed: speedup 3.0 → 1.0 (a 67% drop).
        let current = vec![row("Heat2D", 1.0, 1.5, 0.4)];
        let d = diff_rows(&reference, &current, 0.5);
        assert_eq!(d.regressions(), 1, "{d:?}");
        let bad = d.rows.iter().find(|r| r.regressed).unwrap();
        assert_eq!(bad.metric, "speedup");
        assert!((bad.ratio - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn drop_inside_the_band_passes() {
        let reference = vec![row("Heat2D", 3.0, 1.5, 0.4)];
        let current = vec![row("Heat2D", 2.0, 1.4, 0.35)]; // worst drop 33%
        assert!(diff_rows(&reference, &current, 0.5).passed());
    }

    #[test]
    fn missing_row_is_a_regression() {
        let reference = vec![row("Heat2D", 3.0, 1.5, 0.4), row("Jacobi2D", 2.5, 1.4, 0.5)];
        let current = vec![row("Heat2D", 3.0, 1.5, 0.4)];
        let d = diff_rows(&reference, &current, 0.5);
        assert_eq!(d.regressions(), 1);
        assert_eq!(d.missing, vec!["Jacobi2D 64x64 T=8".to_string()]);
    }

    #[test]
    fn improvements_and_nonpositive_references_never_regress() {
        let reference = vec![row("Heat2D", 3.0, f64::NAN, 0.4)]; // NaN: skipped
        let current = vec![row("Heat2D", 9.0, 2.0, 0.9)];
        let d = diff_rows(&reference, &current, 0.1);
        assert!(d.passed(), "{d:?}");
        assert_eq!(d.rows.len(), 2, "NaN reference metric skipped");
    }

    #[test]
    fn nonfinite_current_metric_regresses() {
        let reference = vec![row("Heat2D", 3.0, 1.5, 0.4)];
        let current = vec![row("Heat2D", 3.0, 1.5, f64::NAN)];
        assert_eq!(diff_rows(&reference, &current, 0.9).regressions(), 1);
    }

    #[test]
    fn rows_parse_from_a_report_tree() {
        let text = r#"{"scale":"reduced","exec":[
            {"benchmark":"Heat2D","size":"64x64 T=8","speedup":3.25,
             "simd_speedup":1.5,"roofline_ratio":0.41,"extra_field":true}
        ],"roofline":{"ratio_band":[0.12,1.1]}}"#;
        let rows = rows_from_value(&serde_json::from_str(text).unwrap()).unwrap();
        assert_eq!(
            rows,
            vec![RatioRow {
                benchmark: "Heat2D".into(),
                size: "64x64 T=8".into(),
                metrics: vec![
                    ("speedup", 3.25),
                    ("simd_speedup", 1.5),
                    ("roofline_ratio", 0.41)
                ],
            }]
        );
        assert!(rows_from_value(&serde_json::from_str("[1,2]").unwrap()).is_err());
    }

    #[test]
    fn serve_reports_reduce_to_one_row_and_gate_on_their_own_metrics() {
        let reference = r#"{"manifest":{"git_rev":"abc"},"serve":{
            "qps":51234.0,"store_hit_rate":0.96,"answered_rate":0.99,
            "warm_speedup":11.5,"shed_rate":0.01}}"#;
        let rows = rows_from_value(&serde_json::from_str(reference).unwrap()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].benchmark, "serve");
        assert_eq!(
            rows[0].metrics,
            vec![
                ("store_hit_rate", 0.96),
                ("answered_rate", 0.99),
                ("warm_speedup", 11.5)
            ]
        );
        // A store that stops hitting regresses even inside a generous band.
        let current = r#"{"serve":{"store_hit_rate":0.02,"answered_rate":0.99,
            "warm_speedup":11.0}}"#;
        let cur = rows_from_value(&serde_json::from_str(current).unwrap()).unwrap();
        let d = diff_rows(&rows, &cur, 0.5);
        assert_eq!(d.regressions(), 1, "{d:?}");
        assert_eq!(
            d.rows.iter().find(|r| r.regressed).unwrap().metric,
            "store_hit_rate"
        );
    }
}
