//! `hhc-benchmark compare PARENT_DIR CHANGE_DIR`: the verdict on a
//! change, from two directories of run records.
//!
//! For every workload x metric it prints each side's median and
//! quartiles and how many run pairs the change won (runs are paired in
//! the order they were recorded; ties count for neither side). A metric
//! counts as *improved* only when the change wins at least 9 of 10 pairs
//! and the medians differ by more than the parent's interquartile range.
//! An end-to-end metric whose spread exceeds its bound is *unresolved*
//! unless every change run beats every parent run; otherwise it
//! *regressed* when the change's median is worse by more than the bound.

use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Metric values of one side, by `(traced, metric)`, in record order.
type Side = BTreeMap<(bool, String), Vec<f64>>;

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    }
}

/// Read `<dir>/<workload>.jsonl`. A missing file is an empty side.
fn load(dir: &Path, workload: &str) -> Result<Side, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(Side::new());
    };
    let mut side = Side::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let Value::Map(fields) = value else {
            return Err(bad("not a JSON object"));
        };
        let get = |k: &str| fields.iter().find(|(f, _)| f == k).map(|(_, v)| v);
        let traced = matches!(get("trace"), Some(Value::Bool(true)));
        if matches!(get("correct"), Some(Value::Bool(false))) {
            eprintln!(
                "warning: {} records a run whose output checks failed",
                bad("run")
            );
        }
        let Some(Value::Map(metrics)) = get("metrics") else {
            return Err(bad("no metrics"));
        };
        for (name, v) in metrics {
            let x = number(v).ok_or_else(|| bad(&format!("metric {name} is not a number")))?;
            side.entry((traced, name.clone())).or_default().push(x);
        }
    }
    Ok(side)
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    pub wins: usize,
    pub pairs: usize,
    pub verdict: &'static str,
}

/// Compare two samples of one metric.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Row {
    let (pm, cm) = (median(parent), median(change));
    let ((p1, p3), (c1, c3)) = (quartiles(parent), quartiles(change));
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.improves(**c, **p))
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.improves(**p, **c))
        .count();
    let gap_beyond_spread = (cm - pm).abs() > p3 - p1;
    let spread = ((p3 - p1) / pm.abs()).max((c3 - c1) / cm.abs());
    let worst_change = match better {
        Better::Higher => change.iter().copied().fold(f64::INFINITY, f64::min),
        Better::Lower => change.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    };
    let best_parent = match better {
        Better::Higher => parent.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        Better::Lower => parent.iter().copied().fold(f64::INFINITY, f64::min),
    };
    let all_better = pairs > 0 && better.improves(worst_change, best_parent);
    let worsening = match better {
        Better::Higher => (pm - cm) / pm.abs(),
        Better::Lower => (cm - pm) / pm.abs(),
    };
    let verdict = if pairs == 0 {
        "no data"
    } else if wins * 10 >= pairs * 9 && gap_beyond_spread && better.improves(cm, pm) {
        "improved"
    } else if let Some(bound) = bound {
        if spread > bound && !all_better {
            "unresolved"
        } else if worsening > bound {
            "regressed"
        } else {
            "same"
        }
    } else if losses * 10 >= pairs * 9 && gap_beyond_spread {
        "worse"
    } else {
        "same"
    };
    Row {
        parent: (pm, p1, p3),
        change: (cm, c1, c3),
        wins,
        pairs,
        verdict,
    }
}

/// Print the comparison table; returns whether any end-to-end metric
/// regressed.
pub fn compare(parent_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    println!(
        "{:<13} {:<32} {:<8} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for w in WORKLOADS {
        let (parent, change) = (load(parent_dir, w.name)?, load(change_dir, w.name)?);
        let e2e = END_TO_END
            .iter()
            .map(|m| (false, m.name, m.unit, m.better, Some(m.bound)));
        let layers = PER_LAYER
            .iter()
            .map(|m| (true, m.name, m.unit, m.better, None));
        for (traced, name, unit, better, bound) in e2e.chain(layers) {
            let key = (traced, name.to_string());
            let (Some(p), Some(c)) = (parent.get(&key), change.get(&key)) else {
                continue;
            };
            let row = judge(p, c, better, bound);
            regressed |= row.verdict == "regressed";
            let fmt = |(m, q1, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}, {q3:.4}]");
            println!(
                "{:<13} {:<32} {:<8} {:>30} {:>30} {:>6}  {}",
                w.name,
                name,
                unit,
                fmt(row.parent),
                fmt(row.change),
                format!("{}/{}", row.wins, row.pairs),
                row.verdict
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_win_and_spread_rules() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        // Faster on every pair, by far more than the parent's spread.
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            judge(&parent, &faster, Better::Lower, Some(0.1)).verdict,
            "improved"
        );
        // Slower by 20% against a 10% bound.
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&parent, &slower, Better::Lower, Some(0.1)).verdict,
            "regressed"
        );
        // Within the bound.
        let close: Vec<f64> = parent.iter().map(|x| x * 1.03).collect();
        assert_eq!(
            judge(&parent, &close, Better::Lower, Some(0.1)).verdict,
            "same"
        );
        // Spread wider than the bound: unresolved.
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, Some(0.1)).verdict,
            "unresolved"
        );
        // Higher-is-better metrics invert the comparison.
        assert_eq!(
            judge(&parent, &slower, Better::Higher, Some(0.1)).verdict,
            "improved"
        );
        assert_eq!(
            judge(&parent, &faster, Better::Higher, None).verdict,
            "worse"
        );
    }
}
