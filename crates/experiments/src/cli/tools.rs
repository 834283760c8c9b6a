//! The offline tools: `calibrate` (fit model corrections from an
//! accuracy log), `bench-diff` (gate a benchmark report against its
//! reference) and `trace-check` (validate the driver's telemetry files).

use super::flags::{Matches, BAND, COMPARE, FREEZE, INSPECT, LOG, MERGE, MIN_EVIDENCE, OUT, TRACE};
use experiments::benchdiff;
use serde::Value;
use std::path::Path;

/// Run the `calibrate` subcommand; returns the process exit code.
pub fn calibrate(m: &Matches) -> Result<i32, String> {
    if let Some(path) = m.opt(&INSPECT) {
        let store = match calib::CalibrationStore::load(Path::new(&path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return Ok(1);
            }
        };
        println!(
            "calibration store {path}: {} segments ({} active), min_evidence {}, revision {}{}",
            store.len(),
            store.active_segments(),
            store.min_evidence(),
            store.revision(),
            if store.frozen() { ", frozen" } else { "" }
        );
        for (key, seg) in store.segments() {
            println!(
                "  {key:32}  citer: n={:3} factor={:.4}{}   mem: n={:3} factor={:.4}{}",
                seg.citer.n,
                seg.citer.factor(),
                if seg.citer.n >= store.min_evidence() {
                    ""
                } else {
                    " (gated)"
                },
                seg.mem.n,
                seg.mem.factor(),
                if seg.mem.n >= store.min_evidence() {
                    ""
                } else {
                    " (gated)"
                },
            );
        }
        return Ok(0);
    }
    if let [pre, post] = m.all(&COMPARE) {
        let load = |p: &str| {
            calib::log_segment_rmse(Path::new(p)).unwrap_or_else(|e| {
                eprintln!("error: {p}: {e}");
                std::process::exit(1);
            })
        };
        let (pre_rmse, post_rmse) = (load(pre), load(post));
        let mut shared = 0usize;
        let mut regressed = 0usize;
        for (key, (n_post, r_post)) in &post_rmse {
            let Some((n_pre, r_pre)) = pre_rmse.get(key) else {
                println!(
                    "  {key:32}  post RMSE {:6.1}% (n={n_post}) — no pre data",
                    100.0 * r_post
                );
                continue;
            };
            shared += 1;
            let improved = r_post <= r_pre;
            if !improved {
                regressed += 1;
            }
            println!(
                "  {key:32}  RMSE {:6.1}% (n={n_pre}) -> {:6.1}% (n={n_post})  {}",
                100.0 * r_pre,
                100.0 * r_post,
                if improved { "ok" } else { "REGRESSED" }
            );
        }
        if shared == 0 {
            eprintln!("compare FAILED: the two logs share no segment");
            return Ok(1);
        }
        if regressed > 0 {
            eprintln!("compare FAILED: {regressed}/{shared} shared segments regressed");
            return Ok(1);
        }
        println!("compare passed: all {shared} shared segments improved or held");
        return Ok(0);
    }
    let mut store = calib::CalibrationStore::new(m.get(&MIN_EVIDENCE)?);
    if let Some(path) = m.opt(&MERGE) {
        let prior = match calib::CalibrationStore::load(Path::new(&path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: --merge {path}: {e}");
                return Ok(1);
            }
        };
        if let Err(e) = store.merge(&prior) {
            eprintln!("error: --merge {path}: {e}");
            return Ok(1);
        }
    }
    let log = m.get(&LOG)?;
    let stats = match store.consume_log(Path::new(&log)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: --log {log}: {e}");
            return Ok(1);
        }
    };
    if m.on(&FREEZE) {
        store.freeze();
    }
    let out = m.get(&OUT)?;
    if let Err(e) = store.save(Path::new(&out)) {
        eprintln!("error: cannot write {out}: {e}");
        return Ok(1);
    }
    println!(
        "calibrated {} segments ({} active) from {} pairs ({} rejected) -> {}, revision {}{}",
        store.len(),
        store.active_segments(),
        stats.consumed,
        stats.rejected,
        out,
        store.revision(),
        if store.frozen() { ", frozen" } else { "" }
    );
    for (key, seg) in store.segments() {
        let gate = store.min_evidence();
        println!(
            "  {key:32}  citer x{:.4} (n={}{})   mem x{:.4} (n={}{})",
            seg.citer.factor(),
            seg.citer.n,
            if seg.citer.n >= gate { "" } else { ", gated" },
            seg.mem.factor(),
            seg.mem.n,
            if seg.mem.n >= gate { "" } else { ", gated" },
        );
    }
    Ok(0)
}

/// Run the `bench-diff` subcommand: exit 0 when no ratio metric fell
/// below `reference x (1 - band)` and no reference row disappeared, 1
/// otherwise. See [`experiments::benchdiff`] for what is compared and
/// why absolute seconds are not.
pub fn bench_diff(m: &Matches) -> Result<i32, String> {
    let band = m.get(&BAND)?;
    // The parser admits exactly the two declared positionals.
    let (reference, current) = (&m.positional[0], &m.positional[1]);
    let reference = benchdiff::load_rows(reference).map_err(|e| format!("bench-diff: {e}"))?;
    let current = benchdiff::load_rows(current).map_err(|e| format!("bench-diff: {e}"))?;
    let diff = benchdiff::diff_rows(&reference, &current, band);
    for r in &diff.rows {
        println!(
            "  {:12} {:16} {:15} ref={:8.3} cur={:8.3} ratio={:5.2} {}",
            r.benchmark,
            r.size,
            r.metric,
            r.reference,
            r.current,
            r.ratio,
            if r.regressed { "REGRESSED" } else { "ok" }
        );
    }
    for missing in &diff.missing {
        println!("  {missing}: MISSING from current report");
    }
    let n = diff.regressions();
    if n > 0 {
        eprintln!(
            "bench-diff: {n} regression(s) beyond the {:.0}% band",
            100.0 * band
        );
        return Ok(1);
    }
    println!(
        "bench-diff: ok ({} metrics within the {:.0}% band)",
        diff.rows.len(),
        100.0 * band
    );
    Ok(0)
}

/// Run the `trace-check` subcommand: exit 1 on the first violation.
pub fn trace_check(m: &Matches) -> Result<i32, String> {
    let (trace, log) = (m.opt(&TRACE), m.opt(&LOG));
    if trace.is_none() && log.is_none() {
        return Err("trace-check: nothing to check (use --trace PATH and/or --log PATH)".into());
    }
    let trace = trace.iter().map(|p| check_trace(p));
    for result in trace.chain(log.iter().map(|p| check_log(p))) {
        match result {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("trace-check: {msg}");
                return Ok(1);
            }
        }
    }
    Ok(0)
}

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::F32(x) => Some(*x as f64),
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    }
}

fn check_trace(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Value::Map(top) = v else {
        return Err(format!("{path}: top level is not a JSON object"));
    };
    let Some(Value::Seq(events)) = get(&top, "traceEvents") else {
        return Err(format!("{path}: missing traceEvents array"));
    };
    let mut complete = 0usize;
    for (i, e) in events.iter().enumerate() {
        let Value::Map(e) = e else {
            return Err(format!("{path}: traceEvents[{i}] is not an object"));
        };
        let Some(Value::Str(ph)) = get(e, "ph") else {
            return Err(format!("{path}: traceEvents[{i}] has no ph"));
        };
        for key in ["pid", "tid"] {
            if get(e, key).and_then(as_f64).is_none() {
                return Err(format!("{path}: traceEvents[{i}] has no numeric {key}"));
            }
        }
        if ph == "X" {
            for key in ["ts", "dur"] {
                match get(e, key).and_then(as_f64) {
                    Some(x) if x.is_finite() => {}
                    _ => {
                        return Err(format!(
                            "{path}: traceEvents[{i}] ('X') has no finite {key}"
                        ))
                    }
                }
            }
            complete += 1;
        }
    }
    if complete == 0 {
        return Err(format!("{path}: no complete ('X') events"));
    }
    Ok(format!(
        "{path}: ok ({} events, {complete} complete)",
        events.len()
    ))
}

fn check_log(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut counts = (0u64, 0u64); // (events, spans)
    let mut meta: Option<(u64, u64)> = None;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let v = serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let Value::Map(obj) = v else {
            return Err(format!("{path}:{}: line is not a JSON object", i + 1));
        };
        let Some(Value::Str(kind)) = get(&obj, "kind") else {
            return Err(format!("{path}:{}: missing kind", i + 1));
        };
        match kind.as_str() {
            "meta" => {
                if i != 0 {
                    return Err(format!("{path}:{}: meta line not first", i + 1));
                }
                let ev = get(&obj, "events").and_then(as_f64).unwrap_or(-1.0);
                let sp = get(&obj, "spans").and_then(as_f64).unwrap_or(-1.0);
                if ev < 0.0 || sp < 0.0 {
                    return Err(format!("{path}:1: meta line lacks events/spans totals"));
                }
                meta = Some((ev as u64, sp as u64));
            }
            "event" => counts.0 += 1,
            "span" => counts.1 += 1,
            "counter" | "histogram" | "gauge" => {}
            other => return Err(format!("{path}:{}: unknown kind '{other}'", i + 1)),
        }
        lines += 1;
    }
    let Some(totals) = meta else {
        return Err(format!("{path}: no meta line"));
    };
    if totals != counts {
        return Err(format!(
            "{path}: meta claims {totals:?} events/spans, body has {counts:?}"
        ));
    }
    Ok(format!(
        "{path}: ok ({lines} lines, {} events, {} spans)",
        counts.0, counts.1
    ))
}
