//! The benchmark's definition: its workloads, its end-to-end metrics
//! with their regression bounds, and its per-layer ledger. `BENCHMARK.json`
//! at the repository root is this table rendered by [`benchmark_json`];
//! a test keeps the two identical.

use serde::Value;

/// The command the benchmark is run with, from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "hhc-benchmark",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// One named workload.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "select",
        why: "Paper 6.1 selection: validated advise runs the within-10% set on the executor; \
              memory-bound, compute-bound, radius-2 and zoo stencils, no server",
    },
    WorkloadSpec {
        name: "reproduce",
        why: "Figure-6 strategy studies, 2 devices x 6 stencils x 2 sizes: gpu-sim and plan \
              building carry the time, executor and server idle",
    },
    WorkloadSpec {
        name: "serve-lookup",
        why: "Open loop, 5k/s zipf store hits on one connection (a rate ladder when traced): \
              parse, coalescing window, lookup and serialize only; no model",
    },
    WorkloadSpec {
        name: "serve-mixed",
        why: "Closed loop, 2 connections x 32 in flight: 90% store hits, 10% off-store keys \
              that run the model and churn the memory cache",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Whether `new` is an improvement over `old`.
    pub fn improves(self, new: f64, old: f64) -> bool {
        match self {
            Better::Higher => new > old,
            Better::Lower => new < old,
        }
    }
}

/// One end-to-end metric. `bound` is the share of the parent's median by
/// which the metric may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median of the run's set-ups: microbench prewarm, store precompute, server start",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "operations completed per measured second (queries, studies or requests)",
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median latency of a request (serve), or of a round of the fixed work set",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
        meaning: "peak resident set of the benchmark process (VmHWM)",
    },
];

/// One per-layer metric of the traced run, with the end-to-end metric
/// and workload it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const MODEL: &str = "ops_per_s@serve-mixed (a ~0 control on select and reproduce)";
const EXEC: &str = "p50_ms, ops_per_s@select";
const SIM: &str = "ops_per_s, p50_ms@reproduce";
const LOOKUP: &str = "p50_ms@serve-lookup, ops_per_s@serve-mixed";

pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "microbench.busy_ms",
        "ms",
        Lower,
        "setup_s@all, ops_per_s@serve-mixed",
    ),
    layer("tile_opt.space_busy_ms", "ms/op", Lower, MODEL),
    layer("tile_opt.space_feasible_frac", "frac", Higher, MODEL),
    layer("time_model.sweep_busy_ms", "ms/op", Lower, MODEL),
    layer("time_model.predictions", "count/op", Lower, MODEL),
    layer("tile_opt.within_points", "count/op", Lower, EXEC),
    layer("hhc_tiling.exec_busy_ms", "ms/op", Lower, EXEC),
    layer("hhc_tiling.exec_points", "count/op", Lower, EXEC),
    layer("hhc_tiling.exec_pps", "1/s", Higher, EXEC),
    layer("hhc_tiling.exec_computed_gb", "GB/op", Lower, EXEC),
    layer("hhc_tiling.kernel_point_frac", "frac", Higher, EXEC),
    layer("hhc_tiling.simd_row_frac", "frac", Higher, EXEC),
    layer("hhc_tiling.scratch_reuse_frac", "frac", Higher, EXEC),
    layer("hhc_tiling.batch_dispatches", "count/op", Lower, EXEC),
    layer("hhc_tiling.seq_fallback_frac", "frac", Lower, EXEC),
    layer("select.Jacobi2D.exec_ms", "ms", Lower, EXEC),
    layer("select.Heat3D.exec_ms", "ms", Lower, EXEC),
    layer("select.Lap4_2D.exec_ms", "ms", Lower, EXEC),
    layer("select.Heat2D.exec_ms", "ms", Lower, EXEC),
    layer("select.Advect3D.exec_ms", "ms", Lower, EXEC),
    layer("select.Jacobi2D.roofline_frac", "frac", Higher, EXEC),
    layer("select.Heat3D.roofline_frac", "frac", Higher, EXEC),
    layer("select.Heat2D.roofline_frac", "frac", Higher, EXEC),
    layer("select.Advect3D.roofline_frac", "frac", Higher, EXEC),
    layer("roofline.stream_gbs", "GB/s", Higher, EXEC),
    layer("roofline.compute_pps.Jacobi2D", "1/s", Higher, EXEC),
    layer("roofline.compute_pps.Heat3D", "1/s", Higher, EXEC),
    layer("roofline.compute_pps.Heat2D", "1/s", Higher, EXEC),
    layer("roofline.compute_pps.Advect3D", "1/s", Higher, EXEC),
    layer("tile_opt.eval_busy_ms", "ms/op", Lower, SIM),
    layer("hhc_tiling.plan_busy_ms", "ms/op", Lower, SIM),
    layer("gpu_sim.lower_busy_ms", "ms/op", Lower, SIM),
    layer("gpu_sim.simulate_busy_ms", "ms/op", Lower, SIM),
    layer("gpu_sim.runs", "count/op", Lower, SIM),
    layer("gpu_sim.blocks", "count/op", Lower, SIM),
    layer("gpu_sim.us_per_run", "us", Lower, SIM),
    layer("gpu_sim.sched_steady_frac", "frac", Higher, SIM),
    layer("tile_opt.strategy_busy_ms", "ms/op", Lower, SIM),
    layer("tile_opt.eval_cache_hit_frac", "frac", Higher, SIM),
    layer("advisor.parse_us", "us", Lower, LOOKUP),
    layer("advisor.key_us", "us", Lower, LOOKUP),
    layer("advisor.lookup_us", "us", Lower, LOOKUP),
    layer("advisor.serialize_us", "us", Lower, LOOKUP),
    layer(
        "advisor.wait_p50_ms",
        "ms",
        Lower,
        "p50_ms@serve-lookup, p50_ms@serve-mixed",
    ),
    layer(
        "advisor.wait_p99_ms",
        "ms",
        Lower,
        "p50_ms@serve-lookup, ops_per_s@serve-mixed",
    ),
    layer(
        "advisor.window_ms",
        "ms",
        Lower,
        "p50_ms@serve-lookup, p50_ms@serve-mixed",
    ),
    layer(
        "loadgen.transport_ms",
        "ms",
        Lower,
        "validity: p50_ms@serve-lookup, p50_ms@serve-mixed",
    ),
    layer(
        "advisor.model_us",
        "us",
        Lower,
        "ops_per_s, p50_ms@serve-mixed",
    ),
    layer(
        "advisor.model_evals",
        "count/op",
        Lower,
        "ops_per_s, p50_ms@serve-mixed",
    ),
    layer(
        "advisor.mem_hit_frac",
        "frac",
        Higher,
        "ops_per_s@serve-mixed",
    ),
    layer(
        "advisor.store_hit_frac",
        "frac",
        Higher,
        "p50_ms@serve-lookup, ops_per_s@serve-mixed",
    ),
    layer(
        "advisor.coalesced_frac",
        "frac",
        Higher,
        "r20000.p99_ms, max_rate_qps@serve-lookup",
    ),
    layer("r2500.p50_ms", "ms", Lower, "p50_ms@serve-lookup"),
    layer("r2500.p99_ms", "ms", Lower, "p50_ms@serve-lookup"),
    layer("r20000.p50_ms", "ms", Lower, "p50_ms@serve-lookup"),
    layer("r20000.p99_ms", "ms", Lower, "p50_ms@serve-lookup"),
    layer("max_rate_qps", "1/s", Higher, "ops_per_s@serve-mixed"),
    layer(
        "loadgen.late_p99_ms",
        "ms",
        Lower,
        "validity: p50_ms@serve-lookup",
    ),
    layer(
        "coverage_frac",
        "frac",
        Higher,
        "validity of the ledger on every workload",
    ),
    layer(
        "obs.trace_overhead_frac",
        "frac",
        Lower,
        "validity of the ledger on every workload",
    ),
];

/// Look up a workload by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `BENCHMARK.json`, as a JSON value.
pub fn benchmark_json() -> Value {
    map(vec![
        (
            "command",
            Value::Seq(COMMAND.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Seq(PATHS.iter().map(|p| s(p)).collect())),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| map(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        map(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        map(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The human-readable `--list` table.
pub fn list_text() -> String {
    let mut out = String::from("WORKLOADS\n");
    for w in WORKLOADS {
        out.push_str(&format!("  {:<13} {}\n", w.name, w.why));
    }
    out.push_str("\nEND-TO-END (untraced runs; bound = worsening allowed before a regression)\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "  {:<12} {:<5} {:<6} bound {:>4.0}%  {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.meaning
        ));
    }
    out.push_str("\nPER-LAYER (traced runs; metric -> what it should move)\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<32} {:<8} {:<6} -> {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_are_within_the_format() {
        let mut seen = std::collections::HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert_eq!(setup.unit, "s");
        assert_eq!(setup.better, Better::Lower);
    }
}
