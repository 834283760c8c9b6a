//! End-to-end telemetry integration: the counters and histograms the obs
//! layer collects must agree *exactly* with the numbers the instrumented
//! APIs return (the `SimReport`, `ExecStats`, and `StrategyOutcome`
//! values the driver prints), and both exporters must produce parseable
//! artifacts.

use experiments::context::{ExperimentScale, Lab};
use gpu_sim::{simulate, SimWorkload};
use hhc_tiling::{run_tiled_with, ExecOptions, LaunchConfig, TileSizes, TilingPlan};
use serde::Value;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};
use stencil_core::{init, ProblemSize, StencilDescriptor};
use tile_opt::strategy::{study, DataPoint, Strategy, StrategyContext};
use tile_opt::SpaceConfig;

/// The obs recorder is process-global; tests that install one serialize
/// on this lock (tests in one integration binary share the process).
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Install a fresh debug-level recorder, run `f`, uninstall, snapshot.
fn record<T>(f: impl FnOnce() -> T) -> (T, obs::Snapshot) {
    let rec = Arc::new(obs::MemoryRecorder::new(obs::Level::Debug));
    obs::install(rec.clone());
    let out = f();
    obs::uninstall();
    (out, rec.snapshot())
}

#[test]
fn sim_counters_match_simreport() {
    let _g = obs_lock();
    let device = gpu_sim::DeviceConfig::gtx980();
    let spec = StencilDescriptor::jacobi2d().spec();
    let size = ProblemSize::new_2d(512, 512, 128);
    let plan = TilingPlan::build(
        &spec,
        &size,
        TileSizes::new_2d(8, 32, 128),
        LaunchConfig::new_2d(4, 32),
    )
    .expect("plan builds");
    let wl = SimWorkload::from_plan(&plan);
    let (report, snap) = record(|| simulate(&device, &wl).expect("simulates"));

    assert_eq!(snap.counter("sim.runs"), 1);
    assert_eq!(
        snap.counter("sim.kernel_launches"),
        report.kernel_launches as u64
    );
    let total = snap.histogram("sim.total_time_s").expect("total histogram");
    assert_eq!(total.count, 1);
    assert!(
        (total.sum - report.total_time).abs() <= 1e-12 * report.total_time,
        "histogram sum {} vs report {}",
        total.sum,
        report.total_time
    );
    let mem = snap
        .histogram("sim.pipe_mem_busy_s")
        .expect("mem histogram");
    assert!((mem.sum - report.mem_busy).abs() <= 1e-12 * report.mem_busy.max(1.0));
    let comp = snap
        .histogram("sim.pipe_comp_busy_s")
        .expect("comp histogram");
    assert!((comp.sum - report.comp_busy).abs() <= 1e-12 * report.comp_busy.max(1.0));
    // Per-kernel debug events: one per launch, blocks summing to the
    // blocks counter.
    let kernel_events: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "sim.kernel")
        .collect();
    assert_eq!(kernel_events.len(), report.kernel_launches);
    let blocks: u64 = kernel_events
        .iter()
        .map(|e| {
            e.fields
                .iter()
                .find_map(|(k, v)| match (k.as_str(), v) {
                    ("blocks", obs::FieldValue::U64(b)) => Some(*b),
                    _ => None,
                })
                .expect("blocks field")
        })
        .sum();
    assert_eq!(snap.counter("sim.blocks"), blocks);
    // SM utilization samples are fractions in (0, 1].
    let util = snap.histogram("sim.sm_utilization").expect("utilization");
    assert!(util.count > 0);
    assert!(util.min >= 0.0 && util.max <= 1.0 + 1e-12, "{util:?}");
}

#[test]
fn exec_counters_match_execstats() {
    let _g = obs_lock();
    let spec = StencilDescriptor::jacobi2d().spec();
    let size = ProblemSize::new_2d(256, 256, 32);
    let grid = init::random(size.space_extents(), 0x42);
    let ((_, stats), snap) = record(|| {
        run_tiled_with(
            &spec,
            &size,
            TileSizes::new_2d(8, 32, 128),
            &grid,
            ExecOptions::FAST,
        )
        .expect("executes")
    });

    assert_eq!(snap.counter("exec.runs"), 1);
    assert_eq!(snap.counter("exec.kernel_points"), stats.kernel_points);
    assert_eq!(snap.counter("exec.generic_points"), stats.generic_points);
    assert_eq!(snap.counter("exec.kernel_rows"), stats.kernel_rows);
    assert_eq!(snap.counter("exec.generic_rows"), stats.generic_rows);
    assert_eq!(
        snap.counter("exec.plane_copy_bytes"),
        stats.plane_copy_bytes
    );
    let occ = snap.histogram("exec.window_occupancy").expect("occupancy");
    assert_eq!(occ.count, 1);
    let expect = stats.resident_planes as f64 / stats.logical_planes as f64;
    assert!((occ.sum - expect).abs() < 1e-12, "{} vs {expect}", occ.sum);
}

#[test]
fn study_counters_match_outcomes() {
    let _g = obs_lock();
    let lab = Lab::new(ExperimentScale::Smoke);
    let device = lab.devices[0].clone();
    let stencil = StencilDescriptor::jacobi2d();
    let size = lab.scale.sizes_2d()[0];
    let params = lab.model_params(&device, &stencil);
    let space = SpaceConfig::default();
    let workload = gpu_sim::Workload::new(device.clone(), stencil, size)
        .expect("benchmark and size dimensionalities agree");
    let (st, snap) = record(|| {
        let ctx = StrategyContext::new(&workload, &params, &space);
        study(&ctx, false)
    });

    // The eval-cache accounting must balance.
    assert_eq!(
        snap.counter("opt.eval_lookups"),
        snap.counter("opt.eval_cache_hits") + snap.counter("opt.eval_simulated")
    );
    // Replay the study's evaluate_points calls against a model of the
    // cache: hits are points seen by an earlier call, every other point
    // is simulated, and each call builds one plan per distinct tile
    // among its misses.
    let chosen = |s: Strategy| {
        st.outcomes
            .iter()
            .find(|o| o.strategy == s)
            .map(|o| o.chosen.point)
    };
    let calls: Vec<Vec<DataPoint>> = vec![
        chosen(Strategy::HhcDefault).into_iter().collect(),
        st.baseline.iter().map(|e| e.point).collect(),
        chosen(Strategy::TalgMin).into_iter().collect(),
        st.within.iter().map(|e| e.point).collect(),
    ];
    let mut seen = HashSet::new();
    let (mut lookups, mut simulated, mut plans) = (0, 0, 0);
    for call in &calls {
        let misses: Vec<&DataPoint> = call.iter().filter(|p| !seen.contains(*p)).collect();
        lookups += call.len() as u64;
        simulated += misses.len() as u64;
        plans += misses.iter().map(|p| p.tiles).collect::<HashSet<_>>().len() as u64;
        seen.extend(call.iter().copied());
    }
    assert_eq!(snap.counter("opt.eval_lookups"), lookups);
    assert_eq!(snap.counter("opt.eval_simulated"), simulated);
    assert_eq!(snap.counter("opt.eval_plans"), plans);
    // The baseline's ten thread counts per tile share one plan.
    assert!(
        plans * 5 < simulated,
        "{plans} plans for {simulated} points"
    );
    // The space counters must balance too.
    assert_eq!(
        snap.counter("opt.space_enumerated"),
        snap.counter("opt.space_feasible") + snap.counter("opt.space_pruned")
    );
    // One Info outcome event per strategy outcome, fields matching.
    let outcome_events: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "opt.outcome")
        .collect();
    assert_eq!(outcome_events.len(), st.outcomes.len());
    for (event, outcome) in outcome_events.iter().zip(&st.outcomes) {
        let field = |key: &str| {
            event
                .fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing field {key}"))
        };
        assert_eq!(
            field("strategy"),
            obs::FieldValue::Str(outcome.strategy.name().to_owned())
        );
        assert_eq!(
            field("measured_count"),
            obs::FieldValue::U64(outcome.measured_count as u64)
        );
        assert_eq!(
            field("cache_hits"),
            obs::FieldValue::U64(outcome.cache_hits as u64)
        );
    }
    // Per-strategy wall-time spans and histograms exist.
    assert!(snap.spans.iter().any(|s| s.name == "opt.study"));
    assert!(snap.spans.iter().any(|s| s.name == "opt.strategy.within10"));
    assert!(snap.histogram("opt.wall_s.within10").is_some());
    // Every simulator run under a study is an evaluation-cache miss
    // (all strategies funnel through evaluate_points); some misses never
    // reach the simulator counters because the configuration cannot
    // launch, so `<=` rather than `==`.
    assert!(snap.counter("sim.runs") > 0);
    assert!(snap.counter("sim.runs") <= snap.counter("opt.eval_simulated"));
}

#[test]
fn exporters_round_trip_through_the_json_parser() {
    let _g = obs_lock();
    let (_, snap) = record(|| {
        let _span = obs::span("phase.test", "driver");
        obs::counter("demo.count", 3);
        obs::histogram("demo.hist", 0.5);
        obs::event(
            obs::Level::Info,
            "demo.note",
            &[("text", "quote \" and \\ backslash".into())],
        );
    });

    // JSONL: every line parses as an object with a kind.
    let mut buf = Vec::new();
    obs::write_jsonl_snapshot(&snap, obs::Level::Debug, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.lines().count() >= 4, "{text}");
    for line in text.lines() {
        let Value::Map(obj) = serde_json::from_str(line).expect("line parses") else {
            panic!("line is not an object: {line}");
        };
        assert!(obj.iter().any(|(k, _)| k == "kind"), "{line}");
    }

    // Chrome trace: spans render to parseable object-form JSON.
    let mut trace = obs::chrome::ChromeTrace::new();
    trace.name_process(0, "driver");
    trace.add_spans(0, &snap.spans);
    assert!(!trace.is_empty());
    let Value::Map(top) = serde_json::from_str(&trace.to_json()).expect("trace parses") else {
        panic!("trace is not an object");
    };
    let Some(Value::Seq(events)) = top.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v)
    else {
        panic!("missing traceEvents");
    };
    assert!(!events.is_empty());
}
