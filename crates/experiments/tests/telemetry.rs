//! End-to-end telemetry integration: the counters and histograms the obs
//! layer collects must agree *exactly* with the numbers the instrumented
//! APIs return (the `SimReport`, `ExecStats`, and `StrategyOutcome`
//! values the driver prints), and both exporters must produce parseable
//! artifacts.

use experiments::context::{ExperimentScale, Lab};
use gpu_sim::cost::{self, BlockSegments, Pipe};
use gpu_sim::{occupancy, simulate, simulate_launches, SimWorkload};
use hhc_tiling::{
    run_tiled_parallel_into, run_tiled_with, ExecMode, ExecStats, LaunchConfig, PlanGeometry,
    ScratchPool, TileSizes, TilingPlan,
};
use serde::Value;
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};
use stencil_core::{init, Grid, ProblemSize, StencilDescriptor, StencilDim};
use tile_opt::strategy::{
    baseline_points, baseline_tiles, evaluate_points, study, DataPoint, Strategy, StrategyContext,
};
use tile_opt::SpaceConfig;

/// The obs recorder is process-global; tests that install one serialize
/// on this lock (tests in one integration binary share the process).
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Install a fresh debug-level recorder, run `f`, uninstall, snapshot.
fn record<T>(f: impl FnOnce() -> T) -> (T, obs::Snapshot) {
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Debug));
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
    // The wave scheduler runs once per distinct wave composition of each
    // distinct kernel: for this plan (k = 2) those waves place 150
    // segments between them.
    assert_eq!(snap.counter("sim.wave_segments"), 150);
    // The steady-state schedule builds and folds one signature per group
    // of SMs that receive the same blocks: per distinct kernel, the
    // maximal runs of consecutive SMs whose dealt class sequences are
    // equal (SMs without blocks build none).
    let mut distinct = HashSet::new();
    let (mut groups, mut busy_sms) = (0u64, 0u64);
    for kernel in wl
        .kernels
        .iter()
        .filter(|k| distinct.insert(Arc::as_ptr(&k.classes)))
    {
        let mut per_sm: Vec<Vec<usize>> = vec![Vec::new(); device.n_sm];
        let dispatch = kernel
            .classes
            .iter()
            .enumerate()
            .flat_map(|(c, class)| std::iter::repeat_n(c, class.count as usize));
        for (pos, c) in dispatch.enumerate() {
            per_sm[pos % device.n_sm].push(c);
        }
        let dealt: Vec<&Vec<usize>> = per_sm.iter().filter(|sm| !sm.is_empty()).collect();
        busy_sms += dealt.len() as u64;
        groups += dealt.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        groups += u64::from(!dealt.is_empty());
    }
    assert_eq!(snap.counter("sim.sm_groups"), groups);
    // Every distinct kernel takes the one steady-state schedule.
    assert_eq!(snap.counter("sim.sched_steady"), distinct.len() as u64);
    // For this plan, 10 signatures serve the 31 SMs that receive blocks.
    assert_eq!((groups, busy_sms), (10, 31));
    // SM utilization samples are fractions in (0, 1].
    let util = snap.histogram("sim.sm_utilization").expect("utilization");
    assert!(util.count > 0);
    assert!(util.min >= 0.0 && util.max <= 1.0 + 1e-12, "{util:?}");
    // Waves of two blocks, this plan's, park nothing.
    assert_eq!(report.occupancy.k, 2);
    assert_eq!(snap.counter("sim.wave_parked_placements"), 0);
    // A plan of thin tiles runs three blocks to a wave. Each distinct wave
    // is scheduled once, and a full scan of each finds parked blocks going
    // first 20 times between them.
    let plan = TilingPlan::build(
        &spec,
        &size,
        TileSizes::new_2d(4, 4, 384),
        LaunchConfig::new_2d(1, 192),
    )
    .expect("plan builds");
    let thin = SimWorkload::from_plan(&plan);
    let (report, snap) = record(|| simulate(&device, &thin).expect("simulates"));
    assert_eq!(report.occupancy.k, 3);
    let scanned: u64 = distinct_waves(&device, &thin, 3)
        .iter()
        .map(|w| parked_steps(w))
        .sum();
    assert_eq!(snap.counter("sim.wave_parked_placements"), scanned);
    assert_eq!(scanned, 20);
}

/// The steps of the greedy two-pipe schedule of `wave`, scanned in full
/// (each step places the block whose next segment can start earliest,
/// ties to the lowest index), at which a block other than the two
/// lowest-index blocks with segments left went first.
fn parked_steps(wave: &[BlockBits]) -> u64 {
    let mut free = [0.0f64; 2]; // memory pipe, compute pipe
    let mut ready = vec![0.0f64; wave.len()];
    let mut placed = vec![0u64; wave.len()];
    let mut parked = 0;
    loop {
        let live: Vec<usize> = (0..wave.len())
            .filter(|&i| placed[i] < wave[i].0 * wave[i].1.len() as u64)
            .collect();
        if live.is_empty() {
            return parked;
        }
        let next = |i: usize| wave[i].1[(placed[i] % wave[i].1.len() as u64) as usize];
        let start = |i: usize| ready[i].max(free[usize::from(!next(i).0)]);
        let rank = (1..live.len()).fold(0, |best, r| {
            if start(live[r]) < start(live[best]) {
                r
            } else {
                best
            }
        });
        let i = live[rank];
        let (mem, dur) = next(i);
        let end = start(i) + f64::from_bits(dur);
        free[usize::from(!mem)] = end;
        ready[i] = end;
        placed[i] += 1;
        parked += u64::from(rank >= 2);
    }
}

/// The distinct waves of `wl`'s distinct kernels at occupancy `k`: lower
/// every class, deal the blocks round-robin over the SMs, and cut each
/// SM's blocks into waves of `k`.
fn distinct_waves(
    device: &gpu_sim::DeviceConfig,
    wl: &SimWorkload,
    k: usize,
) -> HashSet<Vec<BlockBits>> {
    let mut kernels = HashSet::new();
    let mut waves = HashSet::new();
    for kernel in wl
        .kernels
        .iter()
        .filter(|kern| kernels.insert(Arc::as_ptr(&kern.classes)))
    {
        let mut per_sm: Vec<Vec<BlockBits>> = vec![Vec::new(); device.n_sm];
        let dispatch = kernel.classes.iter().flat_map(|c| {
            let b = block_bits(&cost::lower_block(device, wl, c));
            std::iter::repeat_n(b, c.count as usize)
        });
        for (pos, b) in dispatch.enumerate() {
            per_sm[pos % device.n_sm].push(b);
        }
        waves.extend(
            per_sm
                .iter()
                .flat_map(|sm| sm.chunks(k))
                .map(<[BlockBits]>::to_vec),
        );
    }
    waves
}

/// What the wave scheduler sees of a lowered block, bit for bit: the
/// chunk count and each phase's pipe and duration.
type BlockBits = (u64, Vec<(bool, u64)>);

fn block_bits(b: &BlockSegments) -> BlockBits {
    let phases = b.chunk().iter();
    (
        b.chunks,
        phases
            .map(|s| (s.pipe == Pipe::Mem, s.dur.to_bits()))
            .collect(),
    )
}

/// One baseline tile swept over its ten thread counts: the launches
/// share the tile's wave-cost table. Replaying the sweep independently
/// (lower every class, deal the blocks round-robin, cut each SM's blocks
/// into waves of `k`) gives the waves each kernel schedule needs. A wave
/// an earlier kernel schedule of the tile already needed is a shared
/// cost; every other distinct wave is scheduled once, placing its
/// blocks' segments.
#[test]
fn tile_sweep_shares_wave_costs() {
    let _g = obs_lock();
    let device = gpu_sim::DeviceConfig::gtx980();
    let spec = StencilDescriptor::heat2d().spec();
    let size = ProblemSize::new_2d(1024, 1024, 64);
    let tile = baseline_tiles(&device, StencilDim::D2, &SpaceConfig::default())[0];
    let launches = LaunchConfig::candidates(StencilDim::D2);
    let geometry = PlanGeometry::build(&spec, &size, tile).expect("baseline tile lowers");
    let (reports, snap) = record(|| simulate_launches(&device, &geometry, &launches));

    let mut seen: HashSet<Vec<BlockBits>> = HashSet::new();
    let (mut shared, mut placed, mut runs) = (0u64, 0u64, 0u64);
    for (&launch, report) in launches.iter().zip(&reports) {
        let plan = TilingPlan::build(&spec, &size, tile, launch).expect("candidate launches");
        let wl = SimWorkload::from_plan(&plan);
        let Ok(occ) = occupancy(&device, &wl) else {
            assert!(report.is_none());
            continue;
        };
        runs += 1;
        let mut kernels = HashSet::new();
        for kernel in wl
            .kernels
            .iter()
            .filter(|k| kernels.insert(Arc::as_ptr(&k.classes)))
        {
            let mut per_sm: Vec<Vec<BlockBits>> = vec![Vec::new(); device.n_sm];
            let dispatch = kernel.classes.iter().flat_map(|c| {
                let b = block_bits(&cost::lower_block(&device, &wl, c));
                std::iter::repeat_n(b, c.count as usize)
            });
            for (pos, b) in dispatch.enumerate() {
                per_sm[pos % device.n_sm].push(b);
            }
            let waves: HashSet<Vec<BlockBits>> = per_sm
                .iter()
                .flat_map(|sm| sm.chunks(occ.k))
                .map(<[BlockBits]>::to_vec)
                .collect();
            for wave in waves {
                if seen.contains(&wave) {
                    shared += 1;
                } else {
                    placed += wave.iter().map(|(n, c)| n * c.len() as u64).sum::<u64>();
                    seen.insert(wave);
                }
            }
        }
    }
    assert_eq!(snap.counter("sim.runs"), runs);
    assert_eq!(snap.counter("sim.wave_costs_shared"), shared);
    assert_eq!(snap.counter("sim.wave_segments"), placed);
    // Nine of the ten launches run (1024 threads exceed the register
    // file); their schedules take 56 wave costs from the table.
    assert_eq!((runs, shared, placed), (9, 56, 4692));
}

/// The Figure-6 baseline set evaluated once: `evaluate_points` builds
/// one set of hexagon rows per family (`t_T`, `t_S1`) of its tiles, and
/// each tile's sweep computes one row pass per thread shape clamped to
/// the tile's widest extent on each axis, which every later launch of that
/// shape reuses.
#[test]
fn families_and_shared_row_passes_are_counted() {
    let _g = obs_lock();
    let lab = Lab::new(ExperimentScale::Smoke);
    let device = lab.devices[0].clone();
    let stencil = StencilDescriptor::heat2d();
    let size = lab.scale.sizes_2d()[0];
    let params = lab.model_params(&device, &stencil);
    let space = SpaceConfig::default();
    let spec = stencil.spec();
    let workload = gpu_sim::Workload::new(device.clone(), stencil, size)
        .expect("benchmark and size dimensionalities agree");
    let points = baseline_points(&device, StencilDim::D2, &space);
    let (_, snap) = record(|| {
        let ctx = StrategyContext::new(&workload, &params, &space);
        evaluate_points(&ctx, &points)
    });

    let tiles = baseline_tiles(&device, StencilDim::D2, &space);
    let launches = LaunchConfig::candidates(StencilDim::D2);
    let families: HashSet<(usize, usize)> = tiles.iter().map(|t| (t.t_t, t.t_s[0])).collect();
    let mut shared = 0u64;
    for &tile in &tiles {
        let geometry = PlanGeometry::build(&spec, &size, tile).expect("baseline tile lowers");
        let mut widest = [1u64; 3];
        for class in geometry.wavefronts.iter().flat_map(|w| w.classes.iter()) {
            let axes = [
                class.s1_widths.clone(),
                class.axis2.iter().flat_map(|c| c.widths.clone()).collect(),
                class.axis3.iter().flat_map(|c| c.widths.clone()).collect(),
            ];
            for (w, axis) in widest.iter_mut().zip(axes) {
                *w = axis.into_iter().fold(*w, u64::max);
            }
        }
        let shapes: HashSet<[u64; 3]> = launches
            .iter()
            .map(|l| std::array::from_fn(|d| (l.threads[d] as u64).min(widest[d])))
            .collect();
        shared += (launches.len() - shapes.len()) as u64;
    }
    assert_eq!(snap.counter("opt.eval_plans"), tiles.len() as u64);
    assert_eq!(snap.counter("opt.eval_families"), families.len() as u64);
    assert_eq!(snap.counter("sim.row_passes_shared"), shared);
    // 45 families among the 85 tiles; 606 of the 850 launches reuse a
    // row pass.
    assert_eq!((tiles.len(), families.len(), shared), (85, 45, 606));
}

/// The `exec.*` counters one run must emit: one per [`ExecStats`]
/// count, plus `exec.seq_fallbacks` when the run fell back.
fn expected_exec_counters(stats: &ExecStats) -> BTreeMap<String, u64> {
    let mut counters: BTreeMap<String, u64> = [
        ("exec.runs", 1),
        ("exec.halo_cells", stats.halo_cells),
        ("exec.kernel_points", stats.kernel_points),
        ("exec.generic_points", stats.generic_points),
        ("exec.kernel_rows", stats.kernel_rows),
        ("exec.generic_rows", stats.generic_rows),
        ("exec.simd_rows", stats.simd_rows),
        ("exec.plane_copy_bytes", stats.plane_copy_bytes),
        ("exec.scratch_acquires", stats.scratch_acquires),
        ("exec.scratch_reuses", stats.scratch_reuses),
        ("exec.batch_dispatches", stats.batch_dispatches),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect();
    if stats.seq_fallback {
        counters.insert("exec.seq_fallbacks".to_string(), 1);
    }
    counters
}

/// The `exec.*` counters a snapshot recorded.
fn exec_counters(snap: &obs::Snapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(name, _)| name.starts_with("exec."))
        .map(|(name, &v)| (name.clone(), v))
        .collect()
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
            ExecMode::Fast,
            &ScratchPool::new(),
        )
        .expect("executes")
    });

    assert_eq!(exec_counters(&snap), expected_exec_counters(&stats));
    // Halo cost: a ring of min(t_t + 1, T + 1) = 9 planes, each padded by
    // Jacobi2D's reach of 1 on both axes: 258² − 256² = 1028 halo cells.
    assert_eq!(stats.halo_cells, 9 * 1028);
    assert_eq!(snap.counter("exec.halo_cells"), stats.halo_cells);
    let occ = snap.histogram("exec.window_occupancy").expect("occupancy");
    assert_eq!(occ.count, 1);
    let expect = stats.resident_planes as f64 / stats.logical_planes as f64;
    assert!((occ.sum - expect).abs() < 1e-12, "{} vs {expect}", occ.sum);
}

/// The pooled runs `run_candidates` makes, sequential and staged, emit
/// the same `exec.*` counters as `run_tiled_with`, each equal to the
/// run's own [`ExecStats`].
#[test]
fn pooled_runs_emit_the_same_exec_counters() {
    let _g = obs_lock();
    let spec = StencilDescriptor::jacobi2d().spec();
    let size = ProblemSize::new_2d(256, 256, 32);
    let tiles = TileSizes::new_2d(8, 32, 128);
    let grid = init::random(size.space_extents(), 0x42);
    let pool = ScratchPool::new();
    let mut out = Grid::zeros(size.space_extents());
    for _ in 0..2 {
        let (stats, snap) =
            record(|| run_tiled_parallel_into(&spec, &size, tiles, &grid, &pool, &mut out));
        assert_eq!(exec_counters(&snap), expected_exec_counters(&stats));
        assert!(stats.kernel_points > 0 && stats.scratch_acquires > 0);
        assert_eq!(stats.seq_fallback, stats.batch_dispatches == 0);
    }
    let ((_, stats), snap) = record(|| {
        run_tiled_with(&spec, &size, tiles, &grid, ExecMode::Staged, &pool).expect("executes")
    });
    assert_eq!(exec_counters(&snap), expected_exec_counters(&stats));
    assert!(stats.batch_dispatches > 0 && !stats.seq_fallback);
}

#[test]
fn plan_counter_counts_lowered_block_classes() {
    let _g = obs_lock();
    let spec = StencilDescriptor::jacobi2d().spec();
    let size = ProblemSize::new_2d(512, 512, 128);
    let (geometry, snap) = record(|| {
        PlanGeometry::build(&spec, &size, TileSizes::new_2d(8, 32, 128)).expect("plan builds")
    });
    // Each distinct class vector is lowered once, however many
    // wavefronts share it.
    let mut seen = HashSet::new();
    let lowered: usize = geometry
        .wavefronts
        .iter()
        .filter(|w| seen.insert(Arc::as_ptr(&w.classes)))
        .map(|w| w.classes.len())
        .sum();
    assert_eq!(snap.counter("plan.block_classes"), lowered as u64);
    // Four `(rows, phase)` keys: the time-clipped first and last phase-A
    // wavefronts and the full wavefronts of each phase, each lowering its
    // boundary tiles plus one interior class.
    assert_eq!((seen.len(), lowered), (4, 10));
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
