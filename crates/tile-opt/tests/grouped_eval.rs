//! Grouped evaluation against the single-point path.
//!
//! `evaluate_points` builds one plan per distinct tile and sweeps its
//! thread counts from it; `simulate_point` is the one-point case of the
//! same helper. Over random point sets — invalid tiles, invalid
//! launches, duplicates, a warm `EvalCache` — every evaluation must
//! equal the single-point path bit for bit, come back in input order,
//! and leave the cache and telemetry accounting exactly as a per-point
//! evaluation would. A committed table pins each strategy's
//! `measured_count` and `cache_hits` on four small studies.

use gpu_sim::{DeviceConfig, Workload};
use hhc_tiling::{LaunchConfig, TileSizes};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};
use stencil_core::{ProblemSize, StencilDescriptor, StencilDim};
use tile_opt::{
    evaluate_points, feasible_space, simulate_point, study, thread_counts, DataPoint, SpaceConfig,
    StrategyContext,
};
use time_model::{predict, MeasuredParams, ModelParams};

const STENCILS: [&str; 4] = ["Heat2D", "Lap4_2D", "Heat3D", "Advect3D"];

fn workload(name: &str) -> Workload {
    let stencil = StencilDescriptor::from_name(name).expect("preset or zoo stencil");
    let size = match stencil.dim.rank() {
        3 => ProblemSize::new_3d(40, 40, 40, 10),
        _ => ProblemSize::new_2d(256, 256, 32),
    };
    Workload::new(DeviceConfig::gtx980(), stencil, size).expect("ranks agree")
}

fn params() -> ModelParams {
    ModelParams::from_measured(
        &DeviceConfig::gtx980(),
        &MeasuredParams::paper_gtx980(3.39e-8),
    )
}

/// Tiles to draw from: a spread of feasible ones, a tile too large for
/// shared memory (the plan builds, the launch fails) and a malformed one
/// (odd `t_T`: the plan does not build).
fn tile_pool(w: &Workload) -> Vec<TileSizes> {
    let space = feasible_space(w, &SpaceConfig::default());
    let step = (space.len() / 6).max(1);
    let mut pool: Vec<TileSizes> = space.into_iter().step_by(step).take(6).collect();
    let mut huge = TileSizes::hhc_default(w.dim());
    huge.t_t = 64;
    for d in 0..w.dim().rank() {
        huge.t_s[d] = 512;
    }
    let mut odd = TileSizes::hhc_default(w.dim());
    odd.t_t = 3;
    pool.extend([huge, odd]);
    pool
}

/// Launches to draw from: the ten thread counts plus two invalid ones
/// (too many threads; a thread extent on an unused axis).
fn launch_pool(dim: StencilDim) -> Vec<LaunchConfig> {
    let mut pool = thread_counts(dim);
    pool.push(LaunchConfig::new_3d(2, 32, 32));
    if dim == StencilDim::D2 {
        pool.push(LaunchConfig::new_3d(1, 4, 32));
    } else {
        pool.push(LaunchConfig::new_1d(0));
    }
    pool
}

fn points(w: &Workload, picks: &[(usize, usize)]) -> Vec<DataPoint> {
    let tiles = tile_pool(w);
    let launches = launch_pool(w.dim());
    picks
        .iter()
        .map(|&(t, l)| DataPoint {
            tiles: tiles[t % tiles.len()],
            launch: launches[l % launches.len()],
        })
        .collect()
}

/// The obs recorder is process-global: tests that install one, or that
/// evaluate points while another may have one installed, serialize.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn record<T>(f: impl FnOnce() -> T) -> (T, obs::Snapshot) {
    let rec = Arc::new(obs::MemoryRecorder::new(obs::Level::Info));
    obs::install(rec.clone());
    let out = f();
    obs::uninstall();
    (out, rec.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn grouped_evaluation_equals_single_points(
        stencil in 0usize..4,
        warm in prop::collection::vec((0usize..8, 0usize..12), 0..12),
        picks in prop::collection::vec((0usize..8, 0usize..12), 1..40),
    ) {
        let _g = obs_lock();
        let w = workload(STENCILS[stencil]);
        let params = params();
        let space = SpaceConfig::default();
        let ctx = StrategyContext::new(&w, &params, &space);
        let warm = points(&w, &warm);
        let pts = points(&w, &picks);
        evaluate_points(&ctx, &warm);
        let seen: HashSet<DataPoint> = warm.iter().copied().collect();
        let (lookups, hits) = (ctx.cache.lookups(), ctx.cache.hits());

        let (evals, snap) = record(|| evaluate_points(&ctx, &pts));

        prop_assert_eq!(evals.len(), pts.len());
        for (e, p) in evals.iter().zip(&pts) {
            prop_assert_eq!(e.point, *p);
            let want = simulate_point(ctx.device(), &ctx.spec, ctx.size(), p)
                .map(|r| r.total_time.to_bits());
            prop_assert_eq!(e.measured.map(f64::to_bits), want, "{:?}", p);
            let talg = predict(&params, ctx.size(), &p.tiles).talg;
            prop_assert_eq!(e.predicted.to_bits(), talg.to_bits());
            prop_assert_eq!(e.gflops.is_some(), e.measured.is_some());
        }
        // Cache and telemetry accounting: hits are the points seen before
        // this call; every other point is simulated, duplicates included;
        // one plan per distinct tile among those.
        let expect_hits = pts.iter().filter(|p| seen.contains(p)).count() as u64;
        let misses: Vec<&DataPoint> = pts.iter().filter(|p| !seen.contains(p)).collect();
        let plans = misses.iter().map(|p| p.tiles).collect::<HashSet<_>>().len() as u64;
        prop_assert_eq!(ctx.cache.lookups() - lookups, pts.len() as u64);
        prop_assert_eq!(ctx.cache.hits() - hits, expect_hits);
        prop_assert_eq!(snap.counter("opt.eval_lookups"), pts.len() as u64);
        prop_assert_eq!(snap.counter("opt.eval_cache_hits"), expect_hits);
        prop_assert_eq!(snap.counter("opt.eval_simulated"), misses.len() as u64);
        prop_assert_eq!(snap.counter("opt.eval_plans"), plans);
        // A warm re-run serves every point from the cache, unchanged.
        prop_assert_eq!(evaluate_points(&ctx, &pts), evals);
    }
}

/// `(stencil, strategy, measured_count, cache_hits, chosen measured time
/// bits)` of `study(ctx, false)` on [`workload`] with [`params`],
/// computed with one plan per evaluated point.
#[rustfmt::skip]
const STUDIES: &[(&str, &str, usize, usize, u64)] = &[
    ("Heat2D", "HHC", 1, 0, 0x3f5272057ccaaca7),
    ("Heat2D", "Baseline", 850, 0, 0x3f1736d25eb8eaf0),
    ("Heat2D", "Talg min", 1, 0, 0x3f1bf5a63bbe2293),
    ("Heat2D", "Within 10% of Talg min", 9, 1, 0x3f1af286dc55a515),
    ("Lap4_2D", "HHC", 1, 0, 0x3f5d7d2bd4d5ed5f),
    ("Lap4_2D", "Baseline", 850, 0, 0x3f23fdfcd9170486),
    ("Lap4_2D", "Talg min", 1, 0, 0x3f3439e5898ca245),
    ("Lap4_2D", "Within 10% of Talg min", 6, 1, 0x3f2c19447347c385),
    ("Heat3D", "HHC", 1, 0, 0x3f3cbdd972802dc4),
    ("Heat3D", "Baseline", 40, 1, 0x3f3ba0b6c294fd8c),
    ("Heat3D", "Talg min", 1, 0, 0x3f337dce60dec903),
    ("Heat3D", "Within 10% of Talg min", 16, 1, 0x3f28a377219878fa),
    ("Advect3D", "HHC", 1, 0, 0x3f3cbdd972802dc4),
    ("Advect3D", "Baseline", 40, 1, 0x3f3ba0b6c294fd8c),
    ("Advect3D", "Talg min", 1, 0, 0x3f337dce60dec903),
    ("Advect3D", "Within 10% of Talg min", 16, 1, 0x3f28a377219878fa),
];

#[test]
fn study_accounting_is_pinned() {
    // Its evaluations must not land in the other test's recorder.
    let _g = obs_lock();
    let params = params();
    let space = SpaceConfig::default();
    let mut got = Vec::new();
    for name in STENCILS {
        let w = workload(name);
        let ctx = StrategyContext::new(&w, &params, &space);
        for o in study(&ctx, false).outcomes {
            got.push((
                name,
                o.strategy.name(),
                o.measured_count,
                o.cache_hits,
                o.chosen.measured.map_or(0, f64::to_bits),
            ));
        }
    }
    assert_eq!(got, STUDIES);
}
