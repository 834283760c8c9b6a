//! Family-ordered evaluation does not depend on the order of the points.
//!
//! `evaluate_points` groups its misses by tile and the tiles by hexagon
//! family (`t_T`, `t_S1`), building each family's hexagon rows once.
//! Over point sets rich in tiles that share a family — siblings that
//! differ only in their inner extents, a family that cannot build (odd
//! `t_T`) and a tile that cannot lower from a family that can (an extent
//! on an unused axis) — evaluating the points in a shuffled order must give
//! every point the same `Evaluated` as the original order and as the
//! single-point path, and the same `opt.eval_*` counters. A tile with a
//! zero inner extent, which the model cannot evaluate, comes back
//! unmeasured among valid ones.

use gpu_sim::{DeviceConfig, Workload};
use hhc_tiling::{LaunchConfig, TileSizes};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};
use stencil_core::{ProblemSize, StencilDescriptor};
use tile_opt::{
    evaluate_points, feasible_space, simulate_point, DataPoint, Evaluated, SpaceConfig,
    StrategyContext,
};
use time_model::{MeasuredParams, ModelParams};

const STENCILS: [&str; 3] = ["Heat2D", "Lap4_2D", "Heat3D"];

const COUNTERS: [&str; 5] = [
    "opt.eval_lookups",
    "opt.eval_cache_hits",
    "opt.eval_simulated",
    "opt.eval_plans",
    "opt.eval_families",
];

fn workload(name: &str) -> Workload {
    let stencil = StencilDescriptor::from_name(name).expect("preset stencil");
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

/// Four feasible tiles, each with a sibling of half its innermost extent
/// (same family), an odd-`t_T` tile, and in the first tile's family a
/// tile with an extent of 2 on an unused axis (below 3D; a sibling of
/// twice the innermost extent in 3D).
fn tile_pool(w: &Workload) -> Vec<TileSizes> {
    let rank = w.dim().rank();
    let space = feasible_space(w, &SpaceConfig::default());
    let step = (space.len() / 4).max(1);
    let mut pool = Vec::new();
    for t in space.into_iter().step_by(step).take(4) {
        let mut sibling = t;
        sibling.t_s[rank - 1] = (t.t_s[rank - 1] / 2).max(1);
        pool.extend([t, sibling]);
    }
    let mut odd = pool[0];
    odd.t_t += 1;
    let mut stray = pool[0];
    match stray.t_s.get_mut(rank) {
        Some(unused) => *unused = 2,
        None => stray.t_s[rank - 1] *= 2,
    }
    pool.extend([odd, stray]);
    pool
}

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn record<T>(f: impl FnOnce() -> T) -> (T, obs::Snapshot) {
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Info));
    obs::install(rec.clone());
    let out = f();
    obs::uninstall();
    (out, rec.snapshot())
}

/// SplitMix64: the shuffle's generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn shuffled_points_evaluate_alike(
        stencil in 0usize..3,
        picks in prop::collection::vec((0usize..10, 0usize..10), 1..40),
        seed in any::<u64>(),
    ) {
        let _g = obs_lock();
        let w = workload(STENCILS[stencil]);
        let (params, space) = (params(), SpaceConfig::default());
        let (tiles, launches) = (tile_pool(&w), LaunchConfig::candidates(w.dim()));
        let pts: Vec<DataPoint> = picks
            .iter()
            .map(|&(t, l)| DataPoint { tiles: tiles[t], launch: launches[l] })
            .collect();
        let mut order: Vec<usize> = (0..pts.len()).collect();
        let mut state = seed;
        for i in (1..order.len()).rev() {
            order.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
        }
        let shuffled: Vec<DataPoint> = order.iter().map(|&i| pts[i]).collect();

        let ctx = StrategyContext::new(&w, &params, &space);
        let (evals, snap) = record(|| evaluate_points(&ctx, &pts));
        let ctx = StrategyContext::new(&w, &params, &space);
        let (moved, moved_snap) = record(|| evaluate_points(&ctx, &shuffled));

        for (j, &i) in order.iter().enumerate() {
            prop_assert_eq!(moved[j], evals[i]);
            let want = simulate_point(ctx.device(), &ctx.spec, ctx.size(), &pts[i])
                .map(|r| r.total_time.to_bits());
            prop_assert_eq!(evals[i].measured.map(f64::to_bits), want, "{:?}", pts[i]);
        }
        for name in COUNTERS {
            prop_assert_eq!(moved_snap.counter(name), snap.counter(name), "{}", name);
        }
        // One family per distinct (t_T, t_S1) among the tiles.
        let families: HashSet<(usize, usize)> =
            pts.iter().map(|p| (p.tiles.t_t, p.tiles.t_s[0])).collect();
        prop_assert_eq!(snap.counter("opt.eval_families"), families.len() as u64);
    }
}

/// A Heat2D pool with a `t_S2 = 0` sibling of its first tile: that
/// tile's points come back unmeasured with a non-finite prediction, and
/// every other point evaluates as it does without it.
#[test]
fn zero_inner_extent_is_unmeasured_among_valid_tiles() {
    let _g = obs_lock();
    let w = workload("Heat2D");
    let (params, space) = (params(), SpaceConfig::default());
    let pool = tile_pool(&w);
    let mut zero = pool[0];
    zero.t_s[1] = 0;
    let launches = LaunchConfig::candidates(w.dim());
    let pts: Vec<DataPoint> = pool
        .iter()
        .chain([&zero])
        .flat_map(|t| {
            launches[..3].iter().map(|l| DataPoint {
                tiles: *t,
                launch: *l,
            })
        })
        .collect();
    let ctx = StrategyContext::new(&w, &params, &space);
    let evals = evaluate_points(&ctx, &pts);
    assert_eq!(evals.len(), pts.len());
    for e in evals.iter().filter(|e| e.point.tiles == zero) {
        assert_eq!((e.measured, e.gflops), (None, None));
        assert!(!e.predicted.is_finite(), "{e:?}");
    }
    let valid: Vec<DataPoint> = pts.iter().filter(|p| p.tiles != zero).copied().collect();
    let rest: Vec<Evaluated> = evals
        .into_iter()
        .filter(|e| e.point.tiles != zero)
        .collect();
    for e in &rest {
        let talg = ctx
            .dspec()
            .predict(&params, ctx.size(), &e.point.tiles)
            .talg;
        assert_eq!(e.predicted.to_bits(), talg.to_bits(), "{:?}", e.point);
    }
    let ctx = StrategyContext::new(&w, &params, &space);
    assert_eq!(rest, evaluate_points(&ctx, &valid));
}
