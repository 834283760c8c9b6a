//! Property tests for the tiled executor's storage and kernel paths:
//! for random stencil kinds, problem sizes, and tile sizes, the
//! rolling-window + row-kernel execution must equal the full space-time
//! checked execution and the sequential reference **bit for bit**, and
//! must hold only `min(t_t + 1, T + 1)` planes resident. Every fast
//! path runs over halo-padded planes, so the halo cases get their own
//! coverage: every named stencil, nonzero boundaries, extents smaller
//! than the stencil's reach, and pooled planes recycled across shapes
//! and boundary values.

use hhc_tiling::{
    rolling_window_depth, run_tiled_checked, run_tiled_parallel_into_with,
    run_tiled_parallel_with_stats, run_tiled_unchecked_with_stats, run_tiled_with, DispatchPolicy,
    ExecOptions, HexTiling, ScratchPool, TileSizes,
};
use proptest::prelude::*;
use stencil_core::{init, reference, Grid, ProblemSize, StencilDescriptor};

/// The boundary values the halo cases run with.
const BOUNDARIES: [f32; 3] = [0.0, 2.5, -0.75];

/// The problem and tile sizes of one shape draw for a stencil of `rank`:
/// `s` are the domain extents (unused ones dropped), `ts` the tile space
/// extents, `t` the time steps and `t_t` the time tile.
fn shape(
    rank: usize,
    s: [usize; 3],
    ts: [usize; 3],
    t: usize,
    t_t: usize,
) -> (ProblemSize, TileSizes) {
    match rank {
        1 => (ProblemSize::new_1d(s[0], t), TileSizes::new_1d(t_t, ts[0])),
        2 => (
            ProblemSize::new_2d(s[0], s[1], t),
            TileSizes::new_2d(t_t, ts[0], ts[1]),
        ),
        _ => (
            ProblemSize::new_3d(s[0], s[1], s[2], t),
            TileSizes::new_3d(t_t, ts[0], ts[1], ts[2]),
        ),
    }
}

fn assert_bits_eq(expect: &Grid, got: &Grid, what: &str) {
    for (i, (a, b)) in expect.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: cell {i}");
    }
}

/// `FAST`, `FAST_SCALAR` and the pooled executor under both forced
/// dispatch policies must each equal `reference::run` bit for bit.
fn assert_fast_paths_match_reference(
    stencil: &StencilDescriptor,
    size: &ProblemSize,
    tiles: TileSizes,
    seed: u64,
    boundary: f32,
) {
    let spec = stencil.spec();
    let mut grid = init::random(size.space_extents(), seed);
    grid.set_boundary(boundary);
    let expect = reference::run(&spec, size, &grid);
    let what = |path: &str| {
        format!(
            "{path}: {} {} {tiles:?} b={boundary}",
            stencil.name,
            size.label()
        )
    };
    for (path, opts) in [
        ("FAST", ExecOptions::FAST),
        ("FAST_SCALAR", ExecOptions::FAST_SCALAR),
    ] {
        let (got, stats) = run_tiled_with(&spec, size, tiles, &grid, opts).expect("fast run");
        assert_bits_eq(&expect, &got, &what(path));
        assert_eq!(stats.generic_points, 0, "{}", what(path));
    }
    let pool = ScratchPool::new();
    for policy in [
        DispatchPolicy::ForceParallel,
        DispatchPolicy::ForceSequential,
    ] {
        let mut got = Grid::zeros(size.space_extents());
        run_tiled_parallel_into_with(&spec, size, tiles, &grid, &pool, &mut got, policy);
        assert_bits_eq(&expect, &got, &what(&format!("{policy:?}")));
    }
}

/// A random (stencil, problem, tiles) case. Extents start at 1 (1-cell
/// domains) and tile extents range well past the domain sizes, so
/// tiles-larger-than-domain cases occur routinely.
fn case() -> impl Strategy<Value = (StencilDescriptor, ProblemSize, TileSizes)> {
    (
        0usize..StencilDescriptor::named().len(),
        1usize..5,                            // t_t / 2
        (1usize..12, 1usize..10, 1usize..48), // tile space extents
        (1usize..24, 1usize..14, 1usize..9),  // domain space extents
        1usize..14,                           // time steps
    )
        .prop_map(|(k, h, (ts1, ts2, ts3), (s1, s2, s3), t)| {
            let stencil = StencilDescriptor::named()[k].clone();
            let t_t = 2 * h;
            match stencil.spec().dim.rank() {
                1 => (
                    stencil,
                    ProblemSize::new_1d(s1 * s2, t),
                    TileSizes::new_1d(t_t, ts1),
                ),
                2 => (
                    stencil,
                    ProblemSize::new_2d(s1, s2, t),
                    TileSizes::new_2d(t_t, ts1, ts2),
                ),
                _ => (
                    stencil,
                    ProblemSize::new_3d(s1.min(9), s2, s3, t.min(8)),
                    TileSizes::new_3d(t_t, ts1.min(7), ts2, ts3),
                ),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast path == checked path == reference, exactly, plus the O(window)
    /// storage bound.
    #[test]
    fn rolling_window_equals_checked_and_reference(
        (stencil, size, tiles) in case(),
        seed in 0u64..1024,
    ) {
        let spec = stencil.spec();
        let grid = init::random(size.space_extents(), seed);
        let expect = reference::run(&spec, &size, &grid);
        let checked = run_tiled_checked(&spec, &size, tiles, &grid);
        let (fast, stats) = run_tiled_unchecked_with_stats(&spec, &size, tiles, &grid);
        prop_assert_eq!(
            expect.max_abs_diff(&checked), 0.0,
            "checked vs reference: {} {} {:?}", stencil.name, size.label(), tiles
        );
        prop_assert_eq!(
            expect.max_abs_diff(&fast), 0.0,
            "fast vs reference: {} {} {:?}", stencil.name, size.label(), tiles
        );
        prop_assert_eq!(stats.resident_planes, rolling_window_depth(tiles, &size));
        prop_assert_eq!(stats.logical_planes, size.time + 1);
        prop_assert!(stats.resident_planes <= tiles.t_t + 1);
    }

    /// Tiles strictly larger than the whole domain on every axis: one tile
    /// covers everything and the window still clamps correctly.
    #[test]
    fn tiles_larger_than_domain(
        s1 in 1usize..6,
        s2 in 1usize..6,
        t in 1usize..7,
        seed in 0u64..256,
    ) {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(s1, s2, t);
        let tiles = TileSizes::new_2d(16, 32, 64);
        let grid = init::random(size.space_extents(), seed);
        let expect = reference::run(&spec, &size, &grid);
        let (fast, stats) = run_tiled_unchecked_with_stats(&spec, &size, tiles, &grid);
        prop_assert_eq!(expect.max_abs_diff(&fast), 0.0, "S1={s1} S2={s2} T={t}");
        // t_t + 1 > T + 1, so the ring clamps to the full logical depth.
        prop_assert_eq!(stats.resident_planes, t + 1);
    }

    /// 1-cell domains: every neighbor but the center is a halo cell, and
    /// the row kernel still carries the whole run.
    #[test]
    fn one_cell_domains(kidx in 0usize..StencilDescriptor::named().len(), t in 1usize..9, seed in 0u64..64) {
        let stencil = StencilDescriptor::named()[kidx].clone();
        let spec = stencil.spec();
        let (size, tiles) = match spec.dim.rank() {
            1 => (ProblemSize::new_1d(1, t), TileSizes::new_1d(4, 3)),
            2 => (ProblemSize::new_2d(1, 1, t), TileSizes::new_2d(4, 2, 2)),
            _ => (ProblemSize::new_3d(1, 1, 1, t), TileSizes::new_3d(4, 2, 2, 2)),
        };
        let grid = init::random(size.space_extents(), seed);
        let expect = reference::run(&spec, &size, &grid);
        let (fast, stats) = run_tiled_unchecked_with_stats(&spec, &size, tiles, &grid);
        prop_assert_eq!(expect.max_abs_diff(&fast), 0.0, "{} T={t}", stencil.name);
        prop_assert_eq!(stats.kernel_points, t as u64);
        prop_assert_eq!(stats.generic_points, 0);
    }

    /// Every named stencil (radius-2 Lap4_2D and asymmetric Advect3D
    /// included) under every boundary value, on random shapes that reach
    /// down to 1-cell domains and extents smaller than the stencil's
    /// reach, with tiles past the domain and `t_t > T`: all four fast
    /// paths equal the reference bit for bit.
    #[test]
    fn halo_paths_match_reference_bitwise(
        s in (1usize..20, 1usize..12, 1usize..8),
        ts in (1usize..12, 1usize..10, 1usize..40),
        t in 1usize..10,
        h in 1usize..5,
        seed in 0u64..1024,
    ) {
        for stencil in StencilDescriptor::named() {
            let rank = stencil.spec().dim.rank();
            let (size, tiles) = shape(rank, [s.0, s.1, s.2], [ts.0, ts.1, ts.2], t, 2 * h);
            for boundary in BOUNDARIES {
                assert_fast_paths_match_reference(&stencil, &size, tiles, seed, boundary);
            }
        }
    }

    /// Pooled parallel executor == sequential fast path, bit for bit —
    /// including nonzero boundary values and `t_t > T` — with matching
    /// point/row classification and a warm pool reusing its buffers when
    /// the same case runs twice.
    #[test]
    fn parallel_pooled_equals_sequential_fast(
        (stencil, size, tiles) in case(),
        seed in 0u64..1024,
        boundary in 0u32..4,
    ) {
        let spec = stencil.spec();
        let mut grid = init::random(size.space_extents(), seed);
        grid.set_boundary(boundary as f32 * 0.75);
        let (fast, fstats) = run_tiled_unchecked_with_stats(&spec, &size, tiles, &grid);
        let pool = ScratchPool::new();
        let (par, pstats) = run_tiled_parallel_with_stats(&spec, &size, tiles, &grid, &pool);
        prop_assert_eq!(
            fast.max_abs_diff(&par), 0.0,
            "parallel vs fast: {} {} {:?}", stencil.name, size.label(), tiles
        );
        for (a, b) in fast.as_slice().iter().zip(par.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(pstats.kernel_points, fstats.kernel_points);
        prop_assert_eq!(pstats.generic_points, fstats.generic_points);
        prop_assert_eq!(pstats.kernel_rows, fstats.kernel_rows);
        prop_assert_eq!(pstats.generic_rows, fstats.generic_rows);
        prop_assert_eq!(pstats.resident_planes, rolling_window_depth(tiles, &size));
        // A second run against the warm pool allocates (almost) nothing.
        let (par2, pstats2) = run_tiled_parallel_with_stats(&spec, &size, tiles, &grid, &pool);
        prop_assert_eq!(par.max_abs_diff(&par2), 0.0);
        prop_assert!(pstats2.scratch_reuses >= pstats.scratch_reuses);
        prop_assert!(pstats2.scratch_reuses > 0);
    }

    /// SIMD row kernels == scalar row kernels, bit for bit, on random
    /// cases — odd extents, boundary-heavy tiles, `t_t > T` truncation
    /// all arise from `case()`'s ranges.
    #[test]
    fn simd_fast_equals_scalar_fast(
        (stencil, size, tiles) in case(),
        seed in 0u64..1024,
        boundary in 0u32..4,
    ) {
        let spec = stencil.spec();
        let mut grid = init::random(size.space_extents(), seed);
        grid.set_boundary(boundary as f32 * 0.5);
        let (scalar, _) = run_tiled_with(&spec, &size, tiles, &grid, ExecOptions::FAST_SCALAR)
            .expect("scalar fast run");
        let (simd, _) = run_tiled_with(&spec, &size, tiles, &grid, ExecOptions::FAST)
            .expect("simd fast run");
        for (a, b) in scalar.as_slice().iter().zip(simd.as_slice()) {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "simd vs scalar: {} {} {:?}", stencil.name, size.label(), tiles
            );
        }
    }

    /// `ForceParallel` (the batched path, even on a 1-thread pool) ==
    /// `ForceSequential` (the pooled fallback) == the sequential fast
    /// path, bit for bit.
    #[test]
    fn dispatch_policies_agree_bitwise(
        (stencil, size, tiles) in case(),
        seed in 0u64..1024,
    ) {
        let spec = stencil.spec();
        let grid = init::random(size.space_extents(), seed);
        let (fast, _) = run_tiled_unchecked_with_stats(&spec, &size, tiles, &grid);
        let pool = ScratchPool::new();
        let mut forced = Grid::zeros(size.space_extents());
        let fstats = run_tiled_parallel_into_with(
            &spec, &size, tiles, &grid, &pool, &mut forced, DispatchPolicy::ForceParallel,
        );
        prop_assert!(!fstats.seq_fallback);
        prop_assert!(fstats.batch_dispatches > 0);
        let mut seq = Grid::zeros(size.space_extents());
        let sstats = run_tiled_parallel_into_with(
            &spec, &size, tiles, &grid, &pool, &mut seq, DispatchPolicy::ForceSequential,
        );
        prop_assert!(sstats.seq_fallback);
        prop_assert_eq!(sstats.batch_dispatches, 0);
        for (a, b) in fast.as_slice().iter().zip(forced.as_slice()) {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "forced-parallel vs fast: {} {} {:?}", stencil.name, size.label(), tiles
            );
        }
        for (a, b) in fast.as_slice().iter().zip(seq.as_slice()) {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "fallback vs fast: {} {} {:?}", stencil.name, size.label(), tiles
            );
        }
    }
}

/// Every SIMD lane-width remainder (`interior len % 8` ∈ 0..8) on the
/// contiguous axis, in 1D, 2D, and 3D, plus a `t_t > T` truncation case:
/// the vectorized fast path must match the scalar fast path bit for bit.
#[test]
fn simd_matches_scalar_for_all_lane_remainders() {
    let cases = |r: usize| {
        vec![
            (
                StencilDescriptor::jacobi1d(),
                ProblemSize::new_1d(32 + r, 5),
                TileSizes::new_1d(4, 6),
            ),
            (
                StencilDescriptor::jacobi2d(),
                ProblemSize::new_2d(12, 16 + r, 6),
                TileSizes::new_2d(4, 4, 8),
            ),
            // t_t = 16 > T = 3: the window truncates to the full depth.
            (
                StencilDescriptor::jacobi2d(),
                ProblemSize::new_2d(9, 16 + r, 3),
                TileSizes::new_2d(16, 32, 64),
            ),
            (
                StencilDescriptor::heat3d(),
                ProblemSize::new_3d(7, 6, 16 + r, 4),
                TileSizes::new_3d(4, 3, 4, 8),
            ),
        ]
    };
    for r in 0..stencil_core::simd::BLOCK_WIDTH {
        for (stencil, size, tiles) in cases(r) {
            let spec = stencil.spec();
            let grid = init::random(size.space_extents(), 0xC0FFEE + r as u64);
            let (scalar, _) = run_tiled_with(&spec, &size, tiles, &grid, ExecOptions::FAST_SCALAR)
                .expect("scalar fast run");
            let (simd, sstats) = run_tiled_with(&spec, &size, tiles, &grid, ExecOptions::FAST)
                .expect("simd fast run");
            for (i, (a, b)) in scalar.as_slice().iter().zip(simd.as_slice()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} {} rem {r} cell {i}",
                    stencil.name,
                    size.label()
                );
            }
            // The interior is wide enough that the blocked sweep engaged.
            assert!(sstats.simd_rows > 0, "{} rem {r}: {sstats:?}", stencil.name);
        }
    }
}

/// Exact pool-counter pin for a known schedule, under both dispatch
/// policies. The workload is small enough that the cost floor makes
/// every wavefront a single batch (`nb = 1`), so the counter arithmetic
/// is deterministic on any pool size:
///
/// * `ForceParallel`, cold pool: `depth` ring-plane checkouts (all
///   misses) plus one scratch + one write log per active wavefront; from
///   the second active wavefront on, both are recycled within the run.
/// * `ForceSequential` (the fallback): ring planes only — no write logs,
///   no per-batch scratch.
/// * Warm pool, second run: every checkout is a reuse.
#[test]
fn scratch_counters_pin_exact_values_for_known_schedule() {
    let stencil = StencilDescriptor::jacobi2d();
    let spec = stencil.spec();
    let size = ProblemSize::new_2d(24, 8, 6);
    let tiles = TileSizes::new_2d(4, 4, 8);
    let grid = init::random(size.space_extents(), 7);
    let depth = rolling_window_depth(tiles, &size) as u64;
    let hex = HexTiling::with_slope(tiles.t_s[0], tiles.t_t, spec.order().max(1) as usize);
    let active = (0..hex.wavefront_count(size.time))
        .filter(|&w| hex.wavefront_tiles(w, size.space[0], size.time).count() > 0)
        .count() as u64;
    assert!(active >= 2, "schedule too small to pin reuse arithmetic");

    let pool = ScratchPool::new();
    let mut out = Grid::zeros(size.space_extents());
    let cold = run_tiled_parallel_into_with(
        &spec,
        &size,
        tiles,
        &grid,
        &pool,
        &mut out,
        DispatchPolicy::ForceParallel,
    );
    assert_eq!(cold.batch_dispatches, active, "one batch per wavefront");
    assert_eq!(cold.scratch_acquires, depth + 2 * active);
    assert_eq!(cold.scratch_reuses, 2 * (active - 1));
    let warm = run_tiled_parallel_into_with(
        &spec,
        &size,
        tiles,
        &grid,
        &pool,
        &mut out,
        DispatchPolicy::ForceParallel,
    );
    assert_eq!(warm.scratch_acquires, depth + 2 * active);
    assert_eq!(warm.scratch_reuses, warm.scratch_acquires);

    let pool2 = ScratchPool::new();
    let fb = run_tiled_parallel_into_with(
        &spec,
        &size,
        tiles,
        &grid,
        &pool2,
        &mut out,
        DispatchPolicy::ForceSequential,
    );
    assert_eq!(fb.scratch_acquires, depth);
    assert_eq!(fb.scratch_reuses, 0);
    let fb2 = run_tiled_parallel_into_with(
        &spec,
        &size,
        tiles,
        &grid,
        &pool2,
        &mut out,
        DispatchPolicy::ForceSequential,
    );
    assert_eq!(fb2.scratch_acquires, depth);
    assert_eq!(fb2.scratch_reuses, depth);
}

/// The halo edge cases, enumerated rather than sampled, for every named
/// stencil and boundary value: a 1-cell domain, extents at or below the
/// reach, a single-cell axis beside longer ones, tiles larger than the
/// domain, and `t_t > T`.
#[test]
fn halo_edge_cases_match_reference_bitwise() {
    let cases: [([usize; 3], [usize; 3], usize, usize); 5] = [
        ([1, 1, 1], [1, 1, 1], 3, 2),
        ([2, 1, 3], [2, 1, 2], 5, 2),
        ([9, 1, 6], [3, 2, 4], 6, 4),
        ([5, 4, 3], [16, 32, 64], 4, 4),
        ([7, 6, 5], [3, 4, 5], 2, 8),
    ];
    for stencil in StencilDescriptor::named() {
        let rank = stencil.spec().dim.rank();
        for (i, &(s, ts, t, t_t)) in cases.iter().enumerate() {
            let (size, tiles) = shape(rank, s, ts, t, t_t);
            for boundary in BOUNDARIES {
                assert_fast_paths_match_reference(
                    &stencil,
                    &size,
                    tiles,
                    0xA11 + i as u64,
                    boundary,
                );
            }
        }
    }
}

/// One pool through runs of different stencils, shapes and boundary
/// values: recycled ring planes carry stale halos (a different boundary)
/// and stale domain cells where the new shape puts its halo, so every
/// checkout must rewrite the halo for the outputs to stay exact.
#[test]
fn recycled_planes_get_fresh_halos() {
    let runs = [
        (StencilDescriptor::jacobi2d(), [12, 9, 1], 2.5),
        (StencilDescriptor::jacobi2d(), [12, 9, 1], -0.75),
        (StencilDescriptor::jacobi2d(), [7, 5, 1], 0.0),
        (StencilDescriptor::lap4_2d(), [9, 6, 1], 2.5),
        (StencilDescriptor::jacobi2d(), [13, 8, 1], -0.75),
        (StencilDescriptor::heat3d(), [5, 4, 6], -0.75),
        (StencilDescriptor::heat3d(), [5, 4, 6], 2.5),
        (StencilDescriptor::advect3d(), [4, 6, 5], 0.0),
        (StencilDescriptor::jacobi1d(), [40, 1, 1], 2.5),
        (StencilDescriptor::jacobi1d(), [40, 1, 1], -0.75),
    ];
    let pool = ScratchPool::new();
    for policy in [
        DispatchPolicy::ForceParallel,
        DispatchPolicy::ForceSequential,
    ] {
        for (i, (stencil, s, boundary)) in runs.iter().enumerate() {
            let spec = stencil.spec();
            let (size, tiles) = shape(spec.dim.rank(), *s, [3, 4, 5], 5, 4);
            let mut grid = init::random(size.space_extents(), 0x5EED + i as u64);
            grid.set_boundary(*boundary);
            let expect = reference::run(&spec, &size, &grid);
            let mut got = Grid::zeros(size.space_extents());
            let stats =
                run_tiled_parallel_into_with(&spec, &size, tiles, &grid, &pool, &mut got, policy);
            assert_bits_eq(
                &expect,
                &got,
                &format!("{policy:?} run {i}: {} b={boundary}", stencil.name),
            );
            assert!(stats.halo_cells > 0);
        }
    }
}
