//! Executor hot-path benchmarks: the sequential modes of the tiled
//! executor (the seed baseline, then the rolling window with scalar and
//! with vectorized row kernels) and the memoized vs cold strategy
//! evaluation.
//! Companion to `experiments --bench-exec`, which times the same paths on
//! larger workloads and persists `BENCH_exec.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::DeviceConfig;
use hhc_tiling::{run_tiled_with, ExecMode, ScratchPool, TileSizes};
use microbench::measured_params_sampled;
use std::hint::black_box;
use stencil_core::{init, ProblemSize, StencilDescriptor};
use tile_opt::strategy::{baseline_points, evaluate_points, StrategyContext};
use tile_opt::SpaceConfig;
use time_model::ModelParams;

fn bench_exec_paths(c: &mut Criterion) {
    let spec = StencilDescriptor::jacobi2d().spec();
    let size = ProblemSize::new_2d(256, 256, 32);
    let tiles = TileSizes::new_2d(8, 32, 128);
    let grid = init::random(size.space_extents(), 0x42);

    let mut g = c.benchmark_group("exec_hotpath");
    g.sample_size(10);
    for (name, mode) in [
        // Seed implementation: full space-time storage, generic per-point
        // loop.
        ("jacobi2d_generic_full_storage", ExecMode::Baseline),
        // Rolling window + scalar row kernels (the pre-SIMD fast path).
        ("jacobi2d_row_kernel_scalar", ExecMode::FastScalar),
        // The full fast path: rolling window + vectorized row kernels.
        ("jacobi2d_row_kernel_simd", ExecMode::Fast),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let pool = ScratchPool::new();
                let (out, _) = run_tiled_with(&spec, &size, tiles, &grid, mode, &pool).unwrap();
                black_box(out.len())
            })
        });
    }
    g.finish();
}

fn bench_strategy_memoization(c: &mut Criterion) {
    let device = DeviceConfig::gtx980();
    let stencil = StencilDescriptor::jacobi2d();
    let size = ProblemSize::new_2d(512, 512, 128);
    let measured = measured_params_sampled(&device, &stencil, 8, 3);
    let params = ModelParams::from_measured(&device, &measured);
    let space = SpaceConfig::default();
    let workload =
        gpu_sim::Workload::new(device, stencil, size).expect("Jacobi2D is 2-dimensional");
    let points = baseline_points(&workload.device, workload.dim(), &space);

    let mut g = c.benchmark_group("strategy_eval");
    g.sample_size(10);
    // Cold: a fresh cache every iteration — every point simulates.
    g.bench_function("baseline_850_cold", |b| {
        b.iter(|| {
            let ctx = StrategyContext::new(&workload, &params, &space);
            black_box(evaluate_points(&ctx, &points).len())
        })
    });
    // Memoized: one shared warm cache — every point is a hit.
    let warm_ctx = StrategyContext::new(&workload, &params, &space);
    evaluate_points(&warm_ctx, &points);
    g.bench_function("baseline_850_memoized", |b| {
        b.iter(|| black_box(evaluate_points(&warm_ctx, &points).len()))
    });
    g.finish();
}

criterion_group!(benches, bench_exec_paths, bench_strategy_memoization);
criterion_main!(benches);
