//! Substrate benchmarks: the building blocks every experiment leans on —
//! hexagon geometry, plan lowering, the discrete-event engine, the
//! functional tiled executor, and the model evaluation itself. These are
//! the "ablation" numbers for the design choices DESIGN.md calls out
//! (class-based plans, separable axes, cached kernel timing).

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{simulate, DeviceConfig, SimWorkload};
use hhc_tiling::{exec, HexTiling, LaunchConfig, TileSizes, TilingPlan};
use std::hint::black_box;
use stencil_core::{reference, Grid, ProblemSize, StencilDescriptor};
use time_model::{DimSpec, MeasuredParams, ModelParams};

fn bench(c: &mut Criterion) {
    let stencil = StencilDescriptor::jacobi2d();
    let spec = stencil.spec();
    let device = DeviceConfig::gtx980();

    let mut g = c.benchmark_group("substrate");

    // Hexagon point classification (the partition's hot query).
    let hx = HexTiling::new(16, 8);
    g.bench_function("hex_tile_containing_10k", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for t in 0..100i64 {
                for s in 0..100i64 {
                    acc += hx.tile_containing(t, s).j;
                }
            }
            black_box(acc)
        })
    });

    // Plan lowering at a full paper size (class-based: milliseconds, not
    // the hours a per-tile representation would take).
    let size = ProblemSize::new_2d(8192, 8192, 4096);
    let tiles = TileSizes::new_2d(16, 16, 128);
    let launch = LaunchConfig::new_2d(1, 128);
    g.bench_function("plan_build_8192sq_T4096", |b| {
        b.iter(|| {
            let plan = TilingPlan::build(&spec, &size, tiles, launch).unwrap();
            black_box(plan.kernel_count())
        })
    });

    // Discrete-event simulation of the full schedule.
    let plan = TilingPlan::build(&spec, &size, tiles, launch).unwrap();
    let wl = SimWorkload::from_plan(&plan);
    g.bench_function("simulate_8192sq_T4096", |b| {
        b.iter(|| black_box(simulate(&device, &wl).unwrap().total_time))
    });

    // Model evaluation (the unit of the exhaustive sweep).
    let params = ModelParams::from_measured(&device, &MeasuredParams::paper_gtx980(3.39e-8));
    let model = DimSpec::for_stencil(&stencil);
    g.bench_function("model_predict", |b| {
        b.iter(|| black_box(model.predict(&params, &size, &tiles).talg))
    });

    // Functional tiled execution vs the reference executor (validation
    // path; small domain).
    let vsize = ProblemSize::new_2d(64, 64, 16);
    let vtiles = TileSizes::new_2d(4, 6, 8);
    let init = Grid::filled(vsize.space_extents(), 1.0);
    g.bench_function("tiled_exec_64sq_T16", |b| {
        b.iter(|| black_box(exec::run_tiled_unchecked(&spec, &vsize, vtiles, &init).len()))
    });
    g.bench_function("reference_exec_64sq_T16", |b| {
        b.iter(|| black_box(reference::run(&spec, &vsize, &init).len()))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
