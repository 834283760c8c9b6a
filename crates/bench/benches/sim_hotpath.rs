//! Simulator hot-path benchmarks: the closed-form steady-state kernel
//! scheduler vs the tracer's exact O(total-blocks) replay, single waves
//! of 3–16 co-resident 64-chunk blocks, the pooled
//! wavefront-parallel executor vs the sequential fast path, full
//! `simulate` calls over real tiling plans (one with hundreds of
//! wavefronts), one baseline tile's ten launches, and the plan-geometry
//! lowering every simulated tile pays first, tile by tile and family by
//! family. Companion to
//! `experiments --bench-exec --parallel-exec`, which times the same
//! paths on larger workloads and persists `BENCH_exec.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{
    kernel_time, kernel_time_dealing, occupancy, simulate, simulate_launches, DeviceConfig,
    SimWorkload,
};
use hhc_tiling::plan::{AxisClass, BlockClass, WavefrontPlan};
use hhc_tiling::{
    run_tiled_parallel_into, run_tiled_with, ExecMode, HexagonRows, LaunchConfig, PlanGeometry,
    ScratchPool, TileSizes, TilingPlan,
};
use std::hint::black_box;
use std::sync::Arc;
use stencil_core::{init, Grid, ProblemSize, StencilDescriptor, StencilDim};
use tile_opt::strategy::baseline_tiles;
use tile_opt::SpaceConfig;

fn jacobi2d_workload() -> (DeviceConfig, SimWorkload) {
    let device = DeviceConfig::gtx980();
    let spec = StencilDescriptor::jacobi2d().spec();
    let size = ProblemSize::new_2d(1024, 1024, 128);
    // (8, 32, 256) overflows gtx980 shared memory per block; 128 fits.
    let tiles = TileSizes::new_2d(8, 32, 128);
    let plan =
        TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_2d(4, 32)).expect("plan builds");
    (device, SimWorkload::from_plan(&plan))
}

fn bench_kernel_scheduling(c: &mut Criterion) {
    let (device, wl) = jacobi2d_workload();
    let k = occupancy(&device, &wl).expect("occupancy").k;
    // The widest wavefront dominates the schedule cost.
    let classes = wl
        .kernels
        .iter()
        .max_by_key(|kern| kern.block_count())
        .expect("plan has kernels")
        .classes
        .clone();
    let steady = kernel_time(&device, &wl, &classes, k);
    let dealing = kernel_time_dealing(&device, &wl, &classes, k);
    assert_eq!(steady, dealing, "schedulers must agree before timing");

    let mut g = c.benchmark_group("sim_hotpath");
    g.sample_size(10);
    g.bench_function("kernel_time_steady", |b| {
        b.iter(|| black_box(kernel_time(&device, &wl, &classes, k).makespan))
    });
    g.bench_function("kernel_time_dealing", |b| {
        b.iter(|| black_box(kernel_time_dealing(&device, &wl, &classes, k).makespan))
    });
    g.bench_function("simulate_full_plan", |b| {
        b.iter(|| black_box(simulate(&device, &wl).expect("launches").total_time))
    });

    // Hundreds of kernels sharing a few class vectors: the register
    // demand must be computed once per simulation, not once per lowered
    // class (which walked every kernel, O(N_w × classes)).
    let spec = StencilDescriptor::jacobi2d().spec();
    let size = ProblemSize::new_2d(4096, 4096, 1024);
    let plan = TilingPlan::build(
        &spec,
        &size,
        TileSizes::new_2d(4, 32, 128),
        LaunchConfig::new_2d(4, 32),
    )
    .expect("plan builds");
    assert!(
        plan.kernel_count() >= 256,
        "{} kernels",
        plan.kernel_count()
    );
    let many = SimWorkload::from_plan(&plan);
    g.bench_function("simulate_many_wavefronts", |b| {
        b.iter(|| black_box(simulate(&device, &many).expect("launches").total_time))
    });

    // The unit the Baseline strategy repeats 85 times per study: one
    // tile's geometry simulated under each of the ten thread counts,
    // the launches sharing one wave-cost table.
    let spec = StencilDescriptor::heat2d().spec();
    let size = ProblemSize::new_2d(4096, 4096, 1024);
    let tile = baseline_tiles(&device, StencilDim::D2, &SpaceConfig::default())[0];
    let geometry = PlanGeometry::build(&spec, &size, tile).expect("baseline tile lowers");
    let launches = LaunchConfig::candidates(StencilDim::D2);
    g.bench_function("baseline_tile", |b| {
        b.iter(|| {
            simulate_launches(&device, &geometry, &launches)
                .into_iter()
                .flatten()
                .map(|report| report.total_time)
                .sum::<f64>()
        })
    });
    g.finish();
}

/// `count` blocks of one row: `subtiles` sub-tiles, each loading `load`
/// words, computing an `s1`-wide row and storing `store` words.
fn one_row_class(count: u64, s1: u64, load: u64, store: u64, subtiles: u64) -> BlockClass {
    BlockClass {
        count,
        s1_widths: vec![s1],
        mi_rows: vec![load],
        mo_rows: vec![store],
        axis2: vec![AxisClass {
            count: subtiles,
            widths: vec![1],
        }],
        axis3: BlockClass::unit_axis(1),
    }
}

/// One wave of `k` co-resident blocks on a one-SM device, per iteration
/// for k = 3, 4, 8, 16: a pure wave of 64-chunk blocks, and a two-class
/// mix whose short memory-heavy blocks come first and finish mid-wave.
fn bench_many_block_waves(c: &mut Criterion) {
    let mut device = DeviceConfig::gtx980();
    device.n_sm = 1;
    let kernels: Vec<(SimWorkload, Vec<BlockClass>, usize)> = [3u64, 4, 8, 16]
        .into_iter()
        .flat_map(|k| {
            [
                vec![one_row_class(k, 256, 512, 512, 64)],
                vec![
                    one_row_class(k / 2, 64, 4096, 2048, 16),
                    one_row_class(k - k / 2, 2048, 256, 128, 64),
                ],
            ]
            .map(|classes| {
                let mut wl = SimWorkload::uniform(1, 0, 0, 0, 0, vec![], 128, 32);
                wl.kernels = vec![WavefrontPlan {
                    classes: Arc::new(classes.clone()),
                }];
                (wl, classes, k as usize)
            })
        })
        .collect();
    let mut g = c.benchmark_group("sim_hotpath");
    g.sample_size(10);
    g.bench_function("many_block_waves", |b| {
        b.iter(|| {
            kernels
                .iter()
                .map(|(wl, classes, k)| kernel_time(&device, wl, classes, *k).makespan)
                .sum::<f64>()
        })
    });
    g.finish();
}

fn bench_parallel_executor(c: &mut Criterion) {
    let spec = StencilDescriptor::jacobi2d().spec();
    let size = ProblemSize::new_2d(256, 256, 32);
    let tiles = TileSizes::new_2d(8, 32, 128);
    let grid = init::random(size.space_extents(), 0x42);

    let mut g = c.benchmark_group("parallel_exec");
    g.sample_size(10);
    g.bench_function("jacobi2d_sequential_fast", |b| {
        b.iter(|| {
            let pool = ScratchPool::new();
            let (out, _) =
                run_tiled_with(&spec, &size, tiles, &grid, ExecMode::Fast, &pool).unwrap();
            black_box(out.len())
        })
    });
    // One pool for the whole measurement: after the first iteration every
    // run is allocation-free.
    let pool = ScratchPool::new();
    let mut out = Grid::zeros(size.space_extents());
    g.bench_function("jacobi2d_parallel_pooled", |b| {
        b.iter(|| {
            run_tiled_parallel_into(&spec, &size, tiles, &grid, &pool, &mut out);
            black_box(out.len())
        })
    });
    g.finish();
}

/// Lowering all 85 baseline tiles of two Figure-6 studies to
/// `PlanGeometry`: the per-tile set-up of every strategy evaluation and
/// micro-benchmark. Footprints are per-row interval arithmetic and the
/// full-width inner sub-tiles one counted class, so this stays cheap
/// even with 4096-wide rows and hundreds of wavefronts. Each study is
/// lowered tile by tile (`PlanGeometry::build`) and family by family
/// (one `HexagonRows` per (`t_T`, `t_S1`), then each of its tiles), as
/// strategy evaluation does.
fn bench_plan_geometry(c: &mut Criterion) {
    let tiles = baseline_tiles(
        &DeviceConfig::gtx980(),
        StencilDim::D2,
        &SpaceConfig::default(),
    );
    let mut families: Vec<Vec<TileSizes>> = Vec::new();
    for &t in &tiles {
        match families
            .iter_mut()
            .find(|f| (f[0].t_t, f[0].t_s[0]) == (t.t_t, t.t_s[0]))
        {
            Some(family) => family.push(t),
            None => families.push(vec![t]),
        }
    }
    let mut g = c.benchmark_group("plan_geometry");
    g.sample_size(10);
    for (name, stencil, size) in [
        (
            "heat2d_4096sq_T1024_baseline",
            StencilDescriptor::heat2d(),
            ProblemSize::new_2d(4096, 4096, 1024),
        ),
        (
            "lap4_2d_1024sq_T64_baseline",
            StencilDescriptor::lap4_2d(),
            ProblemSize::new_2d(1024, 1024, 64),
        ),
    ] {
        let spec = stencil.spec();
        g.bench_function(name, |b| {
            b.iter(|| {
                tiles
                    .iter()
                    .map(|&t| PlanGeometry::build(&spec, &size, t).expect("tile lowers"))
                    .map(|geometry| geometry.wavefronts.len())
                    .sum::<usize>()
            })
        });
        g.bench_function(&format!("{name}_by_family"), |b| {
            b.iter(|| {
                families
                    .iter()
                    .map(|family| {
                        let (t_t, t_s1) = (family[0].t_t, family[0].t_s[0]);
                        let rows = HexagonRows::build(&spec, &size, t_t, t_s1).expect("rows build");
                        family
                            .iter()
                            .map(|&t| rows.lower(t).expect("tile lowers").wavefronts.len())
                            .sum::<usize>()
                    })
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_kernel_scheduling,
    bench_many_block_waves,
    bench_parallel_executor,
    bench_plan_geometry
);
criterion_main!(benches);
