//! `--bench-exec`: wall-clock benchmark of the tiled executor's fast path
//! (rolling-window storage + specialized row kernels) against the
//! full-storage generic baseline, plus the memoized vs cold strategy
//! evaluation pipeline.
//!
//! Writes `BENCH_exec.json` at the repository root. Every timed
//! configuration is also checked for bit-identical results across paths,
//! so a reported speedup can never come from computing something else.

use crate::context::{ExperimentScale, Lab};
use gpu_sim::{kernel_time, kernel_time_dealing, occupancy, DeviceConfig, SimWorkload};
use hhc_tiling::plan::{BlockClass, WavefrontPlan};
use hhc_tiling::{
    rolling_window_depth, run_tiled_with, ExecMode, LaunchConfig, ScratchPool, TileSizes,
    TilingPlan,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use stencil_core::{init, ProblemSize, StencilDescriptor};
use tile_opt::strategy::{baseline_points, evaluate_points, StrategyContext};
use tile_opt::SpaceConfig;
use time_model::roofline;

/// One executor comparison row: baseline vs scalar fast path vs the SIMD
/// fast path on one workload, plus the roofline self-model's verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecBenchRow {
    pub benchmark: String,
    pub size: String,
    pub tiles: TileSizes,
    /// Seconds, best of `reps`, full-storage generic path
    /// ([`ExecMode::Baseline`] — the seed implementation).
    pub baseline_s: f64,
    /// Seconds, best of `reps`, rolling-window + scalar row kernels
    /// ([`ExecMode::FastScalar`] — the pre-SIMD fast path).
    pub fast_scalar_s: f64,
    /// Seconds, best of `reps`, rolling-window + vectorized row kernels
    /// ([`ExecMode::Fast`]).
    pub fast_s: f64,
    /// `baseline_s / fast_s`.
    pub speedup: f64,
    /// `fast_scalar_s / fast_s` — what vectorization alone bought.
    pub simd_speedup: f64,
    /// Physical planes the baseline held resident (`T + 1`).
    pub baseline_resident_planes: usize,
    /// Physical planes the fast path held resident (`min(t_t+1, T+1)`).
    pub fast_resident_planes: usize,
    /// Fraction of points the fast path computed with the row kernel.
    pub kernel_point_fraction: f64,
    /// Kernel rows wide enough to engage the blocked SIMD sweep.
    pub simd_rows: u64,
    /// All three paths produced bit-identical grids (always asserted).
    pub bit_identical: bool,
    /// Roofline-predicted achievable throughput (points/sec) for this
    /// stencil on this machine (`min(compute, memory)` ceiling).
    pub roofline_pps_pred: f64,
    /// Measured fast-path throughput: total points / `fast_s`.
    pub measured_pps: f64,
    /// `measured_pps / roofline_pps_pred` — the CI-gated ratio.
    pub roofline_ratio: f64,
    /// Which ceiling bound the prediction (`"compute"` / `"memory"`).
    pub roofline_bound: String,
}

/// One multi-core comparison row: sequential fast path vs the pooled
/// wavefront-parallel executor (`--parallel-exec`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelBenchRow {
    pub benchmark: String,
    pub size: String,
    pub tiles: TileSizes,
    /// Rayon worker threads used for the parallel runs.
    pub threads: usize,
    /// Seconds, best of `reps`, sequential [`ExecMode::Fast`] path.
    pub seq_fast_s: f64,
    /// Seconds, best of `reps`, pooled [`ExecMode::Auto`] executor (warm
    /// pool after the first rep).
    pub parallel_s: f64,
    /// `seq_fast_s / parallel_s`.
    pub speedup: f64,
    /// Parallel result equals the sequential fast path bit for bit
    /// (always asserted).
    pub bit_identical: bool,
    /// The executor's dispatch policy fell back to the sequential fast
    /// path (single-thread pool, or batching could not pay) — when true,
    /// `speedup` measures pooled-sequential overhead, not parallelism.
    pub fallback: bool,
    /// Work batches handed to the thread pool during the best-timed run.
    pub batch_dispatches: u64,
    /// Pool checkouts during the best-timed run (warm pool).
    pub scratch_acquires: u64,
    /// Checkouts served from the pool without allocating.
    pub scratch_reuses: u64,
    /// Pool checkouts during the first (cold-pool) run.
    pub cold_acquires: u64,
    /// Cold-run checkouts served from the pool — buffers recycled within
    /// one run, since nothing was pooled beforehand.
    pub cold_reuses: u64,
}

/// The simulator's closed-form kernel schedule vs the tracer's
/// block-by-block replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimBenchRow {
    pub benchmark: String,
    pub size: String,
    /// Blocks in the timed kernel launch.
    pub blocks: u64,
    /// Seconds per `kernel_time` call, closed-form steady-state schedule.
    pub steady_s: f64,
    /// Seconds per `kernel_time_dealing` call: the tracer's O(total-blocks)
    /// replay, which deals every block and schedules every wave uncached.
    pub dealing_s: f64,
    /// `dealing_s / steady_s`.
    pub speedup: f64,
}

/// Memoized vs cold strategy-evaluation timing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoBenchRow {
    pub points: usize,
    /// Seconds for the first (cold-cache) evaluation.
    pub cold_s: f64,
    /// Seconds re-evaluating the same set against the warm cache.
    pub warm_s: f64,
    /// `cold_s / warm_s`.
    pub speedup: f64,
    pub cache_hits: u64,
}

/// The roofline self-model's calibration and overall verdict for the
/// report (per-row predictions live on the exec rows).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RooflineSummary {
    /// Measured stream bandwidth (GB/s, read + write counted).
    pub stream_bw_gbs: f64,
    /// Streaming traffic lower bound charged per point (bytes).
    pub bytes_per_point: f64,
    /// The CI tolerance band on `measured / predicted`.
    pub ratio_band: (f64, f64),
    /// Every exec row's ratio sits inside the band — the CI gate
    /// (`--check-roofline`).
    pub all_within_band: bool,
}

/// The full `--bench-exec` report, serialized to `BENCH_exec.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecBenchReport {
    pub scale: String,
    pub threads: usize,
    /// Hardware threads the OS exposes. When this is 1, the parallel
    /// rows fall back to the sequential fast path (`fallback: true`)
    /// unless the pool was forced wider with `--threads`.
    pub hardware_threads: usize,
    /// Detected SIMD capability the row kernels dispatch to.
    pub simd: String,
    pub exec: Vec<ExecBenchRow>,
    /// Parallel-executor rows; empty unless `--parallel-exec` was given.
    pub parallel: Vec<ParallelBenchRow>,
    /// Simulator scheduling rows (always produced).
    pub sim: Vec<SimBenchRow>,
    pub memo: MemoBenchRow,
    /// Roofline self-model calibration + verdict over the exec rows.
    pub roofline: RooflineSummary,
}

/// Best-of-`reps` timing; returns the *best-timed* repetition's result,
/// so reported stats describe the same run as the reported seconds.
fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
            out = Some(r);
        }
    }
    (best, out.expect("reps >= 1"))
}

fn bench_one(
    stencil: StencilDescriptor,
    size: ProblemSize,
    tiles: TileSizes,
    reps: usize,
    cal: &roofline::RooflineCalibration,
) -> ExecBenchRow {
    let spec = stencil.spec();
    let grid = init::random(size.space_extents(), 0x42);
    // A fresh pool per rep: every timed run allocates its planes.
    let run = |mode| {
        time_best_of(reps, || {
            run_tiled_with(&spec, &size, tiles, &grid, mode, &ScratchPool::new()).expect("runs")
        })
    };
    let (baseline_s, (base_grid, base_stats)) = run(ExecMode::Baseline);
    let (fast_scalar_s, (scalar_grid, _)) = run(ExecMode::FastScalar);
    let (fast_s, (fast_grid, fast_stats)) = run(ExecMode::Fast);
    let identical =
        base_grid.max_abs_diff(&fast_grid) == 0.0 && scalar_grid.max_abs_diff(&fast_grid) == 0.0;
    assert!(
        identical,
        "{}: fast paths diverged from baseline",
        stencil.name
    );
    assert_eq!(
        fast_stats.resident_planes,
        rolling_window_depth(tiles, &size)
    );
    let total = (fast_stats.kernel_points + fast_stats.generic_points) as f64;
    let pred = roofline::predict(cal, roofline::measure_compute_ceiling(&spec));
    let measured_pps = total / fast_s;
    ExecBenchRow {
        benchmark: stencil.name.to_string(),
        size: size.label(),
        tiles,
        baseline_s,
        fast_scalar_s,
        fast_s,
        speedup: baseline_s / fast_s,
        simd_speedup: fast_scalar_s / fast_s,
        baseline_resident_planes: base_stats.resident_planes,
        fast_resident_planes: fast_stats.resident_planes,
        kernel_point_fraction: fast_stats.kernel_points as f64 / total,
        simd_rows: fast_stats.simd_rows,
        bit_identical: identical,
        roofline_pps_pred: pred.pps,
        measured_pps,
        roofline_ratio: measured_pps / pred.pps,
        roofline_bound: pred.bound.to_string(),
    }
}

fn bench_parallel_one(
    stencil: StencilDescriptor,
    size: ProblemSize,
    tiles: TileSizes,
    reps: usize,
) -> ParallelBenchRow {
    let spec = stencil.spec();
    let grid = init::random(size.space_extents(), 0x42);
    let (seq_fast_s, (fast_grid, _)) = time_best_of(reps, || {
        run_tiled_with(
            &spec,
            &size,
            tiles,
            &grid,
            ExecMode::Fast,
            &ScratchPool::new(),
        )
        .expect("fast run")
    });
    // One pool shared across reps: an untimed first run warms it (and is
    // the source of the cold-pool stats), then every timed rep runs
    // allocation-free — the steady state `run_candidates` sees. A warm
    // rep's acquires == reuses is expected, not a bug.
    let pool = ScratchPool::new();
    let auto = || run_tiled_with(&spec, &size, tiles, &grid, ExecMode::Auto, &pool).expect("runs");
    let (_, cold) = auto();
    let (parallel_s, (par_grid, par_stats)) = time_best_of(reps, auto);
    let identical = fast_grid.max_abs_diff(&par_grid) == 0.0;
    assert!(
        identical,
        "{}: parallel executor diverged from sequential fast path",
        stencil.name
    );
    ParallelBenchRow {
        benchmark: stencil.name.to_string(),
        size: size.label(),
        tiles,
        threads: rayon::current_num_threads(),
        seq_fast_s,
        parallel_s,
        speedup: seq_fast_s / parallel_s,
        bit_identical: identical,
        fallback: par_stats.seq_fallback,
        batch_dispatches: par_stats.batch_dispatches,
        scratch_acquires: par_stats.scratch_acquires,
        scratch_reuses: par_stats.scratch_reuses,
        cold_acquires: cold.scratch_acquires,
        cold_reuses: cold.scratch_reuses,
    }
}

/// Time one (workload, classes, k) launch under both schedulers after
/// asserting they agree exactly.
fn sim_row(
    benchmark: &str,
    size_label: String,
    device: &DeviceConfig,
    wl: &SimWorkload,
    classes: &[BlockClass],
    k: usize,
) -> SimBenchRow {
    let steady = kernel_time(device, wl, classes, k);
    let dealing = kernel_time_dealing(device, wl, classes, k);
    assert_eq!(
        steady, dealing,
        "steady-state schedule diverged from the tracer's replay"
    );
    assert_eq!(steady.makespan.to_bits(), dealing.makespan.to_bits());
    let time_per_call = |iters: usize, f: &dyn Fn()| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64() / iters as f64
    };
    let steady_s = time_per_call(100, &|| {
        std::hint::black_box(kernel_time(device, wl, classes, k));
    });
    let dealing_s = time_per_call(10, &|| {
        std::hint::black_box(kernel_time_dealing(device, wl, classes, k));
    });
    SimBenchRow {
        benchmark: benchmark.to_string(),
        size: size_label,
        blocks: steady.blocks,
        steady_s,
        dealing_s,
        speedup: dealing_s / steady_s,
    }
}

/// Simulator scheduling rows: the widest kernel launch of a real 2D
/// Jacobi plan (wavefront widths are modest — O(S1 / t_s1) hexagons — so
/// both schedulers are cheap there), plus a wide synthetic launch where
/// the O(classes) steady-state schedule separates from the tracer's
/// O(total-blocks) replay.
fn bench_sim(lab: &Lab) -> Vec<SimBenchRow> {
    let device = DeviceConfig::gtx980();
    let stencil = StencilDescriptor::jacobi2d();
    let spec = stencil.spec();
    // The tile shape must fit in shared memory for the launch to be
    // schedulable at all.
    let tiles = TileSizes::new_2d(8, 32, 128);
    let size = match lab.scale {
        ExperimentScale::Paper => ProblemSize::new_2d(2048, 2048, 128),
        ExperimentScale::Reduced => ProblemSize::new_2d(1024, 1024, 64),
        ExperimentScale::Smoke => ProblemSize::new_2d(256, 256, 32),
    };
    let plan = TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_2d(4, 32))
        .expect("sim bench plan");
    let wl = SimWorkload::from_plan(&plan);
    let k = occupancy(&device, &wl).expect("sim bench occupancy").k;
    let classes = wl
        .kernels
        .iter()
        .max_by_key(|kern| kern.block_count())
        .expect("plan has kernels")
        .classes
        .clone();
    let mut rows = vec![sim_row(
        &stencil.name,
        size.label(),
        &device,
        &wl,
        &classes,
        k,
    )];

    // Synthetic wide launch: three block classes, almost all blocks in
    // the interior class — the shape `kernel_time` sees from huge grids.
    let blocks: u64 = match lab.scale {
        ExperimentScale::Paper => 200_000,
        ExperimentScale::Reduced => 50_000,
        ExperimentScale::Smoke => 5_000,
    };
    let wide_class = |count: u64, width: u64| BlockClass {
        count,
        s1_widths: vec![width; 2],
        mi_rows: vec![256; 2],
        mo_rows: vec![128; 2],
        axis2: BlockClass::unit_axis(2),
        axis3: BlockClass::unit_axis(2),
    };
    let wide = vec![
        wide_class(blocks - blocks / 10, 64),
        wide_class(blocks / 20, 48),
        wide_class(blocks / 10 - blocks / 20, 32),
    ];
    let mut wide_wl = SimWorkload::uniform(1, 0, 0, 0, 0, vec![], 128, 32);
    wide_wl.kernels = vec![WavefrontPlan {
        classes: Arc::new(wide.clone()),
    }];
    rows.push(sim_row(
        "Synthetic",
        format!("{blocks} blocks"),
        &device,
        &wide_wl,
        &wide,
        8,
    ));
    rows
}

/// The executor workloads per scale. The 2D Jacobi row is the headline
/// comparison; the 3D row exercises the strided-row kernel path.
fn workloads(scale: ExperimentScale) -> Vec<(StencilDescriptor, ProblemSize, TileSizes, usize)> {
    match scale {
        ExperimentScale::Paper => vec![
            (
                StencilDescriptor::jacobi2d(),
                ProblemSize::new_2d(2048, 2048, 128),
                TileSizes::new_2d(8, 32, 256),
                3,
            ),
            (
                StencilDescriptor::heat3d(),
                ProblemSize::new_3d(128, 128, 128, 64),
                TileSizes::new_3d(8, 8, 8, 64),
                3,
            ),
        ],
        ExperimentScale::Reduced => vec![
            (
                StencilDescriptor::jacobi2d(),
                ProblemSize::new_2d(1024, 1024, 64),
                TileSizes::new_2d(8, 32, 256),
                3,
            ),
            (
                StencilDescriptor::heat3d(),
                ProblemSize::new_3d(128, 128, 128, 24),
                TileSizes::new_3d(8, 16, 16, 128),
                3,
            ),
        ],
        ExperimentScale::Smoke => vec![(
            StencilDescriptor::jacobi2d(),
            ProblemSize::new_2d(256, 256, 32),
            TileSizes::new_2d(8, 32, 128),
            2,
        )],
    }
}

/// Time cold vs memoized evaluation of the 850-point baseline set.
fn bench_memo(lab: &Lab) -> MemoBenchRow {
    let device = &lab.devices[0];
    let stencil = StencilDescriptor::jacobi2d();
    let size = ProblemSize::new_2d(1024, 1024, 256);
    let params = lab.model_params(device, &stencil);
    let space = SpaceConfig::default();
    let workload = gpu_sim::Workload::new(device.clone(), stencil, size)
        .expect("benchmark and size dimensionalities agree");
    let ctx = StrategyContext::new(&workload, &params, &space);
    let points = baseline_points(device, workload.dim(), &space);
    let t0 = Instant::now();
    let cold = evaluate_points(&ctx, &points);
    let cold_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let warm = evaluate_points(&ctx, &points);
    let warm_s = t1.elapsed().as_secs_f64();
    assert_eq!(cold, warm, "memoized evaluation changed results");
    MemoBenchRow {
        points: points.len(),
        cold_s,
        warm_s,
        speedup: cold_s / warm_s,
        cache_hits: ctx.cache.hits(),
    }
}

/// Run the full executor benchmark and return the report.
///
/// `parallel_exec` additionally times the pooled wavefront-parallel
/// executor against the sequential fast path (`--parallel-exec`).
pub fn bench_exec(lab: &Lab, parallel_exec: bool) -> ExecBenchReport {
    let cal = roofline::measure_stream_bandwidth();
    println!(
        "  roofline: stream bandwidth {:.1} GB/s, {} bytes/point charged",
        cal.stream_bw_bytes_per_sec / 1e9,
        roofline::BYTES_PER_POINT
    );
    let mut exec = Vec::new();
    for (stencil, size, tiles, reps) in workloads(lab.scale) {
        let row = bench_one(stencil, size, tiles, reps, &cal);
        println!(
            "  {:10} {:16} baseline {:8.3}s  scalar {:8.3}s  simd {:8.3}s  speedup {:5.2}x (simd {:4.2}x)  kernel {:.1}%  roofline {:.2} ({})",
            row.benchmark,
            row.size,
            row.baseline_s,
            row.fast_scalar_s,
            row.fast_s,
            row.speedup,
            row.simd_speedup,
            100.0 * row.kernel_point_fraction,
            row.roofline_ratio,
            row.roofline_bound
        );
        exec.push(row);
    }
    let mut parallel = Vec::new();
    if parallel_exec {
        for (stencil, size, tiles, reps) in workloads(lab.scale) {
            let row = bench_parallel_one(stencil, size, tiles, reps);
            println!(
                "  {:10} {:16} seq-fast {:8.3}s  parallel {:8.3}s ({} threads{})  speedup {:5.2}x  batches {}  pool {}/{} warm, {}/{} cold",
                row.benchmark,
                row.size,
                row.seq_fast_s,
                row.parallel_s,
                row.threads,
                if row.fallback { ", fallback" } else { "" },
                row.speedup,
                row.batch_dispatches,
                row.scratch_reuses,
                row.scratch_acquires,
                row.cold_reuses,
                row.cold_acquires
            );
            parallel.push(row);
        }
    }
    let sim = bench_sim(lab);
    for row in &sim {
        println!(
            "  simulator  {:16} {:7} blocks  steady {:.3e}s  dealing {:.3e}s  speedup {:5.1}x",
            row.size, row.blocks, row.steady_s, row.dealing_s, row.speedup
        );
    }
    let memo = bench_memo(lab);
    println!(
        "  strategy eval ({} points): cold {:.3}s  memoized {:.4}s  speedup {:.0}x  hits {}",
        memo.points, memo.cold_s, memo.warm_s, memo.speedup, memo.cache_hits
    );
    let all_within_band = exec.iter().all(|r| roofline::within_band(r.roofline_ratio));
    ExecBenchReport {
        scale: lab.scale.label().to_string(),
        threads: rayon::current_num_threads(),
        hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd: stencil_core::simd::caps().describe(),
        exec,
        parallel,
        sim,
        memo,
        roofline: RooflineSummary {
            stream_bw_gbs: cal.stream_bw_bytes_per_sec / 1e9,
            bytes_per_point: roofline::BYTES_PER_POINT,
            ratio_band: roofline::ratio_band(),
            all_within_band,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_rows_are_consistent() {
        let lab = Lab::new(ExperimentScale::Smoke);
        let report = bench_exec(&lab, true);
        assert_eq!(report.scale, "smoke");
        assert!(report.simd.contains(" x"), "{}", report.simd);
        assert!(report.roofline.stream_bw_gbs > 0.0);
        assert!(!report.exec.is_empty());
        for row in &report.exec {
            assert!(row.bit_identical);
            assert!(row.fast_resident_planes <= row.baseline_resident_planes);
            assert!(row.kernel_point_fraction > 0.5, "{row:?}");
            // The roofline ratio must be a sane positive number even in
            // debug builds; the band itself is only gated in release
            // benchmarks (`--check-roofline`).
            assert!(
                row.roofline_ratio.is_finite() && row.roofline_ratio > 0.0,
                "{row:?}"
            );
            assert!(row.roofline_pps_pred > 0.0 && row.measured_pps > 0.0);
        }
        assert!(!report.parallel.is_empty());
        for row in &report.parallel {
            assert!(row.bit_identical);
            // The best-timed rep runs against the warm pool.
            assert!(row.scratch_reuses > 0, "{row:?}");
            assert!(row.scratch_acquires >= row.scratch_reuses);
            // The cold rep cannot have reused every checkout: the ring
            // planes' first `depth` checkouts find an empty pool.
            assert!(row.cold_acquires > row.cold_reuses, "{row:?}");
            if row.fallback {
                assert_eq!(row.batch_dispatches, 0, "{row:?}");
            } else {
                assert!(row.batch_dispatches > 0, "{row:?}");
            }
        }
        assert!(!report.sim.is_empty());
        for row in &report.sim {
            assert!(row.blocks > 0);
            assert!(row.steady_s > 0.0 && row.dealing_s > 0.0);
        }
        assert_eq!(report.memo.cache_hits as usize, report.memo.points);
    }
}
