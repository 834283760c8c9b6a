//! The simulator's input IR: a sequence of kernels made of block classes.
//!
//! [`SimWorkload`] is a thin wrapper over the `hhc-tiling` plan structures
//! plus the launch-level metadata the cost model needs. Keeping it
//! separate from [`hhc_tiling::TilingPlan`] lets the `microbench` crate
//! synthesize degenerate workloads (pure-copy kernels, compute-only
//! kernels, empty kernels) with the same machinery the real stencil
//! plans use — mirroring how the paper's micro-benchmarks are real CUDA
//! kernels on the same hardware.

use hhc_tiling::plan::{AxisClass, BlockClass, TilingPlan, WavefrontPlan};
use hhc_tiling::{LaunchConfig, TileSizes};
use std::sync::Arc;
use stencil_core::StencilSpec;

/// A simulatable workload: kernels, launch geometry, and loop-body
/// characteristics.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    /// One entry per kernel launch, in order.
    pub kernels: Vec<WavefrontPlan>,
    /// Threads per block (`∏ n_thr,i`).
    pub threads: usize,
    /// Threads per block along each tile axis (`n_thr,i`); unused axes
    /// are 1. The machine maps thread axes to tile axes, so the shape —
    /// not just the product — determines efficiency.
    pub threads_dims: [usize; 3],
    /// Extent of the innermost (coalesced) thread dimension — determines
    /// warp fill.
    pub inner_threads: usize,
    /// Stencil rank (1–3); drives index-arithmetic overhead.
    pub rank: usize,
    /// Shared-memory words per block (`M_tile`).
    pub mtile_words: u64,
    /// Base register estimate per thread (before unroll pressure).
    pub regs_per_thread: u32,
    /// Arithmetic operations per iteration of the loop body.
    pub flops_per_iter: u64,
    /// Shared-memory operands per iteration (neighbor loads + store).
    pub shared_accesses_per_iter: u64,
    /// Contiguous run length (in words) of global transfers — the tile
    /// extent along the memory-contiguous dimension; short runs are
    /// uncoalesced.
    pub contiguous_run: usize,
}

impl SimWorkload {
    /// Lower a tiling plan to a workload.
    pub fn from_plan(plan: &TilingPlan) -> SimWorkload {
        SimWorkload::lower(
            &plan.spec,
            plan.tiles,
            plan.launch,
            plan.wavefronts.clone(),
            plan.mtile_words,
            plan.regs_per_thread,
        )
    }

    /// The workload of `kernels` under `launch`, with the stencil's loop
    /// body and the tile's footprint.
    pub(crate) fn lower(
        spec: &StencilSpec,
        tiles: TileSizes,
        launch: LaunchConfig,
        kernels: Vec<WavefrontPlan>,
        mtile_words: u64,
        regs_per_thread: u32,
    ) -> SimWorkload {
        let rank = spec.dim.rank();
        let mut wl = SimWorkload {
            kernels,
            threads: 0,
            threads_dims: [1; 3],
            inner_threads: 0,
            rank,
            mtile_words,
            regs_per_thread,
            flops_per_iter: spec.flops_per_point(),
            shared_accesses_per_iter: spec.reads_per_point() as u64 + 1,
            contiguous_run: tiles.t_s[rank - 1],
        };
        wl.set_launch(launch);
        wl
    }

    /// Re-launch the workload with `launch`'s threads; its kernels and
    /// footprint do not depend on the launch.
    pub(crate) fn set_launch(&mut self, launch: LaunchConfig) {
        self.threads = launch.total_threads();
        self.threads_dims = launch.threads;
        self.inner_threads = launch.innermost(self.rank);
    }

    /// Lower a wavefront-parallel (non-time-tiled) schedule to a
    /// workload — the comparator of `hhc_tiling::wavefront`.
    pub fn from_wavefront(ws: &hhc_tiling::WavefrontSchedule) -> SimWorkload {
        let rank = ws.spec.dim.rank();
        SimWorkload {
            kernels: ws.kernels.clone(),
            threads: ws.launch.total_threads(),
            threads_dims: ws.launch.threads,
            inner_threads: ws.launch.innermost(rank),
            rank,
            mtile_words: ws.mtile_words,
            regs_per_thread: hhc_tiling::regs::regs_per_thread(&ws.spec),
            flops_per_iter: ws.spec.flops_per_point(),
            shared_accesses_per_iter: ws.spec.reads_per_point() as u64 + 1,
            contiguous_run: ws.block.b[rank - 1],
        }
    }

    /// Build a synthetic workload from raw kernels (micro-benchmarks).
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic(
        kernels: Vec<Vec<BlockClass>>,
        threads: usize,
        inner_threads: usize,
        rank: usize,
        mtile_words: u64,
        flops_per_iter: u64,
        shared_accesses_per_iter: u64,
        contiguous_run: usize,
    ) -> SimWorkload {
        SimWorkload {
            kernels: kernels
                .into_iter()
                .map(|classes| WavefrontPlan {
                    classes: Arc::new(classes),
                })
                .collect(),
            threads,
            threads_dims: [threads, 1, 1],
            inner_threads,
            rank,
            mtile_words,
            regs_per_thread: 24,
            flops_per_iter,
            shared_accesses_per_iter,
            contiguous_run,
        }
    }

    /// A single-kernel-shape workload of `blocks` identical blocks, each
    /// walking `subtiles` identical sub-tiles of (`load_words`,
    /// `store_words`, per-row extents `[s1, s2, s3]`). The building block
    /// of every micro-benchmark. Threads are laid along the first axis.
    ///
    /// `load_words`/`store_words` are per sub-tile; they are attributed
    /// to the first row, so they are exact when that row's inner extents
    /// are 1 (as in all synthetic workloads).
    #[allow(clippy::too_many_arguments)]
    pub fn uniform(
        n_kernels: usize,
        blocks: u64,
        subtiles: u64,
        load_words: u64,
        store_words: u64,
        rows: Vec<[u64; 3]>,
        threads: usize,
        contiguous_run: usize,
    ) -> SimWorkload {
        let nrows = rows.len().max(1);
        let s1_widths: Vec<u64> = if rows.is_empty() {
            vec![0]
        } else {
            rows.iter().map(|r| r[0]).collect()
        };
        let w2: Vec<u64> = if rows.is_empty() {
            vec![1]
        } else {
            rows.iter().map(|r| r[1]).collect()
        };
        let w3: Vec<u64> = if rows.is_empty() {
            vec![1]
        } else {
            rows.iter().map(|r| r[2]).collect()
        };
        let mut mi_rows = vec![0u64; nrows];
        let mut mo_rows = vec![0u64; nrows];
        mi_rows[0] = load_words;
        mo_rows[0] = store_words;
        let class = BlockClass {
            count: blocks,
            s1_widths,
            mi_rows,
            mo_rows,
            axis2: vec![AxisClass {
                count: subtiles.max(1),
                widths: w2,
            }],
            axis3: vec![AxisClass {
                count: 1,
                widths: w3,
            }],
        };
        let kernels = (0..n_kernels).map(|_| vec![class.clone()]).collect();
        SimWorkload::synthetic(kernels, threads, threads, 1, 256, 1, 2, contiguous_run)
    }

    /// Total iterations across all kernels.
    pub fn total_iterations(&self) -> u64 {
        self.kernels.iter().map(|k| k.iterations()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, DeviceConfig};
    use hhc_tiling::{LaunchConfig, SpaceBlock, TileSizes, WavefrontSchedule};
    use stencil_core::{ProblemSize, StencilDescriptor};

    /// Jacobi2D's wavefront-parallel schedule at 2048² over `time`
    /// steps, 32x128 blocks.
    fn jacobi2d_wavefront(time: usize) -> WavefrontSchedule {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(2048, 2048, time);
        WavefrontSchedule::build(
            &spec,
            &size,
            SpaceBlock::new_2d(32, 128),
            LaunchConfig::new_2d(1, 128),
        )
        .unwrap()
    }

    #[test]
    fn from_plan_extracts_launch_metadata() {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(64, 64, 8);
        let plan = TilingPlan::build(
            &spec,
            &size,
            TileSizes::new_2d(4, 8, 16),
            LaunchConfig::new_2d(2, 32),
        )
        .unwrap();
        let wl = SimWorkload::from_plan(&plan);
        assert_eq!(wl.threads, 64);
        assert_eq!(wl.inner_threads, 32);
        assert_eq!(wl.rank, 2);
        assert_eq!(wl.contiguous_run, 16);
        assert_eq!(wl.threads_dims, [2, 32, 1]);
        assert_eq!(wl.total_iterations(), plan.total_iterations());
        assert_eq!(wl.shared_accesses_per_iter, 6);
    }

    #[test]
    fn uniform_workload_counts() {
        let wl = SimWorkload::uniform(3, 5, 2, 100, 50, vec![[64, 1, 1], [64, 1, 1]], 64, 64);
        assert_eq!(wl.kernels.len(), 3);
        assert_eq!(wl.total_iterations(), 3 * 5 * 2 * 128);
        assert_eq!(wl.threads_dims, [64, 1, 1]);
    }

    #[test]
    fn wavefront_parallel_runs_memory_bound() {
        // No temporal reuse: with the SMs sharing the device bandwidth,
        // the naive schedule is memory-bound — the motivation for time
        // tiling.
        let ws = jacobi2d_wavefront(32);
        let r = simulate(&DeviceConfig::gtx980(), &SimWorkload::from_wavefront(&ws)).unwrap();
        assert!(
            r.memory_bound(),
            "mem {:e} vs comp {:e}",
            r.mem_busy,
            r.comp_busy
        );
    }

    #[test]
    fn time_tiling_beats_wavefront_parallel() {
        // The same problem, both schedules: the time-tiled schedule wins
        // comfortably (what the paper's introduction takes as given).
        let device = DeviceConfig::gtx980();
        let ws = jacobi2d_wavefront(512);
        let naive = simulate(&device, &SimWorkload::from_wavefront(&ws))
            .unwrap()
            .total_time;
        let plan = TilingPlan::build(
            &StencilDescriptor::jacobi2d().spec(),
            &ProblemSize::new_2d(2048, 2048, 512),
            TileSizes::new_2d(8, 8, 128),
            LaunchConfig::new_2d(1, 128),
        )
        .unwrap();
        let hhc = simulate(&device, &SimWorkload::from_plan(&plan))
            .unwrap()
            .total_time;
        assert!(hhc < 0.7 * naive, "hhc {hhc:e} vs naive {naive:e}");
    }
}
