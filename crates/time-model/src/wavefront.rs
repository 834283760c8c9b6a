//! The analytical model applied to wavefront-parallel (non-time-tiled)
//! codes.
//!
//! The paper's Section 4.3 closes: "the model is not restricted to HHC
//! style codes. It can be applied to other parallelization strategies.
//! Consider wavefront parallel Jacobi1D … equation 6 holds for wavefront
//! parallel codes." This module instantiates exactly that: per time
//! step, `w` rectangular blocks; per block, a halo'd load, one parallel
//! compute region, and a store; `T_alg = T·(T_tile(k)·⌈⌈w/k⌉/n_SM⌉ +
//! T_sync)`.
//!
//! Comparing `predict` here against the HHC model (and both against the
//! machine) quantifies the benefit of time tiling the paper's
//! introduction takes as motivation.

use crate::common;
use crate::params::ModelParams;
use crate::Prediction;
use hhc_tiling::SpaceBlock;
use stencil_core::ProblemSize;

/// Words moved per block: halo'd input + full output (Eqn 7's role).
pub fn mio_words(block: &SpaceBlock, rank: usize) -> u64 {
    block.halo_words(rank) + block.points()
}

/// `m' = m_io · L + 2 τ_sync` (Eqn 8's role).
pub fn m_prime(p: &ModelParams, block: &SpaceBlock, rank: usize) -> f64 {
    mio_words(block, rank) as f64 * p.l_word() + 2.0 * p.tau_sync()
}

/// Compute time of one block: a single parallel region of
/// `∏ b_d` iterations, `⌈points/n_V⌉ · C_iter + τ_sync`.
pub fn compute_time(p: &ModelParams, block: &SpaceBlock) -> f64 {
    block.points().div_ceil(p.n_v as u64) as f64 * p.citer() + p.tau_sync()
}

/// Blocks per kernel: `∏ ⌈S_d / b_d⌉`.
pub fn blocks_per_kernel(size: &ProblemSize, block: &SpaceBlock) -> u64 {
    (0..size.dim.rank())
        .map(|d| (size.space[d] as u64).div_ceil(block.b[d] as u64))
        .product()
}

/// Full wavefront-parallel prediction (the paper's Eqn 6 with `N_w = T`).
pub fn predict(p: &ModelParams, size: &ProblemSize, block: &SpaceBlock) -> Prediction {
    let rank = size.dim.rank();
    let nw = size.time;
    let w = blocks_per_kernel(size, block);
    let mtile = block.shared_words(rank);
    let k = common::effective_k(p, w, common::hyperthreading(p, mtile));
    let m = m_prime(p, block, rank);
    let c = compute_time(p, block);
    let t_tile = m + c + (k as f64 - 1.0) * m.max(c);
    let talg = nw as f64 * t_tile * common::grid_rounds(p, w, k) as f64 + nw as f64 * p.t_sync();
    Prediction {
        talg,
        k,
        nw,
        w,
        m_prime: m,
        c,
        mtile_words: mtile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MeasuredParams;
    use gpu_sim::DeviceConfig;

    fn p() -> ModelParams {
        ModelParams::from_measured(
            &DeviceConfig::gtx980(),
            &MeasuredParams::paper_gtx980(3.39e-8),
        )
    }

    #[test]
    fn block_grid_counts() {
        let size = ProblemSize::new_2d(100, 64, 8);
        assert_eq!(blocks_per_kernel(&size, &SpaceBlock::new_2d(32, 32)), 4 * 2);
    }

    #[test]
    fn one_kernel_per_time_step() {
        let pr = p();
        let size = ProblemSize::new_2d(1024, 1024, 37);
        let pred = predict(&pr, &size, &SpaceBlock::new_2d(32, 128));
        assert_eq!(pred.nw, 37);
    }

    #[test]
    fn machine_runs_wavefront_parallel_memory_bound() {
        // No temporal reuse: on the machine (whose SMs share the device
        // bandwidth) the naive schedule is memory-bound — the motivation
        // for time tiling. Note the *model* does not see this: it
        // charges each tile's m' at full device bandwidth (its printed
        // per-tile optimism), one of the reasons it is only trusted to
        // rank configurations within one schedule family.
        use gpu_sim::{simulate, SimWorkload};
        use hhc_tiling::{LaunchConfig, WavefrontSchedule};
        let device = DeviceConfig::gtx980();
        let spec = stencil_core::StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(2048, 2048, 32);
        let ws = WavefrontSchedule::build(
            &spec,
            &size,
            SpaceBlock::new_2d(32, 128),
            LaunchConfig::new_2d(1, 128),
        )
        .unwrap();
        let r = simulate(&device, &SimWorkload::from_wavefront(&ws)).unwrap();
        assert!(
            r.memory_bound(),
            "mem {:e} vs comp {:e}",
            r.mem_busy,
            r.comp_busy
        );
    }

    #[test]
    fn machine_prefers_time_tiling_over_wavefront_parallel() {
        // The same problem, both schedules, on the machine: the
        // time-tiled schedule wins comfortably (what the paper's
        // introduction takes as given).
        use gpu_sim::{simulate, SimWorkload};
        use hhc_tiling::{LaunchConfig, TileSizes, TilingPlan, WavefrontSchedule};
        let device = DeviceConfig::gtx980();
        let spec = stencil_core::StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(2048, 2048, 512);
        let ws = WavefrontSchedule::build(
            &spec,
            &size,
            SpaceBlock::new_2d(32, 128),
            LaunchConfig::new_2d(1, 128),
        )
        .unwrap();
        let naive = simulate(&device, &SimWorkload::from_wavefront(&ws))
            .unwrap()
            .total_time;
        let plan = TilingPlan::build(
            &spec,
            &size,
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
