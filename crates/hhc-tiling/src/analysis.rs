//! Plan analysis: the aggregate quantities behind the paper's reasoning.
//!
//! Time tiling trades redundant global-memory traffic for shared-memory
//! residency; the quality of a tile-size choice is visible in a handful
//! of aggregates — arithmetic intensity, temporal reuse, boundary-work
//! share, occupancy headroom. This module computes them exactly from a
//! [`TilingPlan`]'s class structure, for inspection, examples, and the
//! documentation-style assertions in the test suites.

use crate::plan::TilingPlan;
use serde::{Deserialize, Serialize};

/// Aggregate statistics of one tiling plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Kernel launches (`N_w`).
    pub kernels: usize,
    /// Total thread blocks across all kernels.
    pub total_blocks: u64,
    /// Largest wavefront (blocks in one kernel).
    pub max_blocks_per_kernel: u64,
    /// Total iterations (equals `T·∏S_i`).
    pub iterations: u64,
    /// Total global-memory words moved (loads + stores).
    pub words: u64,
    /// Iterations per word moved — the temporal-reuse factor time tiling
    /// buys. The naive schedule's value is < 0.5 (two transfers per
    /// point); HHC reaches `Θ(t_T)`.
    pub iterations_per_word: f64,
    /// Floating-point operations per byte of global traffic (classic
    /// arithmetic intensity).
    pub flops_per_byte: f64,
    /// Fraction of iterations executed by boundary (non-interior) block
    /// classes — the steady-state share the paper's model ignores.
    pub boundary_iteration_share: f64,
    /// Shared-memory words per block (`M_tile`).
    pub mtile_words: u64,
}

/// Compute the aggregate statistics of a plan.
pub fn analyze(plan: &TilingPlan) -> PlanStats {
    let iterations = plan.total_iterations();
    let words = plan.total_words();
    let flops = plan.spec.flops_per_point() * iterations;

    let mut total_blocks = 0u64;
    let mut boundary_iters = 0u64;
    for wf in &plan.wavefronts {
        total_blocks += wf.block_count();
        // The interior class is the most-populous one; everything else
        // in the wavefront is boundary work. Wavefronts whose classes
        // are all count-1 (fully clipped first/last rows) count wholly
        // as boundary.
        let interior = wf.classes.iter().map(|c| c.count).max().unwrap_or(0);
        for c in wf.classes.iter() {
            if c.count != interior || interior == 1 {
                boundary_iters += c.count * c.iterations_per_block();
            }
        }
    }

    PlanStats {
        kernels: plan.kernel_count(),
        total_blocks,
        max_blocks_per_kernel: plan.max_blocks_per_wavefront(),
        iterations,
        words,
        iterations_per_word: iterations as f64 / words.max(1) as f64,
        flops_per_byte: flops as f64 / (4 * words.max(1)) as f64,
        boundary_iteration_share: boundary_iters as f64 / iterations.max(1) as f64,
        mtile_words: plan.mtile_words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaunchConfig, TileSizes};
    use stencil_core::{ProblemSize, StencilDescriptor};

    fn plan(tiles: TileSizes, s: usize, t: usize) -> TilingPlan {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(s, s, t);
        TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_2d(1, 32)).unwrap()
    }

    #[test]
    fn reuse_grows_with_time_tile() {
        // Eqn 13: words per sub-tile ∝ (t_S1 + 2 t_T); iterations ∝
        // hexagon area ∝ t_T(t_S1 + t_T/2): reuse ≈ Θ(t_T).
        let small = analyze(&plan(TileSizes::new_2d(4, 8, 64), 1024, 256));
        let big = analyze(&plan(TileSizes::new_2d(16, 8, 64), 1024, 256));
        assert!(
            big.iterations_per_word > 2.0 * small.iterations_per_word,
            "t_T 16: {} vs t_T 4: {}",
            big.iterations_per_word,
            small.iterations_per_word
        );
    }

    #[test]
    fn boundary_share_shrinks_with_domain() {
        let tiles = TileSizes::new_2d(8, 8, 32);
        let small = analyze(&plan(tiles, 128, 64));
        let big = analyze(&plan(tiles, 1024, 64));
        assert!(big.boundary_iteration_share < small.boundary_iteration_share);
        assert!(
            big.boundary_iteration_share < 0.2,
            "{}",
            big.boundary_iteration_share
        );
    }

    #[test]
    fn iterations_and_blocks_consistent() {
        let p = plan(TileSizes::new_2d(8, 16, 32), 512, 64);
        let st = analyze(&p);
        assert_eq!(st.iterations, 512 * 512 * 64);
        assert_eq!(st.kernels, p.kernel_count());
        assert!(st.total_blocks >= st.max_blocks_per_kernel);
        assert!(st.flops_per_byte > 0.0);
    }

    #[test]
    fn hhc_reuse_beats_naive_two_transfers() {
        // The naive schedule moves ~2 words per iteration
        // (iterations_per_word < 0.5 by construction); any reasonable
        // HHC tile is far above 1.
        let st = analyze(&plan(TileSizes::new_2d(16, 8, 128), 2048, 512));
        assert!(st.iterations_per_word > 2.5, "{}", st.iterations_per_word);
    }
}
