//! Register-pressure estimation — the stand-in for nvcc's allocator.
//!
//! The paper explicitly *cannot* model register usage: "this information
//! is only available after the generated code is compiled" (Section 6.1)
//! and register spills "slow down the generated code" in ways the
//! analytical model ignores. To reproduce that structural gap, this
//! module provides a deterministic per-thread register estimate used by
//! the **simulator** (which charges a spill penalty when a launch
//! over-subscribes the register file) but deliberately *not* by the
//! `time-model` crate.
//!
//! The estimate follows the shape of real nvcc allocations for unrolled
//! stencil bodies: a fixed base for addressing/loop state, one register
//! per live neighbor load, extra registers for the additional loop-body
//! arithmetic, and per-dimension index state.

use stencil_core::StencilSpec;

/// Baseline registers for addressing, loop counters, and predicates.
const BASE_REGS: u32 = 14;

/// Hard architectural cap per thread (CUDA compute capability 5.x).
pub const MAX_REGS_PER_THREAD: u32 = 255;

/// Deterministic estimate of registers per thread for the generated tile
/// body of `spec`.
pub fn regs_per_thread(spec: &StencilSpec) -> u32 {
    let neighbors = spec.neighbors.len() as u32;
    let body = spec.extra_flops.div_ceil(2);
    let dims = spec.dim.rank() as u32;
    (BASE_REGS + 2 * neighbors + body + 3 * (dims - 1)).min(MAX_REGS_PER_THREAD)
}

/// Registers consumed by a whole thread block (the paper's `R_tile`).
pub fn regs_per_block(spec: &StencilSpec, threads: usize) -> u64 {
    regs_per_thread(spec) as u64 * threads as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::StencilDescriptor;

    #[test]
    fn estimates_are_deterministic_and_ordered() {
        let j = regs_per_thread(&StencilDescriptor::jacobi2d().spec());
        let g = regs_per_thread(&StencilDescriptor::gradient2d().spec());
        let h3 = regs_per_thread(&StencilDescriptor::heat3d().spec());
        // Bigger bodies / more dimensions need more registers.
        assert!(g > j, "gradient {g} <= jacobi {j}");
        assert!(h3 > j, "heat3d {h3} <= jacobi2d {j}");
        // Deterministic.
        assert_eq!(j, regs_per_thread(&StencilDescriptor::jacobi2d().spec()));
    }

    #[test]
    fn block_usage_scales_with_threads() {
        let spec = StencilDescriptor::jacobi2d().spec();
        assert_eq!(
            regs_per_block(&spec, 128),
            128 * regs_per_thread(&spec) as u64
        );
    }

    #[test]
    fn capped_at_architecture_limit() {
        for stencil in StencilDescriptor::named() {
            assert!(regs_per_thread(&stencil.spec()) <= MAX_REGS_PER_THREAD);
        }
    }
}
