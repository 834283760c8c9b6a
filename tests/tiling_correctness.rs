//! Cross-crate property tests: the hybrid hexagonal/classical schedule
//! computes exactly what the reference executor computes, for random
//! stencils, problem sizes, and tile sizes — with every dependence
//! checked during execution.

use hhc_stencil::core::{reference, Grid, ProblemSize, StencilDescriptor, StencilDim};
use hhc_stencil::tiling::{exec, TileSizes};
use proptest::prelude::*;

fn random_grid(sizes: [usize; 3], seed: u64) -> Grid {
    let mut state = seed | 1;
    Grid::from_fn(sizes, |_, _, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiled_equals_reference_1d(
        s in 3usize..80,
        t in 1usize..24,
        t_t in 1usize..8,
        t_s in 1usize..24,
        seed in any::<u64>(),
    ) {
        let spec = StencilDescriptor::jacobi1d().spec();
        let size = ProblemSize::new_1d(s, t);
        let tiles = TileSizes::new_1d(2 * t_t, t_s);
        let init = random_grid(size.space_extents(), seed);
        let expect = reference::run(&spec, &size, &init);
        let got = exec::run_tiled_checked(&spec, &size, tiles, &init);
        prop_assert_eq!(expect.max_abs_diff(&got), 0.0);
    }

    #[test]
    fn tiled_equals_reference_2d(
        s1 in 3usize..40,
        s2 in 3usize..40,
        t in 1usize..16,
        t_t in 1usize..6,
        t_s1 in 1usize..12,
        t_s2 in 1usize..16,
        stencil_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let spec = StencilDescriptor::paper(StencilDim::D2)[stencil_idx].spec();
        let size = ProblemSize::new_2d(s1, s2, t);
        let tiles = TileSizes::new_2d(2 * t_t, t_s1, t_s2);
        let init = random_grid(size.space_extents(), seed);
        let expect = reference::run(&spec, &size, &init);
        let got = exec::run_tiled_checked(&spec, &size, tiles, &init);
        prop_assert_eq!(expect.max_abs_diff(&got), 0.0);
    }

    #[test]
    fn tiled_equals_reference_3d(
        s in 3usize..14,
        t in 1usize..10,
        t_t in 1usize..4,
        t_s1 in 1usize..6,
        t_s2 in 1usize..6,
        t_s3 in 1usize..8,
        stencil_idx in 0usize..2,
        seed in any::<u64>(),
    ) {
        let spec = StencilDescriptor::paper(StencilDim::D3)[stencil_idx].spec();
        let size = ProblemSize::new_3d(s, s + 1, s + 2, t);
        let tiles = TileSizes::new_3d(2 * t_t, t_s1, t_s2, t_s3);
        let init = random_grid(size.space_extents(), seed);
        let expect = reference::run(&spec, &size, &init);
        let got = exec::run_tiled_checked(&spec, &size, tiles, &init);
        prop_assert_eq!(expect.max_abs_diff(&got), 0.0);
    }

    #[test]
    fn plan_iteration_count_is_exact(
        s1 in 3usize..64,
        s2 in 3usize..64,
        t in 1usize..24,
        t_t in 1usize..8,
        t_s1 in 1usize..16,
        t_s2 in 1usize..32,
    ) {
        use hhc_stencil::tiling::{LaunchConfig, TileSizes};
        use hhc_tiling::TilingPlan;
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(s1, s2, t);
        let tiles = TileSizes::new_2d(2 * t_t, t_s1, t_s2);
        let plan = TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_2d(1, 32))
            .expect("valid plan");
        prop_assert_eq!(plan.total_iterations(), size.iter_points());
        // N_w within the paper's ε of Eqn 3.
        let paper_nw = 2 * t.div_ceil(2 * t_t);
        let got = plan.kernel_count();
        prop_assert!(got == paper_nw || got == paper_nw + 1);
    }
}
