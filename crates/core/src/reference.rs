//! Reference (sequential, untiled) stencil executor.
//!
//! This is the ground truth every tiled executor must match exactly: it
//! applies the stencil time step by time step with double buffering, with
//! the same per-point arithmetic ([`StencilSpec::apply`]) and boundary
//! handling ([`Grid::read`]) used everywhere else in the workspace.

use crate::grid::Grid;
use crate::problem::ProblemSize;
use crate::stencil::StencilSpec;

/// Run `size.time` steps of `spec` starting from `init`, returning the
/// final state.
///
/// Panics if `init`'s shape does not match `size`.
pub fn run(spec: &StencilSpec, size: &ProblemSize, init: &Grid) -> Grid {
    let mut cur = init.clone();
    let mut next = init.clone();
    for _ in 0..size.time {
        step(spec, &cur, &mut next);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Apply one time step of `spec`, reading `src` and writing every
/// in-domain point of `dst`.
pub fn step(spec: &StencilSpec, src: &Grid, dst: &mut Grid) {
    let [n1, n2, n3] = src.sizes();
    assert_eq!(src.sizes(), dst.sizes(), "source/destination shapes differ");
    for s1 in 0..n1 {
        for s2 in 0..n2 {
            for s3 in 0..n3 {
                let v = spec.apply(|off| {
                    src.read([s1 as i64 + off[0], s2 as i64 + off[1], s3 as i64 + off[2]])
                });
                dst.set([s1, s2, s3], v);
            }
        }
    }
}

/// Total floating-point operations performed by a full run — the
/// numerator of the GFLOPS/s figures (paper Figure 6).
pub fn total_flops(spec: &StencilSpec, size: &ProblemSize) -> u64 {
    spec.flops_per_point() * size.iter_points()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StencilDescriptor;

    #[test]
    fn constant_field_is_fixed_point_of_averaging_stencils() {
        // With boundary == field value, averaging stencils keep a constant
        // field constant.
        for stencil in [
            StencilDescriptor::jacobi1d(),
            StencilDescriptor::jacobi2d(),
            StencilDescriptor::heat3d(),
        ] {
            let spec = stencil.spec();
            let size = match spec.dim.rank() {
                1 => ProblemSize::new_1d(16, 4),
                2 => ProblemSize::new_2d(8, 8, 4),
                _ => ProblemSize::new_3d(6, 6, 6, 3),
            };
            let mut init = Grid::filled(size.space_extents(), 2.0);
            init.set_boundary(2.0);
            let out = run(&spec, &size, &init);
            assert!(
                out.max_abs_diff(&Grid::filled(size.space_extents(), 2.0)) < 1e-5,
                "{stencil}"
            );
        }
    }

    #[test]
    fn zero_steps_is_identity() {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(5, 7, 0);
        let init = Grid::from_fn(size.space_extents(), |a, b, _| (a + 2 * b) as f32);
        let out = run(&spec, &size, &init);
        assert_eq!(out, init);
    }

    #[test]
    fn jacobi1d_single_step_by_hand() {
        // Field [3, 6, 9] with zero boundary:
        //   out[0] = (0 + 3 + 6)/3 = 3
        //   out[1] = (3 + 6 + 9)/3 = 6
        //   out[2] = (6 + 9 + 0)/3 = 5
        let spec = StencilDescriptor::jacobi1d().spec();
        let size = ProblemSize::new_1d(3, 1);
        let mut init = Grid::zeros(size.space_extents());
        init.set([0, 0, 0], 3.0);
        init.set([1, 0, 0], 6.0);
        init.set([2, 0, 0], 9.0);
        let out = run(&spec, &size, &init);
        assert!((out.get([0, 0, 0]) - 3.0).abs() < 1e-6);
        assert!((out.get([1, 0, 0]) - 6.0).abs() < 1e-6);
        assert!((out.get([2, 0, 0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn heat_diffuses_peak_monotonically() {
        let spec = StencilDescriptor::heat2d().spec();
        let size = ProblemSize::new_2d(9, 9, 1);
        let mut init = Grid::zeros(size.space_extents());
        init.set([4, 4, 0], 1.0);
        let out = run(&spec, &size, &init);
        // Peak shrinks, neighbors gain.
        assert!(out.get([4, 4, 0]) < 1.0);
        assert!(out.get([4, 5, 0]) > 0.0);
        // Mass is conserved in the interior (unit weight sum, zero boundary
        // influence at distance ≥ 2 from the peak after one step).
        let mass: f32 = out.as_slice().iter().sum();
        assert!((mass - 1.0).abs() < 1e-5, "mass = {mass}");
    }

    #[test]
    fn total_flops_scales_with_domain() {
        let spec = StencilDescriptor::jacobi2d().spec();
        let a = total_flops(&spec, &ProblemSize::new_2d(8, 8, 2));
        let b = total_flops(&spec, &ProblemSize::new_2d(8, 8, 4));
        assert_eq!(2 * a, b);
    }

    #[test]
    #[should_panic(expected = "source/destination shapes differ")]
    fn step_panics_on_shape_mismatch() {
        let spec = StencilDescriptor::jacobi1d().spec();
        let src = Grid::zeros([4, 1, 1]);
        let mut dst = Grid::zeros([5, 1, 1]);
        step(&spec, &src, &mut dst);
    }
}
