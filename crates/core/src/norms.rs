//! Grid norms and physical diagnostics.
//!
//! Averaging stencils conserve or monotonically dissipate simple
//! functionals: total mass (unit-weight-sum stencils with matching
//! boundary), the L2 energy (dissipated by diffusion), and the maximum
//! principle (the range of values never grows). The test suites use
//! these as physics-level checks on top of the bit-exact executor
//! comparisons.

use crate::grid::Grid;

/// Sum of all cells (the conserved "mass" of a diffusion step away from
/// boundaries).
pub fn mass(g: &Grid) -> f32 {
    g.as_slice().iter().sum()
}

/// L1 norm: `Σ |x|`.
pub fn l1(g: &Grid) -> f32 {
    g.as_slice().iter().map(|v| v.abs()).sum()
}

/// L2 norm: `sqrt(Σ x²)` — the "energy" diffusion dissipates.
pub fn l2(g: &Grid) -> f32 {
    g.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// L∞ norm: `max |x|`.
pub fn linf(g: &Grid) -> f32 {
    g.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()))
}

/// The (min, max) value range — the maximum principle says an averaging
/// stencil keeps it inside the initial range (given a boundary value in
/// range).
pub fn range(g: &Grid) -> (f32, f32) {
    g.as_slice()
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemSize;
    use crate::StencilDescriptor;
    use crate::{init, reference};

    #[test]
    fn norms_on_a_known_grid() {
        let mut g = Grid::zeros([2, 2, 1]);
        g.set([0, 0, 0], 3.0);
        g.set([1, 1, 0], -4.0);
        assert_eq!(mass(&g), -1.0);
        assert_eq!(l1(&g), 7.0);
        assert_eq!(l2(&g), 5.0);
        assert_eq!(linf(&g), 4.0);
        assert_eq!(range(&g), (-4.0, 3.0));
    }

    #[test]
    fn diffusion_dissipates_energy_and_respects_max_principle() {
        let spec = StencilDescriptor::heat2d().spec();
        let size = ProblemSize::new_2d(32, 32, 8);
        let init = init::gaussian_bump(size.space_extents(), 3.0);
        let (lo0, hi0) = range(&init);
        let out = reference::run(&spec, &size, &init);
        assert!(l2(&out) < l2(&init), "diffusion must dissipate L2");
        let (lo, hi) = range(&out);
        assert!(
            lo >= lo0.min(0.0) - 1e-6 && hi <= hi0 + 1e-6,
            "max principle violated"
        );
    }

    #[test]
    fn checkerboard_damps_fastest() {
        // The highest-frequency mode decays faster than a smooth bump
        // under Jacobi averaging.
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(32, 32, 4);
        let rough = init::checkerboard(size.space_extents());
        let smooth = init::gaussian_bump(size.space_extents(), 8.0);
        let r = l2(&reference::run(&spec, &size, &rough)) / l2(&rough);
        let s = l2(&reference::run(&spec, &size, &smooth)) / l2(&smooth);
        assert!(r < 0.2 * s, "rough decay {r} should crush smooth decay {s}");
    }
}
