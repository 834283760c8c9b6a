//! One hexagon family's rows against per-tile lowering.
//!
//! [`HexagonRows`] holds what (stencil, size, `t_T`, `t_S1`) determine;
//! [`HexagonRows::lower`] adds a tile's inner-axis classes. Lowering
//! several tiles of one family from one `HexagonRows`, in any order and
//! more than once, must give each tile exactly the [`PlanGeometry`]
//! that [`PlanGeometry::build`] gives it alone: every field, every block
//! class, and the same pattern of wavefronts sharing one class vector.

use hhc_tiling::{HexagonRows, PlanGeometry, TileSizes};
use proptest::prelude::*;
use std::sync::Arc;
use stencil_core::{Footprint, ProblemSize, StencilDescriptor, StencilDim};

/// Jacobi1D, Heat2D, Lap4_2D (radius 2), Heat3D and a gapped radius-2
/// star, each with a problem small enough to lower many tiles of.
fn workloads() -> Vec<(StencilDescriptor, ProblemSize)> {
    let gapped = StencilDescriptor::new(
        "gapped2d",
        StencilDim::D2,
        2,
        Footprint::Custom(vec![
            [0, 0, 0],
            [-2, 0, 0],
            [2, 0, 0],
            [0, -2, 0],
            [0, 2, 0],
        ]),
        vec![0.2; 5],
        0.0,
        0,
    )
    .expect("the gapped stencil validates");
    vec![
        (StencilDescriptor::jacobi1d(), ProblemSize::new_1d(300, 37)),
        (
            StencilDescriptor::heat2d(),
            ProblemSize::new_2d(200, 170, 29),
        ),
        (
            StencilDescriptor::lap4_2d(),
            ProblemSize::new_2d(96, 130, 20),
        ),
        (
            StencilDescriptor::heat3d(),
            ProblemSize::new_3d(40, 33, 52, 11),
        ),
        (gapped, ProblemSize::new_2d(120, 77, 16)),
    ]
}

/// Each wavefront's index of the first wavefront sharing its class
/// vector: two geometries share vectors alike exactly when these agree.
fn sharing(g: &PlanGeometry) -> Vec<usize> {
    g.wavefronts
        .iter()
        .map(|w| {
            g.wavefronts
                .iter()
                .position(|v| Arc::ptr_eq(&v.classes, &w.classes))
                .expect("a wavefront shares with itself")
        })
        .collect()
}

/// Field-by-field equality of two geometries, class vectors by value and
/// their sharing by pattern.
fn assert_same(got: &PlanGeometry, want: &PlanGeometry) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.spec, &want.spec);
    prop_assert_eq!(got.size, want.size);
    prop_assert_eq!(got.tiles, want.tiles);
    prop_assert_eq!(got.hex, want.hex);
    prop_assert_eq!(got.mtile_words, want.mtile_words);
    prop_assert_eq!(got.regs_per_thread, want.regs_per_thread);
    prop_assert_eq!(got.wavefronts.len(), want.wavefronts.len());
    for (g, w) in got.wavefronts.iter().zip(&want.wavefronts) {
        prop_assert_eq!(g.classes.as_slice(), w.classes.as_slice());
    }
    prop_assert_eq!(sharing(got), sharing(want));
    Ok(())
}

/// SplitMix64: the shuffle's generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn family_rows_lower_every_tile_as_a_lone_build(
        which in 0usize..5,
        half_t in 1usize..6,
        s1 in 1usize..20,
        inner in prop::collection::vec((1usize..40, 1usize..24), 2..6),
        seed in any::<u64>(),
    ) {
        let (stencil, size) = workloads().swap_remove(which);
        let (spec, dim) = (stencil.spec(), stencil.dim);
        let family = HexagonRows::build(&spec, &size, 2 * half_t, s1).expect("family builds");
        let mut tiles: Vec<TileSizes> = inner
            .iter()
            .map(|&(s2, s3)| {
                let coords = [2 * half_t, s1, s2, s3];
                TileSizes::from_coords(dim, &coords[..=dim.rank()]).expect("one extent per axis")
            })
            .collect();
        // Lower in a shuffled order, then every tile once more.
        let mut state = seed;
        for i in (1..tiles.len()).rev() {
            tiles.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
        }
        for &t in tiles.iter().chain(&tiles) {
            let got = family.lower(t).expect("tile lowers from its family");
            let want = PlanGeometry::build(&spec, &size, t).expect("tile lowers alone");
            assert_same(&got, &want)?;
        }
    }
}

/// A tile of another family, or one malformed on an inner axis, does not
/// lower; `PlanGeometry::build` reports its errors in the order it did
/// before it was split in two.
#[test]
fn foreign_and_malformed_tiles_are_rejected() {
    let spec = StencilDescriptor::heat2d().spec();
    let size = ProblemSize::new_2d(64, 64, 16);
    let family = HexagonRows::build(&spec, &size, 4, 8).expect("family builds");
    let foreign = TileSizes::new_2d(6, 8, 32);
    assert!(family.lower(foreign).is_err());
    let flat = TileSizes::new_2d(4, 8, 0);
    assert_eq!(
        family.lower(flat).unwrap_err(),
        PlanGeometry::build(&spec, &size, flat).unwrap_err()
    );
    // The tile is checked before the problem, and the problem's rank
    // before its time steps.
    let mismatched = ProblemSize::new_1d(64, 0);
    assert_eq!(
        PlanGeometry::build(&spec, &mismatched, TileSizes::new_2d(3, 8, 32)).unwrap_err(),
        "t_t must be even (HHC requirement), got 3"
    );
    assert_eq!(
        PlanGeometry::build(&spec, &mismatched, TileSizes::new_2d(4, 8, 32)).unwrap_err(),
        "problem is 1D but stencil is 2D"
    );
    assert_eq!(
        PlanGeometry::build(&spec, &ProblemSize::new_2d(64, 64, 0), foreign).unwrap_err(),
        "problem must have at least one time step"
    );
    assert!(HexagonRows::build(&spec, &size, 3, 8).is_err());
    assert!(HexagonRows::build(&spec, &size, 4, 0).is_err());
}
