//! One tile's thread-count sweep against per-launch simulation: every
//! report [`simulate_launches`] returns must equal, field by field and bit
//! for bit, the report [`simulate`] gives that launch's plan on its own,
//! and invalid launches must fail in the same positions.

use gpu_sim::{simulate, simulate_launches, DeviceConfig, SimReport, SimWorkload};
use hhc_tiling::{LaunchConfig, PlanGeometry, TileSizes, TilingPlan};
use proptest::prelude::*;
use stencil_core::{Footprint, ProblemSize, StencilDescriptor, StencilDim};

/// Heat2D, Lap4_2D (radius 2), Heat3D, and a radius-2 star that skips
/// the distance-1 neighbours, each with a problem small enough to sweep.
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
        (
            StencilDescriptor::heat2d(),
            ProblemSize::new_2d(512, 512, 32),
        ),
        (
            StencilDescriptor::lap4_2d(),
            ProblemSize::new_2d(512, 384, 30),
        ),
        (
            StencilDescriptor::heat3d(),
            ProblemSize::new_3d(48, 40, 64, 10),
        ),
        (gapped, ProblemSize::new_2d(300, 512, 24)),
    ]
}

/// Every field of a report as raw bits.
fn bits(r: &SimReport) -> Vec<u64> {
    let o = &r.occupancy;
    vec![
        r.total_time.to_bits(),
        r.kernel_launches as u64,
        o.k as u64,
        o.limit as u64,
        u64::from(o.regs_per_thread),
        r.mem_busy.to_bits(),
        r.comp_busy.to_bits(),
        r.launch_overhead.to_bits(),
        r.spill_factor.to_bits(),
        r.divergence_factor.to_bits(),
    ]
}

/// The ten candidate launches of the stencil's rank, with a block of
/// 2048 threads (malformed: over 1024) spliced in after the third.
fn launches(dim: StencilDim) -> Vec<LaunchConfig> {
    let mut all = LaunchConfig::candidates(dim);
    let oversized = match dim {
        StencilDim::D3 => LaunchConfig::new_3d(2, 16, 64),
        _ => LaunchConfig::new_2d(4, 512),
    };
    all.insert(3, oversized);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tile_sweep_matches_per_launch_simulation(
        which in 0usize..4,
        half_t in 1usize..5,
        s1 in 1usize..24,
        s2 in 1usize..24,
        s3 in 1usize..12,
        titan in 0u8..2,
    ) {
        let (stencil, size) = workloads().swap_remove(which);
        let spec = stencil.spec();
        let tiles = match stencil.dim {
            StencilDim::D3 => TileSizes::new_3d(2 * half_t, s1, s2, 16 * s3),
            _ => TileSizes::new_2d(2 * half_t, s1, 16 * s2),
        };
        let device = if titan == 1 {
            DeviceConfig::titan_x()
        } else {
            DeviceConfig::gtx980()
        };
        let geometry = PlanGeometry::build(&spec, &size, tiles).expect("tile lowers");
        let launches = launches(stencil.dim);
        let swept = simulate_launches(&device, &geometry, &launches);
        prop_assert_eq!(swept.len(), launches.len());
        for (report, &launch) in swept.iter().zip(&launches) {
            let alone = TilingPlan::build(&spec, &size, tiles, launch)
                .ok()
                .and_then(|plan| simulate(&device, &SimWorkload::from_plan(&plan)).ok());
            prop_assert_eq!(report.as_ref().map(bits), alone.as_ref().map(bits));
        }
        prop_assert!(swept[3].is_none(), "the oversized launch must fail");
    }
}
