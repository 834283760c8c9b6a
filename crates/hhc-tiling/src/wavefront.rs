//! Wavefront-parallel (classic, non-time-tiled) scheduling — the
//! comparator the time-tiling literature measures against.
//!
//! The paper closes Section 4 by noting its model "is not restricted to
//! HHC style codes … consider wavefront parallel Jacobi1D … equation 6
//! holds for wavefront parallel codes". This module provides that
//! schedule: **one kernel launch per time step**, the space domain cut
//! into rectangular blocks, every block loading its halo'd input from
//! global memory and storing its full output back — no reuse along the
//! time dimension at all. Comparing it against the HHC schedule
//! quantifies what time tiling buys (the motivation of the whole line of
//! work: naive implementations are memory-bound).
//!
//! The schedule is lowered to the same class-based kernels
//! ([`crate::plan::BlockClass`]) the simulator executes, so both
//! schedules run on the same machine (`gpu_sim::SimWorkload::from_wavefront`
//! times it; `experiments --compare-wavefront` reports the comparison).

use crate::plan::{AxisClass, BlockClass, WavefrontPlan};
use crate::LaunchConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use stencil_core::{ProblemSize, StencilSpec};

/// Rectangular space-block extents of the wavefront-parallel schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpaceBlock {
    /// Block extents along each space dimension; unused trailing entries
    /// are 1.
    pub b: [usize; 3],
}

impl SpaceBlock {
    /// A 1D block.
    pub fn new_1d(b1: usize) -> Self {
        SpaceBlock { b: [b1, 1, 1] }
    }

    /// A 2D block.
    pub fn new_2d(b1: usize, b2: usize) -> Self {
        SpaceBlock { b: [b1, b2, 1] }
    }

    /// A 3D block.
    pub fn new_3d(b1: usize, b2: usize, b3: usize) -> Self {
        SpaceBlock { b: [b1, b2, b3] }
    }

    /// Points computed per full block.
    pub fn points(&self) -> u64 {
        self.b.iter().map(|&x| x as u64).product()
    }

    /// Words loaded per full block: the block plus a one-point halo in
    /// every used dimension (first-order stencils).
    pub fn halo_words(&self, rank: usize) -> u64 {
        (0..3)
            .map(|d| if d < rank { self.b[d] as u64 + 2 } else { 1 })
            .product()
    }

    /// Shared-memory words per block: the halo'd input stage plus the
    /// output stage.
    pub fn shared_words(&self, rank: usize) -> u64 {
        self.halo_words(rank) + self.points()
    }
}

/// A complete wavefront-parallel schedule: `T` identical kernels.
#[derive(Debug, Clone)]
pub struct WavefrontSchedule {
    /// The stencil.
    pub spec: StencilSpec,
    /// Problem extents.
    pub size: ProblemSize,
    /// Space-block extents.
    pub block: SpaceBlock,
    /// Threads per block.
    pub launch: LaunchConfig,
    /// One entry per kernel launch (time step); all share their classes.
    pub kernels: Vec<WavefrontPlan>,
    /// Shared-memory words per block.
    pub mtile_words: u64,
}

impl WavefrontSchedule {
    /// Build the schedule. Fails on malformed extents.
    pub fn build(
        spec: &StencilSpec,
        size: &ProblemSize,
        block: SpaceBlock,
        launch: LaunchConfig,
    ) -> Result<WavefrontSchedule, String> {
        launch.validate(spec.dim)?;
        if size.dim != spec.dim {
            return Err("problem/stencil dimensionality mismatch".into());
        }
        let rank = spec.dim.rank();
        for d in 0..rank {
            if block.b[d] == 0 {
                return Err(format!("block extent {d} must be positive"));
            }
        }
        for d in rank..3 {
            if block.b[d] != 1 {
                return Err(format!("block extent {d} must be 1 for a {rank}D stencil"));
            }
        }

        // Per dimension: full blocks plus an optional remainder block.
        let splits: Vec<Vec<usize>> = (0..3)
            .map(|d| {
                let (s, b) = (size.space[d], block.b[d]);
                let mut v = vec![b; s / b];
                if s % b != 0 {
                    v.push(s % b);
                }
                v
            })
            .collect();

        // Group blocks into classes by their (e1, e2, e3) extents: one
        // interior class plus up to 7 boundary classes.
        let mut classes: Vec<(u64, [usize; 3])> = Vec::new();
        for &e1 in dedup(&splits[0]).iter() {
            for &e2 in dedup(&splits[1]).iter() {
                for &e3 in dedup(&splits[2]).iter() {
                    let count = count_of(&splits[0], e1)
                        * count_of(&splits[1], e2)
                        * count_of(&splits[2], e3);
                    classes.push((count, [e1, e2, e3]));
                }
            }
        }

        let block_classes: Vec<BlockClass> = classes
            .into_iter()
            .map(|(count, e)| Self::block_class(spec, count, e))
            .collect();
        let shared = Arc::new(block_classes);
        let kernels = (0..size.time)
            .map(|_| WavefrontPlan {
                classes: shared.clone(),
            })
            .collect();
        Ok(WavefrontSchedule {
            spec: spec.clone(),
            size: *size,
            block,
            launch,
            kernels,
            mtile_words: block.shared_words(rank),
        })
    }

    /// One block class: a single compute row of the block's extents plus
    /// a zero-width carrier row holding the exact memory footprints
    /// (loads = halo'd input, stores = the block's points).
    fn block_class(spec: &StencilSpec, count: u64, e: [usize; 3]) -> BlockClass {
        let rank = spec.dim.rank();
        let sb = SpaceBlock { b: e };
        let loads = sb.halo_words(rank);
        let stores = sb.points();
        BlockClass {
            count,
            s1_widths: vec![e[0] as u64, 0],
            mi_rows: vec![0, loads],
            mo_rows: vec![0, stores],
            axis2: vec![AxisClass {
                count: 1,
                widths: vec![e[1] as u64, 1],
            }],
            axis3: vec![AxisClass {
                count: 1,
                widths: vec![e[2] as u64, 1],
            }],
        }
    }

    /// Blocks launched per kernel (time step).
    pub fn blocks_per_kernel(&self) -> u64 {
        self.kernels.first().map_or(0, |k| k.block_count())
    }

    /// Total iterations over the whole schedule — `T · ∏ S_i`.
    pub fn total_iterations(&self) -> u64 {
        self.kernels.iter().map(|k| k.iterations()).sum()
    }
}

fn dedup(v: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    for &x in v {
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

fn count_of(v: &[usize], x: usize) -> u64 {
    v.iter().filter(|&&y| y == x).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::StencilDescriptor;

    #[test]
    fn iteration_count_is_exact() {
        let spec = StencilDescriptor::jacobi2d().spec();
        for (s1, s2, t, b1, b2) in [
            (64usize, 64usize, 8usize, 16usize, 16usize),
            (33, 47, 5, 8, 32),
            (10, 10, 3, 16, 16),
        ] {
            let size = ProblemSize::new_2d(s1, s2, t);
            let ws = WavefrontSchedule::build(
                &spec,
                &size,
                SpaceBlock::new_2d(b1, b2),
                LaunchConfig::new_2d(1, 32),
            )
            .unwrap();
            assert_eq!(ws.total_iterations(), size.iter_points(), "{s1}x{s2}xT{t}");
            assert_eq!(ws.kernels.len(), t);
        }
    }

    #[test]
    fn block_count_matches_grid() {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(100, 64, 4);
        let ws = WavefrontSchedule::build(
            &spec,
            &size,
            SpaceBlock::new_2d(32, 32),
            LaunchConfig::new_2d(1, 32),
        )
        .unwrap();
        // ceil(100/32)·ceil(64/32) = 4·2.
        assert_eq!(ws.blocks_per_kernel(), 8);
    }

    #[test]
    fn memory_traffic_has_no_temporal_reuse() {
        // Every time step reloads its halo'd input and stores the full
        // output: total words ≈ T · (S + halo + S).
        let spec = StencilDescriptor::jacobi1d().spec();
        let size = ProblemSize::new_1d(1024, 10);
        let ws = WavefrontSchedule::build(
            &spec,
            &size,
            SpaceBlock::new_1d(128),
            LaunchConfig::new_1d(128),
        )
        .unwrap();
        let words: u64 = ws
            .kernels
            .iter()
            .map(|k| {
                k.classes
                    .iter()
                    .map(|c| c.count * c.words_per_block())
                    .sum::<u64>()
            })
            .sum();
        let per_step = (1024 / 128) * (128 + 2) + 1024; // loads + stores
        assert_eq!(words, 10 * per_step);
    }

    #[test]
    fn halo_and_shared_words() {
        let b = SpaceBlock::new_2d(16, 32);
        assert_eq!(b.points(), 512);
        assert_eq!(b.halo_words(2), 18 * 34);
        assert_eq!(b.shared_words(2), 18 * 34 + 512);
    }

    #[test]
    fn rejects_bad_extents() {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(64, 64, 4);
        assert!(WavefrontSchedule::build(
            &spec,
            &size,
            SpaceBlock::new_2d(0, 32),
            LaunchConfig::new_2d(1, 32)
        )
        .is_err());
        assert!(WavefrontSchedule::build(
            &spec,
            &size,
            SpaceBlock { b: [16, 16, 4] },
            LaunchConfig::new_2d(1, 32)
        )
        .is_err());
    }
}
