//! Executable tiling plans: the output of the "HHC compiler" substrate.
//!
//! A [`TilingPlan`] lowers (stencil, problem size, tile sizes, launch
//! config) to the structure the GPU executes:
//!
//! * one **kernel launch per wavefront** (`N_w` of them, paper Eqn 3);
//! * one **thread block per hexagonal tile** of the wavefront (`w(i)`
//!   blocks, Eqn 5);
//! * within a block, a **sequential walk over skewed sub-tiles** along
//!   the inner space dimensions (`⌈(S2+t_T)/t_S2⌉ · ⌈(S3+t_T)/t_S3⌉`
//!   of them, Eqns 16/23), each consisting of a global→shared load, a
//!   bottom-to-top row-parallel compute, and a shared→global store.
//!
//! Because virtually all tiles of a wavefront are geometrically
//! identical (only the few touching the domain boundary differ), the
//! plan stores **classes** with multiplicities instead of materializing
//! millions of tiles. Within a block, the sub-tile grid along the inner
//! axes is likewise stored as **per-axis run-length classes**
//! ([`AxisClass`]) rather than their cross product — every per-sub-tile
//! quantity the simulator needs (iterations, footprints, thread rounds)
//! is *separable* across axes, so totals factor into per-axis sums and
//! a 3D block with thousands of sub-tiles stays O(axis classes) in
//! memory. All counts are exact — `total_iterations()` equals
//! `T·S1·S2·S3` (property-tested) — so the simulator sees precisely the
//! work and the memory traffic of the real schedule, including the
//! ragged partial tiles the paper's steady-state model ignores.

use crate::config::{LaunchConfig, TileSizes};
use crate::hex::{HexTiling, Phase, TileId};
use crate::inner::SkewedAxis;
use crate::regs;
use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;
use std::sync::Arc;
use stencil_core::{ProblemSize, StencilDim, StencilSpec};

/// A run of identical sub-tile positions along one inner axis: `count`
/// sub-tiles whose in-domain width at hexagon row `r` is `widths[r]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AxisClass {
    /// Number of consecutive sub-tile positions with this width profile.
    pub count: u64,
    /// In-domain width per hexagon row (aligned with the block's rows).
    pub widths: Vec<u64>,
}

/// A group of identical thread blocks (hexagonal tiles) of a wavefront.
///
/// Per-sub-tile quantities are reconstructed separably: a sub-tile at
/// axis positions `(c2, c3)` covers, at hexagon row `r`,
/// `s1_widths[r] · c2.widths[r] · c3.widths[r]` iterations, loads
/// `mi_rows[r] · c2.widths[r] · c3.widths[r]` words, etc.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockClass {
    /// How many blocks of this shape the wavefront launches.
    pub count: u64,
    /// `s1` width of each clipped hexagon row (bottom to top).
    pub s1_widths: Vec<u64>,
    /// Per-row outside-producer count on the `(t, s1)` plane (global
    /// loads per unit of inner cross-section).
    pub mi_rows: Vec<u64>,
    /// Per-row output-point count (global stores per unit of inner
    /// cross-section).
    pub mo_rows: Vec<u64>,
    /// Sub-tile classes along `s2` (a single `count 1 / widths all 1`
    /// class for 1D stencils).
    pub axis2: Vec<AxisClass>,
    /// Sub-tile classes along `s3` (unit class below 3D).
    pub axis3: Vec<AxisClass>,
}

impl BlockClass {
    /// Number of hexagon rows of this block.
    #[inline]
    pub fn row_count(&self) -> usize {
        self.s1_widths.len()
    }

    /// Sub-tiles walked by one block of this class.
    pub fn subtiles_per_block(&self) -> u64 {
        let n2: u64 = self.axis2.iter().map(|c| c.count).sum();
        let n3: u64 = self.axis3.iter().map(|c| c.count).sum();
        n2 * n3
    }

    /// Count-weighted width sum of an axis at row `r`:
    /// `Σ_classes count · widths[r]`.
    #[inline]
    pub fn axis_sum(axis: &[AxisClass], r: usize) -> u64 {
        axis.iter().map(|c| c.count * c.widths[r]).sum()
    }

    /// Iterations executed by one block of this class.
    pub fn iterations_per_block(&self) -> u64 {
        (0..self.row_count())
            .map(|r| {
                self.s1_widths[r] * Self::axis_sum(&self.axis2, r) * Self::axis_sum(&self.axis3, r)
            })
            .sum()
    }

    /// Words loaded from global memory by one block (all sub-tiles).
    pub fn load_words_per_block(&self) -> u64 {
        (0..self.row_count())
            .map(|r| {
                self.mi_rows[r] * Self::axis_sum(&self.axis2, r) * Self::axis_sum(&self.axis3, r)
            })
            .sum()
    }

    /// Words stored to global memory by one block (all sub-tiles).
    pub fn store_words_per_block(&self) -> u64 {
        (0..self.row_count())
            .map(|r| {
                self.mo_rows[r] * Self::axis_sum(&self.axis2, r) * Self::axis_sum(&self.axis3, r)
            })
            .sum()
    }

    /// Total global-memory words moved by one block (loads + stores).
    pub fn words_per_block(&self) -> u64 {
        self.load_words_per_block() + self.store_words_per_block()
    }

    /// The interior (most frequent, widest) class of an axis — the
    /// steady-state sub-tile width profile.
    pub fn interior_axis(axis: &[AxisClass]) -> Option<&AxisClass> {
        axis.iter()
            .max_by_key(|c| (c.count, c.widths.iter().sum::<u64>()))
    }

    /// Loads of one steady-state interior sub-tile — the exact
    /// counterpart of the paper's `m_i` (Eqns 7/13/24).
    pub fn interior_subtile_load_words(&self) -> u64 {
        let w2 = Self::interior_axis(&self.axis2);
        let w3 = Self::interior_axis(&self.axis3);
        (0..self.row_count())
            .map(|r| {
                self.mi_rows[r] * w2.map_or(1, |c| c.widths[r]) * w3.map_or(1, |c| c.widths[r])
            })
            .sum()
    }

    /// Stores of one steady-state interior sub-tile (`m_o`).
    pub fn interior_subtile_store_words(&self) -> u64 {
        let w2 = Self::interior_axis(&self.axis2);
        let w3 = Self::interior_axis(&self.axis3);
        (0..self.row_count())
            .map(|r| {
                self.mo_rows[r] * w2.map_or(1, |c| c.widths[r]) * w3.map_or(1, |c| c.widths[r])
            })
            .sum()
    }

    /// A unit axis (one sub-tile of width 1 at every row) for unused
    /// dimensions.
    pub fn unit_axis(rows: usize) -> Vec<AxisClass> {
        vec![AxisClass {
            count: 1,
            widths: vec![1; rows],
        }]
    }
}

/// One wavefront = one kernel launch.
#[derive(Debug, Clone)]
pub struct WavefrontPlan {
    /// Block classes with multiplicities; shared between wavefronts with
    /// the same phase and the same surviving hexagon rows. Their `(t, s1)`
    /// profiles are identical, but the inner-axis classes are those of the
    /// first such wavefront (see [`PlanGeometry::build`]).
    pub classes: Arc<Vec<BlockClass>>,
}

impl WavefrontPlan {
    /// Number of thread blocks launched — the paper's wavefront width
    /// `w(i)`.
    pub fn block_count(&self) -> u64 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Iterations executed by the whole wavefront.
    pub fn iterations(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.count * c.iterations_per_block())
            .sum()
    }
}

/// The launch-independent part of a [`TilingPlan`]: everything the
/// (stencil, size, tile) triple determines. Building it walks the hexagon
/// geometry once; the simulator (`gpu_sim::simulate_launches`) then pairs
/// it with any number of launch configurations, sharing the wavefront
/// class vectors by `Arc`. Tile-size searches build one [`HexagonRows`]
/// per hexagon family, lower one geometry per distinct tile from it, and
/// sweep the tile's thread counts from that.
#[derive(Debug, Clone)]
pub struct PlanGeometry {
    /// The stencil being executed.
    pub spec: StencilSpec,
    /// Problem extents.
    pub size: ProblemSize,
    /// Tile-size parameters.
    pub tiles: TileSizes,
    /// The outer-dimension hexagonal tiling.
    pub hex: HexTiling,
    /// One entry per kernel launch, in execution order.
    pub wavefronts: Vec<WavefrontPlan>,
    /// Shared-memory words of a block's tile buffer (see
    /// [`TilingPlan::mtile_words`]).
    pub mtile_words: u64,
    /// Estimated registers per thread (stand-in for nvcc's allocation).
    pub regs_per_thread: u32,
}

impl PlanGeometry {
    /// Lower (stencil, size, tiles) to block classes per wavefront: the
    /// tile's [`HexagonRows`], then [`HexagonRows::lower`].
    ///
    /// Wavefronts are keyed by `(surviving hexagon rows, phase)` and each
    /// key is lowered once. The `(t, s1)` rows and footprints only depend
    /// on that key, so every wavefront sharing it has them exactly. The
    /// inner-axis classes do not: [`SkewedAxis`] cut positions depend on
    /// absolute `t`, so a later wavefront reuses the first one's sub-tile
    /// classes. This approximation moves footprints and thread rounds,
    /// not iteration counts: each row's widths still sum to the extent.
    ///
    /// Fails (with a human-readable message) if the tile sizes are
    /// malformed for the stencil's dimensionality or the problem does not
    /// match the stencil.
    pub fn build(
        spec: &StencilSpec,
        size: &ProblemSize,
        tiles: TileSizes,
    ) -> Result<PlanGeometry, String> {
        // The whole tile first: the order the errors report in.
        tiles.validate(spec.dim)?;
        HexagonRows::build(spec, size, tiles.t_t, tiles.t_s[0])?.lower(tiles)
    }

    fn into_plan(self, launch: LaunchConfig) -> TilingPlan {
        TilingPlan {
            spec: self.spec,
            size: self.size,
            tiles: self.tiles,
            launch,
            hex: self.hex,
            wavefronts: self.wavefronts,
            mtile_words: self.mtile_words,
            regs_per_thread: self.regs_per_thread,
        }
    }
}

/// The hexagon part of a tile's lowering: everything (stencil, size,
/// `t_T`, `t_S1`) determine, shared by the tiles of that *hexagon
/// family* whatever their inner extents `t_S2`, `t_S3`.
///
/// It holds each wavefront's `(surviving rows, phase)` key and, per
/// distinct key, the block classes' `(t, s1)` rows with their footprints
/// and first time row, lowered from the key's first wavefront.
/// [`Self::lower`] adds a tile's inner-axis classes; a tile search builds
/// one `HexagonRows` per family and lowers each of its tiles from it.
#[derive(Debug, Clone)]
pub struct HexagonRows {
    spec: StencilSpec,
    size: ProblemSize,
    hex: HexTiling,
    /// Each wavefront's index into `keys`, in launch order.
    wavefront_key: Vec<u32>,
    /// Each distinct key's block classes, without their inner axes.
    keys: Vec<Vec<ClassRows>>,
    regs_per_thread: u32,
}

/// A [`BlockClass`] without its inner-axis classes, and the absolute time
/// of its first row, which places its inner sub-tile cuts.
#[derive(Debug, Clone)]
struct ClassRows {
    count: u64,
    s1_widths: Vec<u64>,
    mi_rows: Vec<u64>,
    mo_rows: Vec<u64>,
    t_lo: i64,
}

impl HexagonRows {
    /// Lower the `(t, s1)` plane of (stencil, size) under hexagons of
    /// height `t_t` and base `t_s1`.
    ///
    /// Fails (with a human-readable message) if `t_t` or `t_s1` is
    /// malformed or the problem does not match the stencil.
    pub fn build(
        spec: &StencilSpec,
        size: &ProblemSize,
        t_t: usize,
        t_s1: usize,
    ) -> Result<HexagonRows, String> {
        TileSizes::new_1d(t_t, t_s1).validate(StencilDim::D1)?;
        if size.dim != spec.dim {
            return Err(format!(
                "problem is {}D but stencil is {}D",
                size.dim.rank(),
                spec.dim.rank()
            ));
        }
        if size.time == 0 {
            return Err("problem must have at least one time step".into());
        }
        // Higher-order stencils (radius r) tile with hexagon slopes of
        // ±r — "the slopes of the hexagons change by constant factors"
        // (paper Section 7) — and the inner skew steepens to match.
        let slope = usize::try_from(spec.order().max(1)).map_err(|_| "bad stencil order")?;
        let hex = HexTiling::with_slope(t_s1, t_t, slope);
        let mut axis0: Vec<i64> = spec.neighbors.iter().map(|n| n.offset[0]).collect();
        axis0.sort_unstable();
        axis0.dedup();
        let builder = PlanBuilder {
            hex,
            axis0,
            s1: size.space[0],
            time: size.time,
        };

        // A plan has a handful of keys: the time-clipped first and last
        // wavefronts and the full ones of each phase.
        let nw = hex.wavefront_count(size.time);
        let mut seen: Vec<(usize, usize, Phase)> = Vec::new();
        let mut keys = Vec::new();
        let mut wavefront_key = Vec::with_capacity(nw);
        for w in 0..nw {
            let (phase, q) = hex.wavefront_phase(w);
            let rows = hex.time_rows(phase, q, size.time);
            let key = (rows.start, rows.end, phase);
            let index = seen.iter().position(|&k| k == key).unwrap_or_else(|| {
                seen.push(key);
                keys.push(builder.wavefront_rows(w));
                keys.len() - 1
            });
            wavefront_key.push(index as u32);
        }
        Ok(HexagonRows {
            spec: spec.clone(),
            size: *size,
            hex,
            wavefront_key,
            keys,
            regs_per_thread: regs::regs_per_thread(spec),
        })
    }

    /// Add `tiles`' inner-axis classes: the tile's [`PlanGeometry`],
    /// equal field by field to [`PlanGeometry::build`]'s, with one class
    /// vector per key shared by `Arc` among its wavefronts.
    ///
    /// Fails if `tiles` is malformed for the stencil or not of this
    /// family.
    pub fn lower(&self, tiles: TileSizes) -> Result<PlanGeometry, String> {
        tiles.validate(self.spec.dim)?;
        if (tiles.t_t, tiles.t_s[0]) != (self.hex.t_t, self.hex.t_s) {
            return Err(format!(
                "tile (t_t {}, t_s1 {}) is not of the hexagon family (t_t {}, t_s1 {})",
                tiles.t_t, tiles.t_s[0], self.hex.t_t, self.hex.t_s
            ));
        }
        let (hex, slope, rank) = (self.hex, self.hex.slope, self.spec.dim.rank());
        let axis = |d: usize| {
            (rank > d).then(|| SkewedAxis::with_slope(tiles.t_s[d], self.size.space[d], slope))
        };
        let (axis2, axis3) = (axis(1), axis(2));
        let vectors: Vec<Arc<Vec<BlockClass>>> = self
            .keys
            .iter()
            .map(|rows| Arc::new(rows.iter().map(|c| c.with_axes(axis2, axis3)).collect()))
            .collect();
        if obs::active() {
            obs::counter(
                "plan.block_classes",
                vectors.iter().map(|c| c.len() as u64).sum(),
            );
        }
        let wavefronts = self
            .wavefront_key
            .iter()
            .map(|&k| WavefrontPlan {
                classes: Arc::clone(&vectors[k as usize]),
            })
            .collect();

        // Shared-memory footprint: a double buffer of (widest row + halo)
        // scaled by the skewed inner extents (paper Eqn 19 and its 3D
        // analogue). Halos and skews widen by the slope; at slope 1 these
        // are exactly the paper's `2(t_S1 + t_T + 1)` and `(t_S + t_T + 1)`
        // factors.
        let mut mtile = 2 * (hex.max_row_width() as u64 + 2 * slope as u64);
        for d in 1..rank {
            mtile *= (tiles.t_s[d] + slope * tiles.t_t + slope) as u64;
        }

        Ok(PlanGeometry {
            spec: self.spec.clone(),
            size: self.size,
            tiles,
            hex,
            wavefronts,
            mtile_words: mtile,
            regs_per_thread: self.regs_per_thread,
        })
    }
}

impl ClassRows {
    /// The block class of these rows with inner-axis classes along
    /// `axis2` and `axis3`.
    fn with_axes(&self, axis2: Option<SkewedAxis>, axis3: Option<SkewedAxis>) -> BlockClass {
        let nrows = self.s1_widths.len();
        BlockClass {
            count: self.count,
            s1_widths: self.s1_widths.clone(),
            mi_rows: self.mi_rows.clone(),
            mo_rows: self.mo_rows.clone(),
            axis2: axis_classes(axis2, self.t_lo, nrows),
            axis3: axis_classes(axis3, self.t_lo, nrows),
        }
    }
}

/// A complete lowered schedule for one (stencil, size, tile, launch)
/// configuration.
#[derive(Debug, Clone)]
pub struct TilingPlan {
    /// The stencil being executed.
    pub spec: StencilSpec,
    /// Problem extents.
    pub size: ProblemSize,
    /// Tile-size parameters.
    pub tiles: TileSizes,
    /// Threads-per-block configuration.
    pub launch: LaunchConfig,
    /// The outer-dimension hexagonal tiling.
    pub hex: HexTiling,
    /// One entry per kernel launch, in execution order.
    pub wavefronts: Vec<WavefrontPlan>,
    /// Shared-memory words a block's tile buffer occupies (the paper's
    /// `M_tile`, in 4-byte words): double buffer of the widest row plus
    /// halo, times the skewed inner extents.
    pub mtile_words: u64,
    /// Estimated registers per thread (stand-in for nvcc's allocation).
    pub regs_per_thread: u32,
}

impl TilingPlan {
    /// Lower a configuration to an executable plan: a [`PlanGeometry`]
    /// paired with `launch`.
    ///
    /// Fails (with a human-readable message) if the tile sizes or launch
    /// configuration are malformed for the stencil's dimensionality.
    pub fn build(
        spec: &StencilSpec,
        size: &ProblemSize,
        tiles: TileSizes,
        launch: LaunchConfig,
    ) -> Result<TilingPlan, String> {
        // Tiles first, then the launch: the order the errors report in.
        tiles.validate(spec.dim)?;
        launch.validate(spec.dim)?;
        Ok(PlanGeometry::build(spec, size, tiles)?.into_plan(launch))
    }

    /// Number of kernel launches (`N_w`).
    #[inline]
    pub fn kernel_count(&self) -> usize {
        self.wavefronts.len()
    }

    /// Total iterations over the whole plan; always equals
    /// `T · S1 · S2 · S3`.
    pub fn total_iterations(&self) -> u64 {
        self.wavefronts.iter().map(|w| w.iterations()).sum()
    }

    /// Total global-memory words moved (loads + stores) over the plan.
    pub fn total_words(&self) -> u64 {
        self.wavefronts
            .iter()
            .map(|w| {
                w.classes
                    .iter()
                    .map(|c| c.count * c.words_per_block())
                    .sum::<u64>()
            })
            .sum()
    }

    /// The widest wavefront's block count — the grid size the paper's
    /// `⌈w/k⌉/n_SM` term reasons about.
    pub fn max_blocks_per_wavefront(&self) -> u64 {
        self.wavefronts
            .iter()
            .map(|w| w.block_count())
            .max()
            .unwrap_or(0)
    }

    /// Registers consumed by one thread block.
    pub fn regs_per_block(&self) -> u64 {
        self.regs_per_thread as u64 * self.launch.total_threads() as u64
    }
}

/// Internal `(t, s1)` geometry → class rows lowering.
struct PlanBuilder {
    hex: HexTiling,
    /// The stencil's distinct axis-0 offsets, ascending.
    axis0: Vec<i64>,
    s1: usize,
    time: usize,
}

impl PlanBuilder {
    /// Build the class rows of wavefront `w`: one class per distinct
    /// boundary tile plus one class covering all interior tiles.
    fn wavefront_rows(&self, w: usize) -> Vec<ClassRows> {
        let (phase, q) = self.hex.wavefront_phase(w);
        let all = self.hex.wavefront_tiles(w, self.s1, self.time);
        runs(all, self.hex.tile_columns(w, self.s1, self.time, true))
            .filter_map(|(j, count)| self.class_rows(TileId { q, phase, j }, count))
            .collect()
    }

    /// Build one class's rows from a representative tile: its clipped
    /// `(t, s1)` rows with their footprints; `None` if none survive.
    fn class_rows(&self, id: TileId, count: u64) -> Option<ClassRows> {
        let hex = &self.hex;
        let window = (0, self.s1 as i64 - 1);
        let mut buf = Vec::new();
        let (mut t_lo, mut s1_widths, mut mi_rows, mut mo_rows) =
            (None, Vec::new(), Vec::new(), Vec::new());
        for row in hex.tile_rows(id, self.s1, self.time) {
            let (mi, mo) = hex.row_footprint(id, row, &self.axis0, window, &mut buf);
            let width = row.width() as u64;
            t_lo.get_or_insert(row.t);
            s1_widths.push(width);
            mi_rows.push(mi);
            // The final time row is always written back as the result.
            let last = row.t + 1 == self.time as i64;
            mo_rows.push(if last { width } else { mo });
        }
        Some(ClassRows {
            count,
            s1_widths,
            mi_rows,
            mo_rows,
            t_lo: t_lo?,
        })
    }
}

/// Run-length–grouped sub-tile classes along one skewed inner axis (the
/// unit axis for an unused one). The sub-tiles that are full-width on
/// every row are one contiguous run and are visited once; only the
/// clipped ones at either end are walked.
fn axis_classes(ax: Option<SkewedAxis>, t_lo: i64, nrows: usize) -> Vec<AxisClass> {
    let Some(ax) = ax else {
        return BlockClass::unit_axis(nrows);
    };
    let t_hi = t_lo + nrows as i64 - 1;
    let mut out: Vec<AxisClass> = Vec::new();
    for (l, count) in runs(ax.subtile_range(t_lo, t_hi), ax.full_width_run(t_lo, t_hi)) {
        let widths: Vec<u64> = (0..nrows)
            .map(|r| ax.width_at(l, t_lo + r as i64) as u64)
            .collect();
        if widths.iter().all(|&w| w == 0) {
            continue;
        }
        match out.last_mut() {
            Some(c) if c.widths == widths => c.count += count,
            _ => out.push(AxisClass { count, widths }),
        }
    }
    out
}

/// The indices of `all` as `(index, 1)`, except that a non-empty
/// sub-range `run` of identical positions is one `(run start, run length)`.
fn runs(all: RangeInclusive<i64>, run: RangeInclusive<i64>) -> impl Iterator<Item = (i64, u64)> {
    let (a_lo, a_hi) = all.into_inner();
    let (r_lo, r_hi) = if run.is_empty() {
        (a_hi + 1, a_hi)
    } else {
        run.into_inner()
    };
    (a_lo..r_lo)
        .map(|j| (j, 1))
        .chain((r_lo <= r_hi).then(|| (r_lo, (r_hi - r_lo + 1) as u64)))
        .chain((r_hi + 1..=a_hi).map(|j| (j, 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::StencilDescriptor;

    fn plan_2d(s: usize, t: usize, tiles: TileSizes) -> TilingPlan {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(s, s, t);
        TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_2d(1, 32)).unwrap()
    }

    #[test]
    fn total_iterations_equals_domain_1d() {
        let spec = StencilDescriptor::jacobi1d().spec();
        for (s, t, ts, tt) in [(37, 11, 4, 4), (64, 16, 8, 6), (20, 3, 3, 2), (5, 9, 2, 8)] {
            let size = ProblemSize::new_1d(s, t);
            let plan = TilingPlan::build(
                &spec,
                &size,
                TileSizes::new_1d(tt, ts),
                LaunchConfig::new_1d(32),
            )
            .unwrap();
            assert_eq!(
                plan.total_iterations(),
                size.iter_points(),
                "S={s} T={t} tS={ts} tT={tt}"
            );
        }
    }

    #[test]
    fn total_iterations_equals_domain_2d() {
        for (s, t, tiles) in [
            (48usize, 12usize, TileSizes::new_2d(4, 6, 8)),
            (33, 7, TileSizes::new_2d(6, 5, 7)),
            (16, 20, TileSizes::new_2d(8, 3, 32)),
        ] {
            let plan = plan_2d(s, t, tiles);
            assert_eq!(plan.total_iterations(), (s * s * t) as u64, "{tiles:?}");
        }
    }

    #[test]
    fn total_iterations_equals_domain_3d() {
        let spec = StencilDescriptor::heat3d().spec();
        for (s, t, tiles) in [
            (12usize, 6usize, TileSizes::new_3d(4, 3, 4, 5)),
            (9, 10, TileSizes::new_3d(6, 2, 3, 3)),
        ] {
            let size = ProblemSize::new_3d(s, s, s, t);
            let plan =
                TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_3d(1, 4, 8)).unwrap();
            assert_eq!(plan.total_iterations(), size.iter_points(), "{tiles:?}");
        }
    }

    #[test]
    fn kernel_count_matches_hex_wavefronts() {
        let plan = plan_2d(32, 17, TileSizes::new_2d(6, 4, 8));
        assert_eq!(plan.kernel_count(), plan.hex.wavefront_count(17));
    }

    #[test]
    fn interior_wavefronts_share_classes() {
        let plan = plan_2d(64, 40, TileSizes::new_2d(4, 8, 8));
        // Two interior phase-A wavefronts share the same Arc.
        let a1 = &plan.wavefronts[2];
        let a2 = &plan.wavefronts[4];
        assert!(Arc::ptr_eq(&a1.classes, &a2.classes));
    }

    #[test]
    fn block_count_close_to_paper_eqn5() {
        let plan = plan_2d(512, 32, TileSizes::new_2d(8, 16, 32));
        let paper = (512f64 / (2.0 * 16.0 + 8.0)).ceil() as i64;
        for w in &plan.wavefronts {
            let got = w.block_count() as i64;
            assert!((got - paper).abs() <= 1, "got {got}, paper {paper}");
        }
    }

    #[test]
    fn steady_state_footprints_match_paper_eqn13() {
        // Interior block of an interior wavefront of a 2D plan: loads per
        // interior sub-tile ≈ t_S2 (t_S1 + 2 t_T).
        let tiles = TileSizes::new_2d(8, 16, 32);
        let plan = plan_2d(512, 64, tiles);
        let wf = &plan.wavefronts[4]; // interior wavefront
        let block = wf
            .classes
            .iter()
            .max_by_key(|c| c.count)
            .expect("has classes");
        let paper = (tiles.t_s[1] * (tiles.t_s[0] + 2 * tiles.t_t)) as f64;
        let got = block.interior_subtile_load_words() as f64;
        let rel = (got - paper).abs() / paper;
        assert!(rel < 0.10, "mi per subtile {got} vs paper {paper}");
        let got_o = block.interior_subtile_store_words() as f64;
        let rel_o = (got_o - paper).abs() / paper;
        assert!(rel_o < 0.10, "mo per subtile {got_o} vs paper {paper}");
    }

    #[test]
    fn subtile_count_matches_paper_eqn16() {
        let tiles = TileSizes::new_2d(8, 16, 32);
        let plan = plan_2d(512, 64, tiles);
        let wf = &plan.wavefronts[4];
        let block = wf.classes.iter().max_by_key(|c| c.count).unwrap();
        let paper = (512 + tiles.t_t).div_ceil(tiles.t_s[1]) as u64;
        let got = block.subtiles_per_block();
        assert!(
            (got as i64 - paper as i64).abs() <= 1,
            "got {got}, paper {paper}"
        );
    }

    #[test]
    fn axis_classes_stay_small_for_3d() {
        // The separable representation must not blow up: a 3D plan with
        // tiny inner tiles keeps per-axis classes, not their product.
        let spec = StencilDescriptor::heat3d().spec();
        let size = ProblemSize::new_3d(96, 96, 96, 32);
        let tiles = TileSizes::new_3d(16, 4, 2, 2);
        let plan = TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_3d(1, 2, 2)).unwrap();
        for wf in &plan.wavefronts {
            for c in wf.classes.iter() {
                assert!(
                    c.axis2.len() <= 2 * 16 + 3,
                    "axis2 classes: {}",
                    c.axis2.len()
                );
                assert!(
                    c.axis3.len() <= 2 * 16 + 3,
                    "axis3 classes: {}",
                    c.axis3.len()
                );
                // …while the sub-tile count they describe is large.
                assert!(c.subtiles_per_block() > 100);
            }
        }
        assert_eq!(plan.total_iterations(), size.iter_points());
    }

    #[test]
    fn mtile_matches_paper_eqn19() {
        let tiles = TileSizes::new_2d(8, 16, 32);
        let plan = plan_2d(512, 64, tiles);
        let paper = 2 * (16 + 8 + 1) * (32 + 8 + 1);
        let got = plan.mtile_words;
        let rel = (got as f64 - paper as f64).abs() / paper as f64;
        assert!(rel < 0.05, "Mtile {got} vs paper {paper}");
    }

    #[test]
    fn higher_order_plans_cover_the_domain() {
        // Radius-2 star (4th-order Laplacian): slope-2 hexagons still
        // partition the iteration space exactly, and the shared-memory
        // footprint accounts for the wider halos.
        let spec = StencilDescriptor::lap4_2d().spec();
        assert_eq!(spec.order(), 2);
        for (s, t, tiles) in [
            (48usize, 12usize, TileSizes::new_2d(4, 16, 32)),
            (64, 8, TileSizes::new_2d(6, 24, 64)),
        ] {
            let size = ProblemSize::new_2d(s, s, t);
            let plan = TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_2d(1, 32)).unwrap();
            assert_eq!(plan.hex.slope, 2, "{tiles:?}");
            assert_eq!(plan.total_iterations(), size.iter_points(), "{tiles:?}");
            let slope1 = 2
                * (tiles.t_s[0] + tiles.t_t - 1 + 2) as u64
                * (tiles.t_s[1] + tiles.t_t + 1) as u64;
            assert!(plan.mtile_words > slope1, "halo must widen with slope");
        }
    }

    #[test]
    fn slope1_mtile_formula_unchanged() {
        // The generalized footprint formula must reduce exactly to the
        // historical slope-1 expression for every paper benchmark shape.
        let tiles = TileSizes::new_2d(8, 16, 32);
        let plan = plan_2d(512, 64, tiles);
        let legacy =
            2 * (plan.hex.max_row_width() as u64 + 2) * (tiles.t_s[1] + tiles.t_t + 1) as u64;
        assert_eq!(plan.mtile_words, legacy);
    }

    #[test]
    fn rejects_mismatched_dimensions() {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_1d(64, 8);
        assert!(TilingPlan::build(
            &spec,
            &size,
            TileSizes::new_1d(4, 8),
            LaunchConfig::new_1d(32)
        )
        .is_err());
    }

    #[test]
    fn rejects_zero_time() {
        let spec = StencilDescriptor::jacobi1d().spec();
        let size = ProblemSize::new_1d(64, 0);
        assert!(TilingPlan::build(
            &spec,
            &size,
            TileSizes::new_1d(4, 8),
            LaunchConfig::new_1d(32)
        )
        .is_err());
    }

    #[test]
    fn tiny_domain_smaller_than_tile_works() {
        let plan = plan_2d(4, 2, TileSizes::new_2d(8, 16, 32));
        assert_eq!(plan.total_iterations(), 4 * 4 * 2);
    }

    #[test]
    fn total_words_are_positive_and_scale_with_time() {
        let p1 = plan_2d(64, 8, TileSizes::new_2d(4, 8, 16));
        let p2 = plan_2d(64, 16, TileSizes::new_2d(4, 8, 16));
        assert!(p1.total_words() > 0);
        assert!(p2.total_words() > p1.total_words());
    }
}
