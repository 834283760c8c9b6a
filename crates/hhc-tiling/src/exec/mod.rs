//! Functional tiled execution with dependence checking.
//!
//! This module *runs* the hybrid hexagonal/classical schedule over a
//! space-time array: wavefront by wavefront, tile by tile, sub-tile by
//! sub-tile, hexagon row by hexagon row — exactly the order the GPU
//! kernels execute. Every value read is checked to have been written
//! already **by an earlier wavefront or by the same tile**, which proves
//! the schedule legal (any dependence violation panics in
//! [`run_tiled_checked`] / returns an error in [`try_run_tiled`]).
//!
//! The final plane must equal `stencil_core::reference::run` bit-for-bit
//! because the per-point arithmetic is shared. These two properties are
//! the ground-truth validation of the whole tiling substrate; the
//! simulator's timing paths consume the same geometry via
//! [`crate::plan::TilingPlan`].

use crate::config::TileSizes;
use crate::hex::{HexTiling, TileId};
use crate::inner::SkewedAxis;
use stencil_core::{Grid, ProblemSize, RowKernel, StencilSpec};

mod parallel;
pub mod scratch;

pub use parallel::{
    run_tiled_parallel, run_tiled_parallel_into, run_tiled_parallel_into_with,
    run_tiled_parallel_with_stats, run_tiled_wavefront_parallel, DispatchPolicy, MIN_BATCH_POINTS,
};
pub use scratch::ScratchPool;

/// Knobs for [`run_tiled_with`]: dependence checking, rolling-window
/// storage, and specialized row kernels.
///
/// The presets cover the three executions the workspace needs; mixing
/// `checked` with `rolling_window` is rejected (checking requires the full
/// write history).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Track and validate every read's producer (memory: `O(T·N)`).
    pub checked: bool,
    /// Store only a ring of `min(t_t + 1, T + 1)` planes instead of all
    /// `T + 1` (legal for unchecked runs; see [`rolling_window_depth`]).
    pub rolling_window: bool,
    /// Sweep interior rows with the specialized [`RowKernel`] instead of
    /// the generic per-point path.
    pub row_kernels: bool,
    /// Sweep kernel rows with the vectorized blocked kernel
    /// (`stencil_core::simd`) instead of the scalar oracle. Results are
    /// bit-identical either way; this is a performance/observability
    /// switch (ignored when `row_kernels` is off).
    pub simd: bool,
}

impl ExecOptions {
    /// Full space-time storage with dependence checking (the validator).
    pub const CHECKED: ExecOptions = ExecOptions {
        checked: true,
        rolling_window: false,
        row_kernels: false,
        simd: false,
    };
    /// Rolling-window storage + vectorized row kernels (the fast path).
    pub const FAST: ExecOptions = ExecOptions {
        checked: false,
        rolling_window: true,
        row_kernels: true,
        simd: true,
    };
    /// [`Self::FAST`] with the scalar row kernels — the pre-SIMD fast
    /// path, kept as the `--bench-exec` SIMD-speedup reference.
    pub const FAST_SCALAR: ExecOptions = ExecOptions {
        checked: false,
        rolling_window: true,
        row_kernels: true,
        simd: false,
    };
    /// Unchecked but with full storage and the generic per-point path —
    /// the seed implementation, kept as the `--bench-exec` baseline.
    pub const BASELINE: ExecOptions = ExecOptions {
        checked: false,
        rolling_window: false,
        row_kernels: false,
        simd: false,
    };
}

/// Observability for one tiled execution: storage footprint and which
/// compute path produced each point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Physical `f32` planes allocated (the ring depth for rolling-window
    /// runs, `T + 1` otherwise).
    pub resident_planes: usize,
    /// Logical planes of the full space-time array (`T + 1`).
    pub logical_planes: usize,
    /// Points computed by the specialized row kernel.
    pub kernel_points: u64,
    /// Points computed by the generic per-point path (boundary rows,
    /// checked mode).
    pub generic_points: u64,
    /// Rows whose interior span went through the row kernel.
    pub kernel_rows: u64,
    /// Rows computed entirely by the generic per-point path.
    pub generic_rows: u64,
    /// Bytes moved by whole-plane copies (initial-plane load plus the
    /// final-result extraction).
    pub plane_copy_bytes: u64,
    /// Pool buffer checkouts during this run (parallel executor only;
    /// zero on the sequential paths).
    pub scratch_acquires: u64,
    /// Checkouts served from the pool without allocating.
    pub scratch_reuses: u64,
    /// Kernel rows whose interior span was long enough to engage the
    /// blocked SIMD sweep (≥ `stencil_core::simd::BLOCK_WIDTH` points).
    pub simd_rows: u64,
    /// Work batches handed to the thread pool by the parallel executor
    /// (zero on sequential paths and on sequential fallback).
    pub batch_dispatches: u64,
    /// Whether a parallel-executor call decided parallelism could not pay
    /// and ran the sequential fast path instead.
    pub seq_fallback: bool,
}

/// The plane-ring depth an unchecked rolling-window execution allocates:
/// `min(t_t + 1, T + 1)`.
///
/// Why `t_t + 1` suffices: wavefronts execute in non-decreasing order of
/// their clipped low time `t_lo`, and a wavefront's rows span at most
/// `t_t` time levels, touching logical planes `[t_lo, t_hi + 1]` — at most
/// `t_t + 1` distinct planes, which map to distinct ring slots. A write to
/// plane `q` aliases slot `q − d`; any later read of plane `q − d` would
/// belong to a wavefront with `t_lo ≤ q − d − 1 + 1 − t_t < t_lo` of the
/// writer — contradiction with the monotone wavefront order. See the
/// rolling-window property tests for the executable version of this
/// argument.
pub fn rolling_window_depth(tiles: TileSizes, size: &ProblemSize) -> usize {
    (tiles.t_t + 1).min(size.time + 1)
}

/// A dependence violation discovered during checked tiled execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependenceViolation {
    /// The consuming iteration `(t, s1, s2, s3)`.
    pub consumer: (i64, [i64; 3]),
    /// The producer value that had not been written yet.
    pub producer: (i64, [i64; 3]),
}

impl std::fmt::Display for DependenceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "iteration (t={}, s={:?}) read unwritten producer (t={}, s={:?})",
            self.consumer.0, self.consumer.1, self.producer.0, self.producer.1
        )
    }
}

/// Space-time state, plus (optionally) the id of the tile that wrote each
/// cell, for dependence checking.
///
/// Storage holds `depth` physical planes; logical plane `t` lives in slot
/// `t mod depth`. `depth = T + 1` gives the classic full space-time array;
/// `depth = rolling_window_depth(..)` gives the O(window) ring that makes
/// long-`T` unchecked runs affordable. Slots are recycled without zeroing:
/// every cell of a plane is written (exactly once) before any read of it,
/// which is precisely the dependence property the checked mode proves.
struct SpaceTime {
    sizes: [usize; 3],
    boundary: f32,
    planes: Vec<Vec<f32>>,
    /// `writer[t][cell] = Some(wavefront)` once written; plane 0 is
    /// initialized with wavefront −1. Always full-depth (checked runs).
    writer: Option<Vec<Vec<i64>>>,
}

impl SpaceTime {
    fn new(size: &ProblemSize, init: &Grid, checked: bool, depth: usize) -> Self {
        let sizes = size.space_extents();
        let cells = sizes[0] * sizes[1] * sizes[2];
        debug_assert!(depth >= 2.min(size.time + 1) && depth <= size.time + 1);
        let mut planes = vec![vec![0.0f32; cells]; depth];
        planes[0].copy_from_slice(init.as_slice());
        let writer = checked.then(|| {
            debug_assert_eq!(depth, size.time + 1, "checking needs full history");
            let mut w = vec![vec![i64::MIN; cells]; size.time + 1];
            w[0].iter_mut().for_each(|x| *x = -1);
            w
        });
        SpaceTime {
            sizes,
            boundary: init.boundary(),
            planes,
            writer,
        }
    }

    /// Physical slot of logical plane `t`.
    #[inline]
    fn slot(&self, t: i64) -> usize {
        t as usize % self.planes.len()
    }

    #[inline]
    fn idx(&self, s: [i64; 3]) -> Option<usize> {
        for (&c, &n) in s.iter().zip(&self.sizes) {
            if c < 0 || c as usize >= n {
                return None;
            }
        }
        Some((s[0] as usize * self.sizes[1] + s[1] as usize) * self.sizes[2] + s[2] as usize)
    }

    /// Read plane `t_plane` at `s` (boundary value outside the domain).
    #[inline]
    fn read(&self, t_plane: i64, s: [i64; 3]) -> f32 {
        match self.idx(s) {
            Some(i) => self.planes[self.slot(t_plane)][i],
            None => self.boundary,
        }
    }

    /// Split-borrow the read plane `t` and the write plane `t + 1`.
    #[inline]
    fn rw_planes(&mut self, t: i64) -> (&[f32], &mut [f32]) {
        let (a, b) = (self.slot(t), self.slot(t + 1));
        debug_assert_ne!(a, b, "ring depth must separate read/write planes");
        if a < b {
            let (left, right) = self.planes.split_at_mut(b);
            (&left[a], &mut right[0])
        } else {
            let (left, right) = self.planes.split_at_mut(a);
            (&right[0], &mut left[b])
        }
    }

    /// Whether plane `t_plane` at `s` has been written, and by whom.
    #[inline]
    fn writer_of(&self, t_plane: i64, s: [i64; 3]) -> Option<i64> {
        let w = self.writer.as_ref()?;
        let i = self.idx(s)?;
        let v = w[t_plane as usize][i];
        (v != i64::MIN).then_some(v)
    }
}

/// Run the tiled schedule; panics on any dependence violation.
///
/// See [`try_run_tiled`] for the non-panicking variant and
/// [`run_tiled_unchecked`] for the fast rolling-window path.
pub fn run_tiled_checked(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
) -> Grid {
    match try_run_tiled(spec, size, tiles, init, true) {
        Ok(g) => g,
        Err(v) => panic!("dependence violation: {v}"),
    }
}

/// Run the tiled schedule without dependence tracking, using the
/// rolling-window plane ring and specialized row kernels
/// ([`ExecOptions::FAST`]): memory is `O(window · N)`, not `O(T · N)`.
pub fn run_tiled_unchecked(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
) -> Grid {
    try_run_tiled(spec, size, tiles, init, false).expect("unchecked execution cannot fail")
}

/// [`run_tiled_unchecked`] plus the execution's [`ExecStats`], so callers
/// (and tests) can assert the storage footprint and kernel coverage.
pub fn run_tiled_unchecked_with_stats(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
) -> (Grid, ExecStats) {
    run_tiled_with(spec, size, tiles, init, ExecOptions::FAST)
        .expect("unchecked execution cannot fail")
}

/// Run the tiled schedule over a space-time array.
///
/// With `checked`, every read validates that its producer was written by
/// an earlier wavefront or the same tile; the first violation aborts the
/// run (memory: `O(T · S1 · S2 · S3)`). Unchecked runs take the
/// [`ExecOptions::FAST`] path.
pub fn try_run_tiled(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
    checked: bool,
) -> Result<Grid, DependenceViolation> {
    let opts = if checked {
        ExecOptions::CHECKED
    } else {
        ExecOptions::FAST
    };
    run_tiled_with(spec, size, tiles, init, opts).map(|(g, _)| g)
}

/// Run the tiled schedule with explicit [`ExecOptions`], returning the
/// result grid and the execution's [`ExecStats`].
pub fn run_tiled_with(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
    opts: ExecOptions,
) -> Result<(Grid, ExecStats), DependenceViolation> {
    assert!(
        !(opts.checked && opts.rolling_window),
        "dependence checking requires the full space-time history"
    );
    tiles.validate(spec.dim).expect("invalid tile sizes");
    assert_eq!(
        init.sizes(),
        size.space_extents(),
        "init grid shape mismatch"
    );
    let rank = spec.dim.rank();
    let _run_span = obs::span("exec.run_tiled", "exec");
    // Hexagon slopes and inner skews scale with the stencil order
    // (paper Section 7's generality note).
    let slope = spec.order().max(1) as usize;
    let hex = HexTiling::with_slope(tiles.t_s[0], tiles.t_t, slope);
    let ax2 = (rank >= 2).then(|| SkewedAxis::with_slope(tiles.t_s[1], size.space[1], slope));
    let ax3 = (rank >= 3).then(|| SkewedAxis::with_slope(tiles.t_s[2], size.space[2], slope));

    let depth = if opts.rolling_window {
        rolling_window_depth(tiles, size)
    } else {
        size.time + 1
    };
    let mut st = SpaceTime::new(size, init, opts.checked, depth);
    let kernel = opts
        .row_kernels
        .then(|| spec.row_kernel(size.space_extents()));
    let plane_bytes = std::mem::size_of_val(init.as_slice()) as u64;
    let mut stats = ExecStats {
        resident_planes: st.planes.len(),
        logical_planes: size.time + 1,
        // The initial-plane load into the space-time array.
        plane_copy_bytes: plane_bytes,
        ..ExecStats::default()
    };

    {
        // A child span nested inside `exec.run_tiled` on the same
        // track: the setup/teardown around it becomes the outer span's
        // self-time in the Chrome export.
        let _sweep_span = obs::span("exec.wavefront_sweep", "exec");
        for w in 0..hex.wavefront_count(size.time) {
            let (phase, q) = hex.wavefront_phase(w);
            for j in hex.wavefront_tiles(w, size.space[0], size.time) {
                let id = TileId { q, phase, j };
                execute_tile(
                    spec,
                    size,
                    &hex,
                    ax2,
                    ax3,
                    id,
                    &mut st,
                    kernel.as_ref(),
                    opts.simd,
                    &mut stats,
                )?;
            }
        }
    }

    // Final plane is the result.
    let mut out = Grid::zeros(size.space_extents());
    out.set_boundary(init.boundary());
    let final_slot = st.slot(size.time as i64);
    out.as_mut_slice().copy_from_slice(&st.planes[final_slot]);
    stats.plane_copy_bytes += plane_bytes;

    if obs::active() {
        obs::counter("exec.runs", 1);
        obs::counter("exec.kernel_points", stats.kernel_points);
        obs::counter("exec.generic_points", stats.generic_points);
        obs::counter("exec.kernel_rows", stats.kernel_rows);
        obs::counter("exec.generic_rows", stats.generic_rows);
        obs::counter("exec.simd_rows", stats.simd_rows);
        obs::counter("exec.plane_copy_bytes", stats.plane_copy_bytes);
        // Rolling-window occupancy: how much of the full space-time
        // history stays resident (1.0 = classic full storage).
        obs::histogram(
            "exec.window_occupancy",
            stats.resident_planes as f64 / stats.logical_planes as f64,
        );
        obs::event(
            obs::Level::Debug,
            "exec.run",
            &[
                ("resident_planes", stats.resident_planes.into()),
                ("logical_planes", stats.logical_planes.into()),
                ("kernel_points", stats.kernel_points.into()),
                ("generic_points", stats.generic_points.into()),
                ("rolling_window", opts.rolling_window.into()),
                ("checked", opts.checked.into()),
            ],
        );
    }
    Ok((out, stats))
}

/// Execute one hexagonal tile (thread block): walk its sub-tiles in the
/// sequential order of the schedule, computing rows bottom-to-top.
#[allow(clippy::too_many_arguments)]
fn execute_tile(
    spec: &StencilSpec,
    size: &ProblemSize,
    hex: &HexTiling,
    ax2: Option<SkewedAxis>,
    ax3: Option<SkewedAxis>,
    id: TileId,
    st: &mut SpaceTime,
    kernel: Option<&RowKernel>,
    simd: bool,
    stats: &mut ExecStats,
) -> Result<(), DependenceViolation> {
    let rows: Vec<_> = hex.tile_rows(id, size.space[0], size.time).collect();
    if rows.is_empty() {
        return Ok(());
    }
    let (t_lo, t_hi) = (rows[0].t, rows[rows.len() - 1].t);
    let wf = id.wavefront();
    let rank = spec.dim.rank();

    // Sub-tile index ranges along the skewed inner axes ({0} when unused).
    let r3: Vec<i64> = match ax3 {
        Some(ax) => ax.subtile_range(t_lo, t_hi).collect(),
        None => vec![0],
    };
    let r2: Vec<i64> = match ax2 {
        Some(ax) => ax.subtile_range(t_lo, t_hi).collect(),
        None => vec![0],
    };

    for &l3 in &r3 {
        for &l2 in &r2 {
            // One sub-tile: all hexagon rows, restricted to the skewed
            // spans of (l2, l3), in bottom-to-top row order.
            for row in &rows {
                let span2 = match ax2 {
                    Some(ax) => match ax.span_at(l2, row.t) {
                        Some(sp) => sp,
                        None => continue,
                    },
                    None => (0, 0),
                };
                let span3 = match ax3 {
                    Some(ax) => match ax.span_at(l3, row.t) {
                        Some(sp) => sp,
                        None => continue,
                    },
                    None => (0, 0),
                };
                // The innermost used axis is the unit-stride sweep; the
                // outer coordinates select one contiguous row each.
                match rank {
                    1 => compute_row(
                        spec,
                        hex,
                        id,
                        wf,
                        st,
                        kernel,
                        simd,
                        stats,
                        row.t,
                        [0, 0, 0],
                        (row.lo, row.hi),
                    )?,
                    2 => {
                        for s1 in row.lo..=row.hi {
                            compute_row(
                                spec,
                                hex,
                                id,
                                wf,
                                st,
                                kernel,
                                simd,
                                stats,
                                row.t,
                                [s1, 0, 0],
                                span2,
                            )?;
                        }
                    }
                    _ => {
                        for s1 in row.lo..=row.hi {
                            for s2 in span2.0..=span2.1 {
                                compute_row(
                                    spec,
                                    hex,
                                    id,
                                    wf,
                                    st,
                                    kernel,
                                    simd,
                                    stats,
                                    row.t,
                                    [s1, s2, 0],
                                    span3,
                                )?;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Compute one contiguous row `(t, fixed-coords, sweep ∈ [lo, hi])`.
///
/// With a [`RowKernel`], the interior sub-span (every neighbor of every
/// point in-domain) is swept branch-free over the raw planes; the clipped
/// prefix/suffix — and, when any *fixed* coordinate sits on the boundary,
/// the whole row — fall back to the generic [`compute_point`] path, which
/// also covers checked mode (`kernel` is `None` there).
#[allow(clippy::too_many_arguments)]
fn compute_row(
    spec: &StencilSpec,
    hex: &HexTiling,
    id: TileId,
    wf: i64,
    st: &mut SpaceTime,
    kernel: Option<&RowKernel>,
    simd: bool,
    stats: &mut ExecStats,
    t: i64,
    fixed: [i64; 3],
    (lo, hi): (i64, i64),
) -> Result<(), DependenceViolation> {
    let point = |axis: usize, s: i64| {
        let mut p = fixed;
        p[axis] = s;
        p
    };
    let Some(k) = kernel else {
        for s in lo..=hi {
            compute_point(spec, hex, id, wf, st, t, point(spec.dim.rank() - 1, s))?;
            stats.generic_points += 1;
        }
        stats.generic_rows += 1;
        return Ok(());
    };

    let axis = k.sweep_axis();
    // Fixed (non-sweep) coordinates must be interior for the kernel.
    let fixed_interior = (0..3)
        .filter(|&d| d != axis)
        .all(|d| fixed[d] + k.off_min()[d] >= 0 && fixed[d] + k.off_max()[d] < st.sizes[d] as i64);
    let (mut klo, mut khi) = if fixed_interior {
        (
            lo.max(-k.off_min()[axis]),
            hi.min(st.sizes[axis] as i64 - 1 - k.off_max()[axis]),
        )
    } else {
        (hi + 1, hi) // whole row is boundary
    };
    if klo > khi {
        // Empty interior: normalize so the prefix loop covers the whole
        // row and the suffix loop is empty (no double-compute).
        (klo, khi) = (hi + 1, hi);
    }

    for s in lo..=hi.min(klo - 1) {
        compute_point(spec, hex, id, wf, st, t, point(axis, s))?;
        stats.generic_points += 1;
    }
    if klo <= khi {
        // Flat index of the row's sweep origin (the sweep coordinate in
        // `fixed` is 0 by construction in `execute_tile`).
        debug_assert_eq!(fixed[axis], 0);
        let base = (fixed[0] * st.sizes[1] as i64 + fixed[1]) * st.sizes[2] as i64 + fixed[2];
        let (src, dst) = st.rw_planes(t);
        k.apply_span_mode(simd, src, dst, (base + klo) as usize, (base + khi) as usize);
        stats.kernel_points += (khi - klo + 1) as u64;
        stats.kernel_rows += 1;
        if simd && (khi - klo + 1) as usize >= stencil_core::simd::BLOCK_WIDTH {
            stats.simd_rows += 1;
        }
    } else {
        stats.generic_rows += 1;
    }
    for s in lo.max(khi + 1)..=hi {
        compute_point(spec, hex, id, wf, st, t, point(axis, s))?;
        stats.generic_points += 1;
    }
    Ok(())
}

/// Compute iteration `(t, s)`: read plane `t`, write plane `t + 1`.
#[inline]
fn compute_point(
    spec: &StencilSpec,
    hex: &HexTiling,
    id: TileId,
    wf: i64,
    st: &mut SpaceTime,
    t: i64,
    s: [i64; 3],
) -> Result<(), DependenceViolation> {
    if st.writer.is_some() {
        for nb in &spec.neighbors {
            let ps = [
                s[0] + nb.offset[0],
                s[1] + nb.offset[1],
                s[2] + nb.offset[2],
            ];
            if st.idx(ps).is_none() {
                continue; // boundary constant
            }
            match st.writer_of(t, ps) {
                // Written by an earlier wavefront, the initial plane (−1),
                // or this very tile (same wavefront is only legal for the
                // same tile: intra-tile rows are ordered).
                Some(pw) if pw < wf => {}
                Some(pw) if pw == wf && hex.tile_containing(t - 1, ps[0]) == id => {}
                _ => {
                    return Err(DependenceViolation {
                        consumer: (t, s),
                        producer: (t - 1, ps),
                    });
                }
            }
        }
    }
    let v = spec.apply(|off| st.read(t, [s[0] + off[0], s[1] + off[1], s[2] + off[2]]));
    let i = st.idx(s).expect("iteration point inside domain");
    let slot = st.slot(t + 1);
    st.planes[slot][i] = v;
    if let Some(writer) = st.writer.as_mut() {
        writer[(t + 1) as usize][i] = wf;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{reference, StencilDescriptor, StencilDim};

    fn random_grid(sizes: [usize; 3], seed: u64) -> Grid {
        // Small deterministic LCG; avoids a dev-dependency here.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Grid::from_fn(sizes, |_, _, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }

    fn check(stencil: StencilDescriptor, size: ProblemSize, tiles: TileSizes) {
        let spec = stencil.spec();
        let init = random_grid(size.space_extents(), 42);
        let expect = reference::run(&spec, &size, &init);
        let got = run_tiled_checked(&spec, &size, tiles, &init);
        assert_eq!(
            expect.max_abs_diff(&got),
            0.0,
            "{} {} {:?}",
            stencil.name,
            size.label(),
            tiles
        );
    }

    #[test]
    fn jacobi1d_matches_reference_exactly() {
        for (s, t, tiles) in [
            (29usize, 10usize, TileSizes::new_1d(4, 3)),
            (64, 13, TileSizes::new_1d(6, 8)),
            (10, 25, TileSizes::new_1d(8, 2)),
            (7, 3, TileSizes::new_1d(2, 1)),
        ] {
            check(
                StencilDescriptor::jacobi1d(),
                ProblemSize::new_1d(s, t),
                tiles,
            );
        }
    }

    #[test]
    fn all_2d_stencils_match_reference() {
        for stencil in StencilDescriptor::paper(StencilDim::D2) {
            check(
                stencil,
                ProblemSize::new_2d(21, 17, 9),
                TileSizes::new_2d(4, 5, 6),
            );
        }
    }

    #[test]
    fn all_3d_stencils_match_reference() {
        for stencil in StencilDescriptor::paper(StencilDim::D3) {
            check(
                stencil,
                ProblemSize::new_3d(9, 8, 7, 6),
                TileSizes::new_3d(4, 3, 4, 3),
            );
        }
        check(
            StencilDescriptor::jacobi3d(),
            ProblemSize::new_3d(6, 6, 6, 5),
            TileSizes::new_3d(2, 2, 3, 4),
        );
    }

    #[test]
    fn tile_larger_than_domain() {
        check(
            StencilDescriptor::jacobi2d(),
            ProblemSize::new_2d(5, 5, 3),
            TileSizes::new_2d(16, 32, 64),
        );
    }

    #[test]
    fn unchecked_matches_checked() {
        let spec = StencilDescriptor::heat2d().spec();
        let size = ProblemSize::new_2d(17, 13, 8);
        let tiles = TileSizes::new_2d(4, 4, 8);
        let init = random_grid(size.space_extents(), 7);
        let a = run_tiled_checked(&spec, &size, tiles, &init);
        let b = run_tiled_unchecked(&spec, &size, tiles, &init);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn nonzero_boundary_values_propagate_identically() {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(9, 11, 6);
        let tiles = TileSizes::new_2d(4, 3, 4);
        let mut init = random_grid(size.space_extents(), 3);
        init.set_boundary(2.5);
        let expect = reference::run(&spec, &size, &init);
        let got = run_tiled_checked(&spec, &size, tiles, &init);
        assert_eq!(expect.max_abs_diff(&got), 0.0);
    }

    #[test]
    fn one_cell_domain() {
        check(
            StencilDescriptor::jacobi2d(),
            ProblemSize::new_2d(1, 1, 5),
            TileSizes::new_2d(2, 1, 1),
        );
        check(
            StencilDescriptor::jacobi1d(),
            ProblemSize::new_1d(1, 7),
            TileSizes::new_1d(4, 3),
        );
    }

    #[test]
    fn single_time_step() {
        check(
            StencilDescriptor::heat2d(),
            ProblemSize::new_2d(13, 9, 1),
            TileSizes::new_2d(8, 4, 4),
        );
    }

    #[test]
    fn rolling_window_bounds_resident_planes() {
        // Long T: the fast path must allocate O(t_t) planes, not O(T), and
        // still match the reference bit for bit.
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(19, 15, 40);
        let tiles = TileSizes::new_2d(4, 5, 6);
        let init = random_grid(size.space_extents(), 13);
        let expect = reference::run(&spec, &size, &init);
        let (got, stats) = run_tiled_unchecked_with_stats(&spec, &size, tiles, &init);
        assert_eq!(expect.max_abs_diff(&got), 0.0);
        assert_eq!(stats.resident_planes, rolling_window_depth(tiles, &size));
        assert_eq!(stats.resident_planes, tiles.t_t + 1);
        assert_eq!(stats.logical_planes, size.time + 1);
        assert!(
            stats.resident_planes < stats.logical_planes,
            "window {} should undercut full history {}",
            stats.resident_planes,
            stats.logical_planes
        );
        // Most interior points should have gone through the row kernel.
        assert!(stats.kernel_points > 0, "{stats:?}");
        assert_eq!(
            stats.kernel_points + stats.generic_points,
            (size.space[0] * size.space[1] * size.time) as u64
        );
    }

    #[test]
    fn window_clamps_to_short_time_axis() {
        // t_t + 1 > T + 1: the ring must clamp to the logical plane count.
        let spec = StencilDescriptor::jacobi1d().spec();
        let size = ProblemSize::new_1d(33, 3);
        let tiles = TileSizes::new_1d(16, 8);
        assert_eq!(rolling_window_depth(tiles, &size), 4);
        let init = random_grid(size.space_extents(), 21);
        let expect = reference::run(&spec, &size, &init);
        let (got, stats) = run_tiled_unchecked_with_stats(&spec, &size, tiles, &init);
        assert_eq!(expect.max_abs_diff(&got), 0.0);
        assert_eq!(stats.resident_planes, 4);
    }

    #[test]
    fn fast_path_matches_reference_for_all_named_stencils() {
        for stencil in StencilDescriptor::named() {
            let (size, tiles) = match stencil.spec().dim.rank() {
                1 => (ProblemSize::new_1d(37, 11), TileSizes::new_1d(4, 5)),
                2 => (ProblemSize::new_2d(17, 14, 9), TileSizes::new_2d(4, 5, 6)),
                _ => (
                    ProblemSize::new_3d(8, 7, 6, 5),
                    TileSizes::new_3d(4, 3, 4, 3),
                ),
            };
            let spec = stencil.spec();
            let init = random_grid(size.space_extents(), 17);
            let expect = reference::run(&spec, &size, &init);
            let got = run_tiled_unchecked(&spec, &size, tiles, &init);
            assert_eq!(expect.max_abs_diff(&got), 0.0, "{}", stencil.name);
        }
    }

    #[test]
    fn baseline_options_match_fast_options() {
        let spec = StencilDescriptor::heat3d().spec();
        let size = ProblemSize::new_3d(7, 6, 8, 7);
        let tiles = TileSizes::new_3d(4, 3, 3, 4);
        let init = random_grid(size.space_extents(), 29);
        let (base, bstats) =
            run_tiled_with(&spec, &size, tiles, &init, ExecOptions::BASELINE).unwrap();
        let (fast, fstats) = run_tiled_with(&spec, &size, tiles, &init, ExecOptions::FAST).unwrap();
        assert_eq!(base.max_abs_diff(&fast), 0.0);
        assert_eq!(bstats.kernel_points, 0);
        assert_eq!(bstats.resident_planes, size.time + 1);
        assert!(fstats.resident_planes <= tiles.t_t + 1);
        assert_eq!(
            bstats.generic_points,
            fstats.kernel_points + fstats.generic_points
        );
    }

    #[test]
    fn stats_count_rows_and_plane_copies() {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(19, 15, 6);
        let tiles = TileSizes::new_2d(4, 5, 6);
        let init = random_grid(size.space_extents(), 31);
        let (_, fast) = run_tiled_with(&spec, &size, tiles, &init, ExecOptions::FAST).unwrap();
        // Interior rows sweep through the kernel, boundary rows fall back.
        assert!(fast.kernel_rows > 0);
        assert!(fast.generic_rows > 0);
        assert!(fast.kernel_points >= fast.kernel_rows, "{fast:?}");
        // One plane in (init), one plane out (result), 4 bytes per cell.
        let plane = (size.space[0] * size.space[1] * 4) as u64;
        assert_eq!(fast.plane_copy_bytes, 2 * plane);
        // The baseline path never uses the kernel: every row is generic.
        let (_, base) = run_tiled_with(&spec, &size, tiles, &init, ExecOptions::BASELINE).unwrap();
        assert_eq!(base.kernel_rows, 0);
        assert_eq!(base.generic_rows, fast.kernel_rows + fast.generic_rows);
    }

    #[test]
    #[should_panic(expected = "full space-time history")]
    fn checked_rolling_window_is_rejected() {
        let spec = StencilDescriptor::jacobi1d().spec();
        let size = ProblemSize::new_1d(9, 4);
        let init = random_grid(size.space_extents(), 1);
        let opts = ExecOptions {
            checked: true,
            rolling_window: true,
            row_kernels: false,
            simd: false,
        };
        let _ = run_tiled_with(&spec, &size, TileSizes::new_1d(2, 2), &init, opts);
    }

    #[test]
    fn gradient_diagonal_dependences_are_legal() {
        // The 9-point Gradient2D exercises diagonal producers — the
        // hexagon slopes must still satisfy them.
        check(
            StencilDescriptor::gradient2d(),
            ProblemSize::new_2d(19, 23, 11),
            TileSizes::new_2d(6, 4, 8),
        );
    }
}

#[cfg(test)]
mod higher_order_tests {
    use super::*;
    use stencil_core::{init, reference, Footprint, StencilDescriptor, StencilDim, StencilSpec};

    /// Fourth-order-accurate 1D Laplacian smoothing step: a 5-point,
    /// order-2 stencil.
    fn order2_1d() -> StencilSpec {
        StencilDescriptor::new(
            "order2_1d",
            StencilDim::D1,
            2,
            Footprint::Custom(vec![
                [-2, 0, 0],
                [-1, 0, 0],
                [0, 0, 0],
                [1, 0, 0],
                [2, 0, 0],
            ]),
            vec![-1.0 / 12.0, 4.0 / 12.0, 6.0 / 12.0, 4.0 / 12.0, -1.0 / 12.0],
            0.0,
            2,
        )
        .unwrap()
        .spec()
    }

    /// An order-2, 2D stencil (9-point cross).
    fn order2_2d() -> StencilSpec {
        StencilDescriptor::new(
            "order2_2d",
            StencilDim::D2,
            2,
            Footprint::Custom(vec![
                [0, 0, 0],
                [-1, 0, 0],
                [1, 0, 0],
                [0, -1, 0],
                [0, 1, 0],
                [-2, 0, 0],
                [2, 0, 0],
                [0, -2, 0],
                [0, 2, 0],
            ]),
            vec![0.4, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05],
            0.0,
            0,
        )
        .unwrap()
        .spec()
    }

    #[test]
    fn order2_1d_tiled_matches_reference() {
        let spec = order2_1d();
        assert_eq!(spec.order(), 2);
        for (s, t, tiles) in [
            (41usize, 9usize, TileSizes::new_1d(4, 5)),
            (64, 12, TileSizes::new_1d(6, 8)),
            (17, 20, TileSizes::new_1d(8, 3)),
        ] {
            let size = ProblemSize::new_1d(s, t);
            let grid = init::random(size.space_extents(), 5);
            let expect = reference::run(&spec, &size, &grid);
            let got = run_tiled_checked(&spec, &size, tiles, &grid);
            assert_eq!(expect.max_abs_diff(&got), 0.0, "S={s} T={t}");
        }
    }

    #[test]
    fn order2_2d_tiled_matches_reference() {
        let spec = order2_2d();
        let size = ProblemSize::new_2d(23, 19, 7);
        let tiles = TileSizes::new_2d(4, 5, 6);
        let grid = init::random(size.space_extents(), 9);
        let expect = reference::run(&spec, &size, &grid);
        let got = run_tiled_checked(&spec, &size, tiles, &grid);
        assert_eq!(expect.max_abs_diff(&got), 0.0);
        // Parallel wavefront execution also holds at order 2.
        let par = run_tiled_wavefront_parallel(&spec, &size, tiles, &grid);
        assert_eq!(expect.max_abs_diff(&par), 0.0);
    }

    #[test]
    fn plan_builds_higher_order_with_scaled_slopes() {
        use crate::config::LaunchConfig;
        use crate::plan::TilingPlan;
        let spec = order2_2d();
        let size = ProblemSize::new_2d(64, 64, 8);
        let plan = TilingPlan::build(
            &spec,
            &size,
            TileSizes::new_2d(4, 8, 16),
            LaunchConfig::new_2d(1, 32),
        )
        .unwrap();
        assert_eq!(plan.hex.slope, 2);
        assert_eq!(plan.total_iterations(), size.iter_points());
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use stencil_core::{init, reference, StencilDescriptor};

    #[test]
    fn parallel_equals_sequential_tiled_and_reference() {
        for (stencil, size, tiles) in [
            (
                StencilDescriptor::jacobi2d(),
                ProblemSize::new_2d(29, 23, 9),
                TileSizes::new_2d(4, 5, 6),
            ),
            (
                StencilDescriptor::gradient2d(),
                ProblemSize::new_2d(17, 19, 7),
                TileSizes::new_2d(6, 3, 4),
            ),
            (
                StencilDescriptor::heat3d(),
                ProblemSize::new_3d(9, 8, 7, 6),
                TileSizes::new_3d(4, 3, 4, 3),
            ),
        ] {
            let spec = stencil.spec();
            let grid = init::random(size.space_extents(), 11);
            let expect = reference::run(&spec, &size, &grid);
            let seq = run_tiled_checked(&spec, &size, tiles, &grid);
            let par = run_tiled_wavefront_parallel(&spec, &size, tiles, &grid);
            assert_eq!(
                expect.max_abs_diff(&par),
                0.0,
                "{} vs reference",
                stencil.name
            );
            assert_eq!(
                seq.max_abs_diff(&par),
                0.0,
                "{} vs sequential",
                stencil.name
            );
        }
    }

    #[test]
    fn parallel_handles_nonzero_boundary() {
        let spec = StencilDescriptor::jacobi1d().spec();
        let size = ProblemSize::new_1d(41, 13);
        let tiles = TileSizes::new_1d(6, 5);
        let mut grid = init::gaussian_bump(size.space_extents(), 6.0);
        grid.set_boundary(0.25);
        let expect = reference::run(&spec, &size, &grid);
        let par = run_tiled_wavefront_parallel(&spec, &size, tiles, &grid);
        assert_eq!(expect.max_abs_diff(&par), 0.0);
    }
}
