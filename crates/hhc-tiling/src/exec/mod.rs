//! Tiled execution of the hybrid hexagonal/classical schedule.
//!
//! This module *runs* the schedule over a space-time array: wavefront by
//! wavefront, tile by tile, sub-tile by sub-tile, hexagon row by hexagon
//! row — exactly the order the GPU kernels execute. One driver serves
//! every [`ExecMode`]: the mode picks the storage (the full space-time
//! history or a rolling-window ring), the per-row arithmetic (the generic
//! per-point path or a specialized [`RowKernel`]) and whether each
//! wavefront's tiles are staged across the thread pool.
//!
//! [`ExecMode::Checked`] validates that every value read was written
//! already **by an earlier wavefront or by the same tile**, which proves
//! the schedule legal: [`run_tiled_with`] returns the first violation and
//! [`run_tiled_checked`] panics on it. Every mode's final plane equals
//! `stencil_core::reference::run` bit for bit, because the per-point
//! arithmetic is shared. These two properties are the ground-truth
//! validation of the tiling substrate; the simulator's timing paths
//! consume the same geometry, lowered by [`crate::plan::PlanGeometry`].
//!
//! Every mode stores its planes in one halo-padded layout: each plane is
//! the domain grown by the stencil's per-axis reach, with the boundary
//! value in the halo. The row-kernel modes therefore sweep every row,
//! boundary rows included, with one branch-free [`RowKernel`] call; only
//! the checked and baseline modes keep the generic per-point path.

use crate::hex::{HexTiling, RowSpan, TileId};
use crate::inner::SkewedAxis;
use crate::TileSizes;
use stencil_core::{Grid, ProblemSize, RowKernel, StencilSpec};

mod parallel;
pub mod scratch;

pub use scratch::ScratchPool;

/// How [`run_tiled_with`] executes the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Full space-time storage, the generic per-point path, and every
    /// read's producer validated (memory: `O(T · N)`). The validator.
    Checked,
    /// [`Self::Checked`] without the validation: the seed
    /// implementation, kept as the `--bench-exec` baseline.
    Baseline,
    /// The rolling-window ring swept by the scalar row kernels: the
    /// pre-SIMD fast path, kept as the `--bench-exec` SIMD reference.
    FastScalar,
    /// The rolling-window ring swept by the vectorized row kernels
    /// (`stencil_core::simd`), on the calling thread: the sequential
    /// engine. Bit-identical to [`Self::FastScalar`].
    Fast,
    /// [`Self::Staged`] when the pool has at least two threads and the
    /// batch estimate says staging pays for its dispatch, [`Self::Fast`]
    /// otherwise (recorded in [`ExecStats::seq_fallback`]). What
    /// [`run_tiled_parallel`] runs.
    Auto,
    /// The fast path with each wavefront's tiles staged in batches across
    /// the thread pool, even on one thread.
    Staged,
}

impl ExecMode {
    /// Whether the mode keeps all `T + 1` planes and computes point by
    /// point; every other mode sweeps a ring with the row kernel.
    fn full_history(self) -> bool {
        matches!(self, ExecMode::Checked | ExecMode::Baseline)
    }
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
    /// Points computed by the generic per-point path (checked and
    /// baseline runs, which have no row kernel).
    pub generic_points: u64,
    /// Rows swept by the row kernel.
    pub kernel_rows: u64,
    /// Rows computed entirely by the generic per-point path.
    pub generic_rows: u64,
    /// Bytes moved by the initial-plane load and the final-result
    /// extraction (row copies between the unpadded grids and the padded
    /// planes).
    pub plane_copy_bytes: u64,
    /// Halo cells written with the boundary value: every resident
    /// plane's padding, rewritten at each checkout.
    pub halo_cells: u64,
    /// [`ScratchPool`] checkouts during this run: the planes, plus one
    /// scratch box and one write log per staged batch.
    pub scratch_acquires: u64,
    /// Checkouts served from the pool without allocating.
    pub scratch_reuses: u64,
    /// Kernel rows whose interior span was long enough to engage the
    /// blocked SIMD sweep (≥ `stencil_core::simd::BLOCK_WIDTH` points).
    pub simd_rows: u64,
    /// Work batches handed to the thread pool (zero unless staged).
    pub batch_dispatches: u64,
    /// Whether an [`ExecMode::Auto`] run decided staging could not pay
    /// and ran the sequential engine instead.
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

/// The halo-padded plane layout every executor path shares.
///
/// Each plane is the domain grown by the stencil's per-axis reach
/// `pad[d] = max |offset_d|` (0 on unused axes) on both sides, row-major
/// over the padded extents `ext`. Halo cells hold the boundary value, so
/// every neighbor of every in-domain point is a plain load: the row
/// kernel, built against `ext`, sweeps whole domain rows unconditionally.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Domain extents.
    sizes: [usize; 3],
    /// Halo depth per axis.
    pad: [usize; 3],
    /// Padded extents `sizes + 2 · pad`.
    ext: [usize; 3],
    /// The unit-stride sweep axis (the last used one).
    sweep: usize,
}

impl Layout {
    fn new(spec: &StencilSpec, sizes: [usize; 3]) -> Self {
        let mut pad = [0usize; 3];
        for nb in &spec.neighbors {
            for (p, o) in pad.iter_mut().zip(nb.offset) {
                *p = (*p).max(o.unsigned_abs() as usize);
            }
        }
        Layout {
            sizes,
            pad,
            ext: [0, 1, 2].map(|d| sizes[d] + 2 * pad[d]),
            sweep: spec.dim.rank() - 1,
        }
    }

    /// Cells of one padded plane.
    fn cells(&self) -> usize {
        self.ext.iter().product()
    }

    /// Padded flat index of `s`, which may lie up to `pad` outside the
    /// domain.
    #[inline]
    fn idx(&self, s: [i64; 3]) -> usize {
        let x = [0, 1, 2].map(|d| (s[d] + self.pad[d] as i64) as usize);
        (x[0] * self.ext[1] + x[1]) * self.ext[2] + x[2]
    }

    /// Whether `s` lies in the domain rather than the halo.
    #[inline]
    fn in_domain(&self, s: [i64; 3]) -> bool {
        s.iter()
            .zip(&self.sizes)
            .all(|(&c, &n)| c >= 0 && (c as usize) < n)
    }

    /// Length of one domain row along the sweep axis.
    fn row_len(&self) -> usize {
        self.sizes[self.sweep]
    }

    /// Padded flat index of the first cell of every domain row, in the
    /// row-major order of an unpadded [`Grid`].
    fn row_starts(self) -> impl Iterator<Item = usize> {
        let outer = |d: usize| if d < self.sweep { self.sizes[d] } else { 1 };
        let (n0, n1) = (outer(0) as i64, outer(1) as i64);
        (0..n0).flat_map(move |a| (0..n1).map(move |b| self.idx([a, b, 0])))
    }

    /// Write `value` into every halo cell of `plane`, leaving the domain
    /// untouched: the gaps between consecutive domain rows are exactly
    /// the halo.
    fn fill_halo(self, plane: &mut [f32], value: f32) {
        let mut end = 0;
        for start in self.row_starts() {
            plane[end..start].fill(value);
            end = start + self.row_len();
        }
        plane[end..].fill(value);
    }

    /// Copy an unpadded grid's cells into the domain of `plane`.
    fn load(self, grid: &[f32], plane: &mut [f32]) {
        let n = self.row_len();
        for (row, start) in grid.chunks_exact(n).zip(self.row_starts()) {
            plane[start..start + n].copy_from_slice(row);
        }
    }

    /// Copy the domain of `plane` out into an unpadded grid.
    fn extract(self, plane: &[f32], grid: &mut [f32]) {
        let n = self.row_len();
        for (row, start) in grid.chunks_exact_mut(n).zip(self.row_starts()) {
            row.copy_from_slice(&plane[start..start + n]);
        }
    }
}

/// Space-time state over halo-padded planes (see [`Layout`]), plus
/// (optionally) the id of the tile that wrote each cell, for dependence
/// checking.
///
/// Storage holds `depth` physical planes; logical plane `t` lives in slot
/// `t mod depth`. `depth = T + 1` gives the classic full space-time array;
/// `depth = rolling_window_depth(..)` gives the O(window) ring that makes
/// long-`T` unchecked runs affordable. Planes may arrive with stale
/// contents (pool recycling): construction writes every halo cell and
/// loads plane 0, and every domain cell of a later plane is written
/// (exactly once) before any read of it, which is precisely the
/// dependence property the checked mode proves.
struct SpaceTime {
    lay: Layout,
    planes: Vec<Vec<f32>>,
    /// `writer[t][cell] = Some(wavefront)` once written; plane 0 is
    /// initialized with wavefront −1. Always full-depth (checked runs).
    writer: Option<Vec<Vec<i64>>>,
}

impl SpaceTime {
    /// Build the ring from `depth` planes checked out of `pool`: halos
    /// hold `init`'s boundary value, plane 0 holds `init`.
    fn new(
        spec: &StencilSpec,
        init: &Grid,
        checked: bool,
        depth: usize,
        pool: &ScratchPool,
    ) -> Self {
        let lay = Layout::new(spec, init.sizes());
        let mut planes: Vec<Vec<f32>> = (0..depth)
            .map(|_| {
                let mut p = pool.take_plane(lay.cells());
                lay.fill_halo(&mut p, init.boundary());
                p
            })
            .collect();
        lay.load(init.as_slice(), &mut planes[0]);
        let writer = checked.then(|| {
            let mut w = vec![vec![i64::MIN; lay.cells()]; depth];
            w[0].iter_mut().for_each(|x| *x = -1);
            w
        });
        SpaceTime {
            lay,
            planes,
            writer,
        }
    }

    /// Boundary-valued cells written at construction.
    fn halo_cells(&self) -> u64 {
        let domain: usize = self.lay.sizes.iter().product();
        (self.planes.len() * (self.lay.cells() - domain)) as u64
    }

    /// Physical slot of logical plane `t`.
    #[inline]
    fn slot(&self, t: i64) -> usize {
        t as usize % self.planes.len()
    }

    /// Read plane `t_plane` at `s` (the halo supplies the boundary value).
    #[inline]
    fn read(&self, t_plane: i64, s: [i64; 3]) -> f32 {
        self.planes[self.slot(t_plane)][self.lay.idx(s)]
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

    /// Whether plane `t_plane` at in-domain `s` has been written, and by
    /// whom.
    #[inline]
    fn writer_of(&self, t_plane: i64, s: [i64; 3]) -> Option<i64> {
        let v = self.writer.as_ref()?[t_plane as usize][self.lay.idx(s)];
        (v != i64::MIN).then_some(v)
    }
}

/// One run's tile geometry: hexagons on `(t, s1)` and time-skewed tiles
/// on the used inner axes, clipped to `size`.
struct Schedule<'a> {
    size: &'a ProblemSize,
    hex: HexTiling,
    ax2: Option<SkewedAxis>,
    ax3: Option<SkewedAxis>,
}

impl<'a> Schedule<'a> {
    fn new(spec: &StencilSpec, size: &'a ProblemSize, tiles: TileSizes) -> Self {
        // Hexagon slopes and inner skews scale with the stencil order
        // (paper Section 7's generality note).
        let slope = spec.order().max(1) as usize;
        let axis = |d: usize| {
            (spec.dim.rank() > d)
                .then(|| SkewedAxis::with_slope(tiles.t_s[d], size.space[d], slope))
        };
        Schedule {
            size,
            hex: HexTiling::with_slope(tiles.t_s[0], tiles.t_t, slope),
            ax2: axis(1),
            ax3: axis(2),
        }
    }

    fn wavefronts(&self) -> usize {
        self.hex.wavefront_count(self.size.time)
    }

    /// The tiles of wavefront `w`, in execution order.
    fn tiles(&self, w: usize) -> impl Iterator<Item = TileId> {
        let (phase, q) = self.hex.wavefront_phase(w);
        let js = self
            .hex
            .wavefront_tiles(w, self.size.space[0], self.size.time);
        js.map(move |j| TileId { q, phase, j })
    }

    /// The in-domain hexagon rows of tile `id`, bottom to top.
    fn rows(&self, id: TileId) -> impl Iterator<Item = RowSpan> + '_ {
        self.hex.tile_rows(id, self.size.space[0], self.size.time)
    }
}

/// Run the tiled schedule in `mode`, with planes from `pool`, returning
/// the result grid and the execution's [`ExecStats`]. Only
/// [`ExecMode::Checked`] can fail.
pub fn run_tiled_with(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
    mode: ExecMode,
    pool: &ScratchPool,
) -> Result<(Grid, ExecStats), DependenceViolation> {
    let mut out = Grid::zeros(size.space_extents());
    let stats = run(spec, size, tiles, init, mode, pool, &mut out)?;
    Ok((out, stats))
}

/// Run the tiled schedule in [`ExecMode::Checked`]; panics on any
/// dependence violation.
pub fn run_tiled_checked(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
) -> Grid {
    match run_tiled_with(
        spec,
        size,
        tiles,
        init,
        ExecMode::Checked,
        &ScratchPool::new(),
    ) {
        Ok((g, _)) => g,
        Err(v) => panic!("dependence violation: {v}"),
    }
}

/// Run the tiled schedule in [`ExecMode::Auto`] with a run-local pool.
pub fn run_tiled_parallel(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
) -> Grid {
    let mut out = Grid::zeros(size.space_extents());
    run_tiled_parallel_into(spec, size, tiles, init, &ScratchPool::new(), &mut out);
    out
}

/// Run the tiled schedule in [`ExecMode::Auto`] into a caller-owned
/// output grid, so repeated runs (candidate sweeps, benchmarks) allocate
/// nothing once `pool` is warm.
pub fn run_tiled_parallel_into(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
    pool: &ScratchPool,
    out: &mut Grid,
) -> ExecStats {
    run(spec, size, tiles, init, ExecMode::Auto, pool, out)
        .expect("unchecked execution cannot fail")
}

/// The one driver behind every entry point: set up the schedule and the
/// planes, run every wavefront (sequentially or staged), extract the
/// final plane into `out`, return the planes to `pool` and emit the
/// run's telemetry.
fn run(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
    mode: ExecMode,
    pool: &ScratchPool,
    out: &mut Grid,
) -> Result<ExecStats, DependenceViolation> {
    tiles.validate(spec.dim).expect("invalid tile sizes");
    let extents = size.space_extents();
    assert_eq!(init.sizes(), extents, "init grid shape mismatch");
    assert_eq!(out.sizes(), extents, "out grid shape mismatch");
    let _run_span = obs::span("exec.run_tiled", "exec");
    let sched = Schedule::new(spec, size, tiles);
    let staged = match mode {
        ExecMode::Staged => true,
        ExecMode::Auto => parallel::staging_pays(&sched),
        _ => false,
    };

    let (acquires, reuses) = (pool.acquires(), pool.reuses());
    let depth = if mode.full_history() {
        size.time + 1
    } else {
        rolling_window_depth(tiles, size)
    };
    let mut st = SpaceTime::new(spec, init, mode == ExecMode::Checked, depth, pool);
    let kernel = (!mode.full_history()).then(|| spec.row_kernel(st.lay.ext));
    let simd = mode != ExecMode::FastScalar;
    let plane_bytes = std::mem::size_of_val(init.as_slice()) as u64;
    let mut stats = ExecStats {
        resident_planes: depth,
        logical_planes: size.time + 1,
        // The initial-plane load and the final extraction.
        plane_copy_bytes: 2 * plane_bytes,
        halo_cells: st.halo_cells(),
        seq_fallback: mode == ExecMode::Auto && !staged,
        ..ExecStats::default()
    };

    {
        // A child span nested inside `exec.run_tiled` on the same
        // track: the setup/teardown around it becomes the outer span's
        // self-time in the Chrome export.
        let _sweep_span = obs::span("exec.wavefront_sweep", "exec");
        match &kernel {
            Some(k) if staged => parallel::run_staged(&sched, &mut st, k, pool, &mut stats),
            _ => {
                for w in 0..sched.wavefronts() {
                    for id in sched.tiles(w) {
                        execute_tile(spec, &sched, id, &mut st, kernel.as_ref(), simd, &mut stats)?;
                    }
                }
            }
        }
    }

    out.set_boundary(init.boundary());
    let final_slot = st.slot(size.time as i64);
    st.lay.extract(&st.planes[final_slot], out.as_mut_slice());
    for p in st.planes {
        pool.put_plane(p);
    }
    stats.scratch_acquires = pool.acquires() - acquires;
    stats.scratch_reuses = pool.reuses() - reuses;
    if obs::active() {
        emit(&stats, mode);
    }
    Ok(stats)
}

/// One run's telemetry: an `exec.*` counter per [`ExecStats`] count, the
/// window occupancy, and a debug event.
fn emit(stats: &ExecStats, mode: ExecMode) {
    obs::counter("exec.runs", 1);
    obs::counter("exec.halo_cells", stats.halo_cells);
    obs::counter("exec.kernel_points", stats.kernel_points);
    obs::counter("exec.generic_points", stats.generic_points);
    obs::counter("exec.kernel_rows", stats.kernel_rows);
    obs::counter("exec.generic_rows", stats.generic_rows);
    obs::counter("exec.simd_rows", stats.simd_rows);
    obs::counter("exec.plane_copy_bytes", stats.plane_copy_bytes);
    obs::counter("exec.scratch_acquires", stats.scratch_acquires);
    obs::counter("exec.scratch_reuses", stats.scratch_reuses);
    obs::counter("exec.batch_dispatches", stats.batch_dispatches);
    if stats.seq_fallback {
        obs::counter("exec.seq_fallbacks", 1);
    }
    // Rolling-window occupancy: how much of the full space-time history
    // stays resident (1.0 = classic full storage).
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
            ("mode", format!("{mode:?}").into()),
        ],
    );
}

/// Execute one hexagonal tile (thread block): walk its sub-tiles in the
/// sequential order of the schedule, computing rows bottom-to-top.
fn execute_tile(
    spec: &StencilSpec,
    sched: &Schedule,
    id: TileId,
    st: &mut SpaceTime,
    kernel: Option<&RowKernel>,
    simd: bool,
    stats: &mut ExecStats,
) -> Result<(), DependenceViolation> {
    let rows: Vec<_> = sched.rows(id).collect();
    if rows.is_empty() {
        return Ok(());
    }
    let (t_lo, t_hi) = (rows[0].t, rows[rows.len() - 1].t);
    let (mut r2, mut r3) = (Vec::new(), Vec::new());
    subtiles(sched.ax2, t_lo, t_hi, &mut r2);
    subtiles(sched.ax3, t_lo, t_hi, &mut r3);
    let wf = id.wavefront();
    let axis = st.lay.sweep;
    for_each_row(
        &rows,
        (sched.ax2, &r2),
        (sched.ax3, &r3),
        |t, fixed, (lo, hi)| {
            let Some(k) = kernel else {
                for s in lo..=hi {
                    let mut p = fixed;
                    p[axis] = s;
                    compute_point(spec, &sched.hex, id, wf, st, t, p)?;
                }
                stats.generic_points += (hi - lo + 1) as u64;
                stats.generic_rows += 1;
                return Ok(());
            };
            // The sweep coordinate in `fixed` is 0 (see `for_each_row`), so
            // `base` is the row's sweep origin.
            let base = st.lay.idx(fixed);
            let (src, dst) = st.rw_planes(t);
            sweep_row(
                k,
                simd,
                src,
                dst,
                base + lo as usize,
                base + hi as usize,
                stats,
            );
            Ok(())
        },
    )
}

/// Sweep `dst[lo..=hi]` with the row kernel (the halo supplies the
/// boundary value wherever a tap leaves the domain) and count the row.
fn sweep_row(
    k: &RowKernel,
    simd: bool,
    src: &[f32],
    dst: &mut [f32],
    lo: usize,
    hi: usize,
    stats: &mut ExecStats,
) {
    k.apply_span_mode(simd, src, dst, lo, hi);
    let len = hi - lo + 1;
    stats.kernel_points += len as u64;
    stats.kernel_rows += 1;
    if simd && len >= stencil_core::simd::BLOCK_WIDTH {
        stats.simd_rows += 1;
    }
}

/// Sub-tile indices of the skewed axis `ax` that meet time levels
/// `[t_lo, t_hi]`, into `out` (`{0}` when the axis is unused).
fn subtiles(ax: Option<SkewedAxis>, t_lo: i64, t_hi: i64, out: &mut Vec<i64>) {
    out.clear();
    match ax {
        Some(ax) => out.extend(ax.subtile_range(t_lo, t_hi)),
        None => out.push(0),
    }
}

/// Walk one tile in the sequential order of the schedule: for each
/// sub-tile `(l3, l2)`, its hexagon `rows` bottom-to-top, restricted to
/// the skewed spans of `(l2, l3)`. The innermost used axis is the
/// unit-stride sweep; every contiguous row `(t, fixed, (lo, hi))` goes
/// to `row`, with the sweep coordinate of `fixed` at 0.
fn for_each_row<E>(
    rows: &[RowSpan],
    (ax2, r2): (Option<SkewedAxis>, &[i64]),
    (ax3, r3): (Option<SkewedAxis>, &[i64]),
    mut row: impl FnMut(i64, [i64; 3], (i64, i64)) -> Result<(), E>,
) -> Result<(), E> {
    let span = |ax: Option<SkewedAxis>, l: i64, t: i64| match ax {
        Some(ax) => ax.span_at(l, t),
        None => Some((0, 0)),
    };
    for &l3 in r3 {
        for &l2 in r2 {
            for r in rows {
                let (Some(span2), Some(span3)) = (span(ax2, l2, r.t), span(ax3, l3, r.t)) else {
                    continue;
                };
                match (ax2, ax3) {
                    (None, _) => row(r.t, [0, 0, 0], (r.lo, r.hi))?,
                    (Some(_), None) => {
                        for s1 in r.lo..=r.hi {
                            row(r.t, [s1, 0, 0], span2)?;
                        }
                    }
                    (Some(_), Some(_)) => {
                        for s1 in r.lo..=r.hi {
                            for s2 in span2.0..=span2.1 {
                                row(r.t, [s1, s2, 0], span3)?;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Compute iteration `(t, s)` on the generic path: read plane `t`, write
/// plane `t + 1`, validating every producer when the run is checked.
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
            if !st.lay.in_domain(ps) {
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
    debug_assert!(st.lay.in_domain(s), "iteration point inside domain");
    let i = st.lay.idx(s);
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

    fn run_fast(
        spec: &StencilSpec,
        size: &ProblemSize,
        tiles: TileSizes,
        init: &Grid,
    ) -> (Grid, ExecStats) {
        run_tiled_with(spec, size, tiles, init, ExecMode::Fast, &ScratchPool::new()).unwrap()
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
        let (got, stats) = run_fast(&spec, &size, tiles, &init);
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
        let (got, stats) = run_fast(&spec, &size, tiles, &init);
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
            let (got, _) = run_fast(&spec, &size, tiles, &init);
            assert_eq!(expect.max_abs_diff(&got), 0.0, "{}", stencil.name);
        }
    }

    /// Every mode on Jacobi2D, Heat3D and radius-2 Lap4_2D: the same
    /// bits, every iteration point computed once on the mode's path, the
    /// mode's plane count, and one plane copied in and one out.
    #[test]
    fn every_mode_agrees_and_counts_its_path() {
        use ExecMode::*;
        for (stencil, size, tiles) in [
            (
                StencilDescriptor::jacobi2d(),
                ProblemSize::new_2d(19, 15, 6),
                TileSizes::new_2d(4, 5, 6),
            ),
            (
                StencilDescriptor::heat3d(),
                ProblemSize::new_3d(7, 6, 8, 7),
                TileSizes::new_3d(4, 3, 3, 4),
            ),
            (
                StencilDescriptor::lap4_2d(),
                ProblemSize::new_2d(17, 14, 9),
                TileSizes::new_2d(4, 5, 6),
            ),
        ] {
            let spec = stencil.spec();
            let init = random_grid(size.space_extents(), 29);
            let expect = reference::run(&spec, &size, &init);
            let plane_bytes = 4 * size.space_extents().iter().product::<usize>() as u64;
            let mut rows = None;
            for mode in [Checked, Baseline, FastScalar, Fast, Auto, Staged] {
                let what = format!("{} {mode:?}", stencil.name);
                let (got, stats) =
                    run_tiled_with(&spec, &size, tiles, &init, mode, &ScratchPool::new()).unwrap();
                let bits = |g: &Grid| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expect), "{what}");
                assert_eq!(
                    stats.kernel_points + stats.generic_points,
                    size.iter_points(),
                    "{what}"
                );
                assert_eq!(stats.plane_copy_bytes, 2 * plane_bytes, "{what}");
                // Every mode sweeps the same rows, on its own path.
                let mode_rows = stats.kernel_rows + stats.generic_rows;
                assert_eq!(*rows.get_or_insert(mode_rows), mode_rows, "{what}");
                if mode.full_history() {
                    assert_eq!(stats.resident_planes, size.time + 1, "{what}");
                    assert_eq!((stats.kernel_points, stats.kernel_rows), (0, 0), "{what}");
                } else {
                    assert_eq!(
                        stats.resident_planes,
                        rolling_window_depth(tiles, &size),
                        "{what}"
                    );
                    // Every row, boundary rows included, sweeps through
                    // the kernel.
                    assert_eq!(stats.generic_rows, 0, "{what}");
                    assert!(stats.kernel_points >= stats.kernel_rows, "{what}");
                }
            }
        }
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
        let par = run_tiled_parallel(&spec, &size, tiles, &grid);
        assert_eq!(expect.max_abs_diff(&par), 0.0);
    }

    #[test]
    fn plan_builds_higher_order_with_scaled_slopes() {
        use crate::plan::TilingPlan;
        use crate::LaunchConfig;
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
            let par = run_tiled_parallel(&spec, &size, tiles, &grid);
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
        let par = run_tiled_parallel(&spec, &size, tiles, &grid);
        assert_eq!(expect.max_abs_diff(&par), 0.0);
    }
}
