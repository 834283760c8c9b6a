//! The production multi-core executor: wavefront-parallel tiles over the
//! rolling-window ring, with pooled dense scratch instead of per-tile
//! allocation and dispatch amortized over per-thread work batches.
//!
//! Tiles within a wavefront are mutually independent (the property the
//! checked executor proves and the GPU exploits by launching them as one
//! kernel), so each tile computes against the frozen pre-wavefront state
//! plus its own writes. A tile copies its widened slice of the
//! halo-padded read planes into a dense local box (same flat strides as
//! the global planes, so the specialized row kernels run unmodified and
//! read the halo like any other cell), sweeps rows exactly like the
//! sequential fast path, and logs one contiguous write span per row.
//! After the wavefront joins, the spans — disjoint by the same
//! independence property — are applied to the ring in tile order,
//! so the result is deterministic and bit-identical to
//! [`super::run_tiled_unchecked`] (tested, including nonzero boundaries
//! and `t_t > T`).
//!
//! Dispatch is batched: a wavefront's tiles are chunked into at most
//! `threads` contiguous batches sized from a per-tile point estimate
//! (≥ [`MIN_BATCH_POINTS`] estimated points per batch), one scratch +
//! write-log checkout per batch instead of per tile. When the pool has a
//! single thread, or the estimate says no batch could amortize its
//! dispatch, [`DispatchPolicy::Auto`] skips the staging machinery
//! entirely and runs the sequential fast path over the pooled ring
//! (`ExecStats::seq_fallback`), which is both faster and allocation-free
//! — the pre-PR behavior was to stage and join anyway and lose up to
//! 30 % to a nonexistent speedup.

use super::scratch::{ScratchPool, TileScratch, TileWrites, WriteSpan};
use super::{for_each_row, rolling_window_depth, subtiles, ExecStats, Layout, SpaceTime};
use crate::config::TileSizes;
use crate::hex::{HexTiling, TileId};
use crate::inner::SkewedAxis;
use rayon::prelude::*;
use std::convert::Infallible;
use stencil_core::{Grid, ProblemSize, RowKernel, StencilSpec};

/// Minimum *estimated* output points per dispatched batch for a worker
/// task to amortize its dispatch overhead (thread hand-off plus the
/// copy-in staging the parallel path pays and the sequential path does
/// not). At roughly 1 ns/point, 32k points ≈ 30 µs of work per hand-off.
pub const MIN_BATCH_POINTS: u64 = 32 * 1024;

/// How [`run_tiled_parallel_into_with`] decides between batched parallel
/// execution and the sequential fast path over the pooled ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Go parallel only when the pool has ≥ 2 threads *and* the batch
    /// estimate says the work can pay for its dispatch; otherwise run
    /// the sequential fallback (recorded in `ExecStats::seq_fallback`).
    #[default]
    Auto,
    /// Always take the batched parallel path (tests, benchmarks).
    ForceParallel,
    /// Always take the sequential pooled fallback.
    ForceSequential,
}

/// Run the tiled schedule with the tiles of each wavefront executed in
/// parallel (rayon), using a run-local [`ScratchPool`].
pub fn run_tiled_parallel(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
) -> Grid {
    let pool = ScratchPool::new();
    run_tiled_parallel_with_stats(spec, size, tiles, init, &pool).0
}

/// [`run_tiled_parallel`] against a caller-supplied pool, returning the
/// execution's [`ExecStats`] (including pool-reuse counts for this run).
pub fn run_tiled_parallel_with_stats(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
    pool: &ScratchPool,
) -> (Grid, ExecStats) {
    let mut out = Grid::zeros(size.space_extents());
    let stats = run_tiled_parallel_into(spec, size, tiles, init, pool, &mut out);
    (out, stats)
}

/// Core of the parallel path: execute into a caller-owned output grid so
/// repeated runs (candidate sweeps, benchmarks) allocate nothing once the
/// pool is warm. Uses [`DispatchPolicy::Auto`].
pub fn run_tiled_parallel_into(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
    pool: &ScratchPool,
    out: &mut Grid,
) -> ExecStats {
    run_tiled_parallel_into_with(spec, size, tiles, init, pool, out, DispatchPolicy::Auto)
}

/// [`run_tiled_parallel_into`] with an explicit [`DispatchPolicy`].
#[allow(clippy::too_many_arguments)]
pub fn run_tiled_parallel_into_with(
    spec: &StencilSpec,
    size: &ProblemSize,
    tiles: TileSizes,
    init: &Grid,
    pool: &ScratchPool,
    out: &mut Grid,
    policy: DispatchPolicy,
) -> ExecStats {
    tiles.validate(spec.dim).expect("invalid tile sizes");
    assert_eq!(
        init.sizes(),
        size.space_extents(),
        "init grid shape mismatch"
    );
    assert_eq!(out.sizes(), size.space_extents(), "out grid shape mismatch");
    let rank = spec.dim.rank();
    let slope = spec.order().max(1) as usize;
    let hex = HexTiling::with_slope(tiles.t_s[0], tiles.t_t, slope);
    let ax2 = (rank >= 2).then(|| SkewedAxis::with_slope(tiles.t_s[1], size.space[1], slope));
    let ax3 = (rank >= 3).then(|| SkewedAxis::with_slope(tiles.t_s[2], size.space[2], slope));

    let threads = rayon::current_num_threads();
    let est_tile_points = estimate_tile_points(size, tiles, rank);
    let go_parallel = match policy {
        DispatchPolicy::ForceParallel => true,
        DispatchPolicy::ForceSequential => false,
        DispatchPolicy::Auto => {
            threads >= 2 && parallelism_pays(&hex, size, est_tile_points, threads)
        }
    };

    let acq0 = pool.acquires();
    let reu0 = pool.reuses();

    // Ring planes come from the pool; only their halos and plane 0 need
    // defined contents (see `ScratchPool::take_plane` on why recycling
    // is legal).
    let depth = rolling_window_depth(tiles, size);
    let mut st = SpaceTime::new(spec, init, false, depth, |cells| pool.take_plane(cells));
    let kernel = spec.row_kernel(st.lay.ext);

    let plane_bytes = std::mem::size_of_val(init.as_slice()) as u64;
    let mut stats = ExecStats {
        resident_planes: depth,
        logical_planes: size.time + 1,
        plane_copy_bytes: plane_bytes,
        halo_cells: st.halo_cells(),
        ..ExecStats::default()
    };

    if !go_parallel {
        // Sequential fallback: run the fast-path engine directly over the
        // pooled ring — no staging copies, no join, same bits.
        stats.seq_fallback = true;
        for w in 0..hex.wavefront_count(size.time) {
            let (phase, q) = hex.wavefront_phase(w);
            for j in hex.wavefront_tiles(w, size.space[0], size.time) {
                let id = TileId { q, phase, j };
                super::execute_tile(
                    spec,
                    size,
                    &hex,
                    ax2,
                    ax3,
                    id,
                    &mut st,
                    Some(&kernel),
                    true,
                    &mut stats,
                )
                .expect("unchecked execution cannot fail");
            }
        }
        return finish_run(size, init, pool, out, st, stats, acq0, reu0, plane_bytes);
    }

    let mut js: Vec<i64> = Vec::new();
    for w in 0..hex.wavefront_count(size.time) {
        let (phase, q) = hex.wavefront_phase(w);
        js.clear();
        js.extend(hex.wavefront_tiles(w, size.space[0], size.time));
        if js.is_empty() {
            continue;
        }
        // Chunk the wavefront into at most `threads` contiguous batches,
        // each estimated to carry ≥ MIN_BATCH_POINTS of work; one scratch
        // + write-log checkout per batch, not per tile.
        let wf_points = est_tile_points.saturating_mul(js.len() as u64);
        let by_cost = (wf_points / MIN_BATCH_POINTS).max(1) as usize;
        let nb = threads.min(js.len()).min(by_cost);
        let chunk = js.len().div_ceil(nb);
        let batches: Vec<&[i64]> = js.chunks(chunk).collect();
        stats.batch_dispatches += batches.len() as u64;
        // Compute every batch of the wavefront against the frozen
        // pre-wavefront state…
        let st_ref = &st;
        let kernel_ref = &kernel;
        let results: Vec<(TileWrites, TileCounts)> = batches
            .par_iter()
            .map(|&batch| {
                let mut scratch = pool.take_scratch();
                let mut writes = pool.take_writes();
                let mut counts = TileCounts::default();
                for &j in batch {
                    let id = TileId { q, phase, j };
                    counts.add(compute_tile(
                        size,
                        &hex,
                        ax2,
                        ax3,
                        id,
                        st_ref,
                        kernel_ref,
                        &mut scratch,
                        &mut writes,
                        slope,
                    ));
                }
                pool.put_scratch(scratch);
                (writes, counts)
            })
            .collect();
        // …then apply the (disjoint) spans in batch = tile order.
        for (writes, counts) in results {
            let mut off = 0usize;
            for span in &writes.spans {
                st.planes[span.slot as usize][span.base..span.base + span.len]
                    .copy_from_slice(&writes.data[off..off + span.len]);
                off += span.len;
            }
            stats.kernel_points += counts.kernel_points;
            stats.kernel_rows += counts.kernel_rows;
            stats.simd_rows += counts.simd_rows;
            pool.put_writes(writes);
        }
    }
    finish_run(size, init, pool, out, st, stats, acq0, reu0, plane_bytes)
}

/// Estimated output points one tile computes: `t_t` time levels of an
/// average-width (`t_s1 + t_t` on slope-1 hexagons) row band, times the
/// full inner extents every sub-tile loop covers. An estimate, not a
/// count — only batch sizing depends on it.
fn estimate_tile_points(size: &ProblemSize, tiles: TileSizes, rank: usize) -> u64 {
    let t = tiles.t_t.min(size.time) as u64;
    let width = (tiles.t_s[0] + tiles.t_t).min(size.space[0]) as u64;
    let inner: u64 = (1..rank).map(|d| size.space[d] as u64).product();
    (t * width * inner).max(1)
}

/// Whether the batched parallel path can plausibly beat the sequential
/// fast path: at least one wavefront must split into ≥ 2 batches that
/// each clear [`MIN_BATCH_POINTS`].
fn parallelism_pays(
    hex: &HexTiling,
    size: &ProblemSize,
    est_tile_points: u64,
    threads: usize,
) -> bool {
    let mut max_tiles = 0usize;
    for w in 0..hex.wavefront_count(size.time) {
        max_tiles = max_tiles.max(hex.wavefront_tiles(w, size.space[0], size.time).count());
    }
    if max_tiles < 2 {
        return false;
    }
    let wf_points = est_tile_points.saturating_mul(max_tiles as u64);
    let by_cost = (wf_points / MIN_BATCH_POINTS).max(1) as usize;
    threads.min(max_tiles).min(by_cost) >= 2
}

/// Common tail of both dispatch paths: extract the final plane, return
/// the ring to the pool, take the pool deltas, and emit telemetry.
#[allow(clippy::too_many_arguments)]
fn finish_run(
    size: &ProblemSize,
    init: &Grid,
    pool: &ScratchPool,
    out: &mut Grid,
    mut st: SpaceTime,
    mut stats: ExecStats,
    acq0: u64,
    reu0: u64,
    plane_bytes: u64,
) -> ExecStats {
    let final_slot = st.slot(size.time as i64);
    out.set_boundary(init.boundary());
    st.lay.extract(&st.planes[final_slot], out.as_mut_slice());
    stats.plane_copy_bytes += plane_bytes;
    for p in st.planes.drain(..) {
        pool.put_plane(p);
    }
    stats.scratch_acquires = pool.acquires() - acq0;
    stats.scratch_reuses = pool.reuses() - reu0;

    if obs::active() {
        obs::counter("exec.parallel_runs", 1);
        obs::counter("exec.halo_cells", stats.halo_cells);
        obs::counter("exec.scratch_acquires", stats.scratch_acquires);
        obs::counter("exec.scratch_reuses", stats.scratch_reuses);
        obs::counter("exec.batch_dispatches", stats.batch_dispatches);
        obs::counter("exec.simd_rows", stats.simd_rows);
        if stats.seq_fallback {
            obs::counter("exec.seq_fallbacks", 1);
        }
    }
    stats
}

#[derive(Debug, Default, Clone, Copy)]
struct TileCounts {
    kernel_points: u64,
    kernel_rows: u64,
    simd_rows: u64,
}

impl TileCounts {
    fn add(&mut self, o: TileCounts) {
        self.kernel_points += o.kernel_points;
        self.kernel_rows += o.kernel_rows;
        self.simd_rows += o.simd_rows;
    }
}

/// The tile's dense working view: planes `[t_lo, t_hi + 1]` over its
/// widened `s1` bounding box × the full padded `s2 × s3` extent, clipped
/// to the padded planes and laid out with their flat strides, so a
/// padded flat index maps to a local one by a constant shift. Reads see
/// the frozen pre-wavefront copy (halo included) overlaid with the
/// tile's own writes — exactly what the sequential executor would see,
/// by wavefront independence.
struct LocalBox<'a> {
    buf: &'a mut [f32],
    lay: Layout,
    loc_cells: usize,
    t_lo: i64,
    base_off: usize,
}

impl LocalBox<'_> {
    /// Local position of padded flat cell `flat` on logical plane `t`.
    #[inline]
    fn local(&self, t: i64, flat: usize) -> usize {
        (t - self.t_lo) as usize * self.loc_cells + (flat - self.base_off)
    }

    /// Split-borrow the read plane `t` and the write plane `t + 1`.
    #[inline]
    fn rw_planes(&mut self, t: i64) -> (&[f32], &mut [f32]) {
        let a = (t - self.t_lo) as usize;
        let (left, right) = self.buf.split_at_mut((a + 1) * self.loc_cells);
        (&left[a * self.loc_cells..], &mut right[..self.loc_cells])
    }
}

/// Execute one tile into its local box and log its writes. Mirrors
/// `execute_tile` / `compute_row` on the fast path exactly — the same
/// sub-tile order and the same row-kernel arithmetic — so every produced
/// bit matches the sequential executor.
#[allow(clippy::too_many_arguments)]
fn compute_tile(
    size: &ProblemSize,
    hex: &HexTiling,
    ax2: Option<SkewedAxis>,
    ax3: Option<SkewedAxis>,
    id: TileId,
    st: &SpaceTime,
    kernel: &RowKernel,
    scratch: &mut TileScratch,
    out: &mut TileWrites,
    slope: usize,
) -> TileCounts {
    let mut counts = TileCounts::default();
    let TileScratch { buf, rows, r2, r3 } = scratch;
    rows.clear();
    rows.extend(hex.tile_rows(id, size.space[0], size.time));
    if rows.is_empty() {
        return counts;
    }
    let (t_lo, t_hi) = (rows[0].t, rows[rows.len() - 1].t);
    let lay = st.lay;
    // Widen by `slope ≥ order` and clip to the padded planes, in padded
    // coordinates: every neighbor of every computed point — halo cells
    // included — lands inside the box.
    let pad = slope as i64;
    let widen = |lo: i64, hi: i64, d: usize| {
        let p = lay.pad[d] as i64;
        (
            (lo - pad + p).max(0),
            (hi + pad + p).min(lay.ext[d] as i64 - 1),
        )
    };
    let (mut lo1, mut hi1) = (i64::MAX, i64::MIN);
    for r in rows.iter() {
        lo1 = lo1.min(r.lo);
        hi1 = hi1.max(r.hi);
    }
    let (b_lo, b_hi) = widen(lo1, hi1, 0);
    let s23 = lay.ext[1] * lay.ext[2];
    let loc_cells = (b_hi - b_lo + 1) as usize * s23;
    let n_planes = (t_hi - t_lo + 2) as usize;
    let base_off = b_lo as usize * s23;
    let need = n_planes * loc_cells;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    let buf = &mut buf[..need];

    subtiles(ax2, t_lo, t_hi, r2);
    subtiles(ax3, t_lo, t_hi, r3);

    // Widened inner-axis bounding box of everything the tile computes,
    // in padded coordinates. Copying only these segments leaves no
    // readable cell undefined (the rest of the pooled buffer holds stale
    // garbage that is never read).
    let inner_bbox = |ax: Option<SkewedAxis>, subs: &[i64], d: usize| -> Option<(i64, i64)> {
        let Some(ax) = ax else { return Some((0, 0)) };
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for &l in subs {
            for row in rows.iter() {
                if let Some((a, b)) = ax.span_at(l, row.t) {
                    lo = lo.min(a);
                    hi = hi.max(b);
                }
            }
        }
        (lo <= hi).then(|| widen(lo, hi, d))
    };
    let Some((lo2, hi2)) = inner_bbox(ax2, r2, 1) else {
        return counts;
    };
    let Some((lo3, hi3)) = inner_bbox(ax3, r3, 2) else {
        return counts;
    };

    // Load the frozen read planes; the top plane `t_hi + 1` is write-only.
    if lo3 == 0 && hi3 == lay.ext[2] as i64 - 1 {
        // Full-width s3 segments (always, below 3D): adjacent (s2, s3)
        // rows are contiguous in memory, so the s2 range coalesces into
        // one copy per (plane, s1), and into one slab per plane when it
        // spans the full s2 width too (always in 1D).
        let (a0, b0) = (lo2 as usize * lay.ext[2], (hi2 as usize + 1) * lay.ext[2]);
        let (step, a0, b0) = if b0 - a0 == s23 {
            (loc_cells, 0, loc_cells)
        } else {
            (s23, a0, b0)
        };
        for t in t_lo..=t_hi {
            let p = (t - t_lo) as usize;
            let dst = &mut buf[p * loc_cells..(p + 1) * loc_cells];
            let src = &st.planes[st.slot(t)];
            for row0 in (0..loc_cells).step_by(step) {
                let (a, b) = (row0 + a0, row0 + b0);
                dst[a..b].copy_from_slice(&src[base_off + a..base_off + b]);
            }
        }
    } else {
        // 3D, strided s3 segments: a Z-plane gather of
        // `planes × s1 × s2` short segments. Stage it cache-blocked
        // (Goto-style): pick an s2 panel small enough that one panel's
        // source and destination segments across every staged plane fit
        // in L1 together, then gather plane-by-plane within the panel —
        // each short strided walk stays inside a resident footprint
        // instead of sweeping the whole bounding box through cache once
        // per plane.
        const L1_STAGE_BYTES: usize = 16 * 1024;
        let seg_len = (hi3 - lo3 + 1) as usize;
        let per_row = 2 * seg_len * std::mem::size_of::<f32>();
        let panel = (L1_STAGE_BYTES / (per_row * n_planes).max(1)).max(1) as i64;
        for row0 in (0..loc_cells).step_by(s23) {
            let mut p2 = lo2;
            while p2 <= hi2 {
                let p2_hi = (p2 + panel - 1).min(hi2);
                for t in t_lo..=t_hi {
                    let p = (t - t_lo) as usize;
                    let dst = &mut buf[p * loc_cells..(p + 1) * loc_cells];
                    let src = &st.planes[st.slot(t)];
                    for x2 in p2..=p2_hi {
                        let seg = row0 + x2 as usize * lay.ext[2];
                        let (a, b) = (seg + lo3 as usize, seg + hi3 as usize + 1);
                        dst[a..b].copy_from_slice(&src[base_off + a..base_off + b]);
                    }
                }
                p2 = p2_hi + 1;
            }
        }
    }
    let mut loc = LocalBox {
        buf,
        lay,
        loc_cells,
        t_lo,
        base_off,
    };
    let depth = st.planes.len();

    let Ok(()) = for_each_row(rows, (ax2, r2), (ax3, r3), |t, fixed, span| {
        row_into(&mut loc, kernel, &mut counts, out, depth, t, fixed, span);
        Ok::<(), Infallible>(())
    });
    counts
}

/// Compute one contiguous row into the local box and log its write span.
/// This is `compute_row`'s kernel sweep verbatim, against local storage.
#[allow(clippy::too_many_arguments)]
fn row_into(
    loc: &mut LocalBox<'_>,
    k: &RowKernel,
    counts: &mut TileCounts,
    out: &mut TileWrites,
    depth: usize,
    t: i64,
    fixed: [i64; 3],
    (lo, hi): (i64, i64),
) {
    debug_assert_eq!(fixed[loc.lay.sweep], 0);
    let len = (hi - lo + 1) as usize;
    // The row's first cell, as a padded flat index and in the box.
    let start = loc.lay.idx(fixed) + lo as usize;
    let lstart = start - loc.base_off;
    let (src, dst) = loc.rw_planes(t);
    k.apply_span(src, dst, lstart, lstart + len - 1);
    counts.kernel_points += len as u64;
    counts.kernel_rows += 1;
    if len >= stencil_core::simd::BLOCK_WIDTH {
        counts.simd_rows += 1;
    }

    // The whole row is one contiguous span on plane `t + 1`.
    let lstart = loc.local(t + 1, start);
    out.spans.push(WriteSpan {
        slot: ((t + 1) as usize % depth) as u32,
        base: start,
        len,
    });
    out.data.extend_from_slice(&loc.buf[lstart..lstart + len]);
}
