//! The staged path of the executor ([`super::ExecMode::Staged`], and
//! [`super::ExecMode::Auto`] when staging pays): wavefront-parallel tiles
//! over the rolling-window ring, with pooled dense scratch instead of
//! per-tile allocation and dispatch amortized over per-thread work
//! batches.
//!
//! Tiles within a wavefront are mutually independent (the property the
//! checked executor proves and the GPU exploits by launching them as one
//! kernel), so each tile computes against the frozen pre-wavefront state
//! plus its own writes. A tile copies its widened slice of the
//! halo-padded read planes into a dense local box (same flat strides as
//! the global planes, so the specialized row kernels run unmodified and
//! read the halo like any other cell), sweeps rows exactly like the
//! sequential engine, and logs one contiguous write span per row.
//! After the wavefront joins, the spans — disjoint by the same
//! independence property — are applied to the ring in tile order,
//! so the result is deterministic and bit-identical to
//! [`super::ExecMode::Fast`] (tested, including nonzero boundaries and
//! `t_t > T`).
//!
//! Dispatch is batched: a wavefront's tiles are chunked into at most
//! `threads` contiguous batches sized from a per-tile point estimate
//! (≥ [`MIN_BATCH_POINTS`] estimated points per batch), one scratch +
//! write-log checkout per batch instead of per tile. When the pool has a
//! single thread, or the estimate says no batch could amortize its
//! dispatch, [`super::ExecMode::Auto`] skips the staging machinery and
//! runs the sequential engine over the pooled ring, which is both faster
//! and allocation-free.

use super::scratch::{ScratchPool, TileScratch, TileWrites, WriteSpan};
use super::{for_each_row, subtiles, sweep_row, ExecStats, Schedule, SpaceTime};
use crate::hex::TileId;
use crate::inner::SkewedAxis;
use rayon::prelude::*;
use std::convert::Infallible;
use stencil_core::RowKernel;

/// Minimum *estimated* output points per dispatched batch for a worker
/// task to amortize its dispatch overhead (thread hand-off plus the
/// copy-in staging the parallel path pays and the sequential path does
/// not). At roughly 1 ns/point, 32k points ≈ 30 µs of work per hand-off.
const MIN_BATCH_POINTS: u64 = 32 * 1024;

/// Estimated output points one tile computes: `t_t` time levels of an
/// average-width (`t_s1 + t_t` on slope-1 hexagons) row band, times the
/// full inner extents every sub-tile loop covers. An estimate, not a
/// count — only batch sizing depends on it.
fn estimate_tile_points(sched: &Schedule) -> u64 {
    let (hex, size) = (sched.hex, sched.size);
    let t = hex.t_t.min(size.time) as u64;
    let width = (hex.t_s + hex.t_t).min(size.space[0]) as u64;
    let inner: u64 = [sched.ax2, sched.ax3]
        .iter()
        .flatten()
        .map(|ax| ax.space as u64)
        .product();
    (t * width * inner).max(1)
}

/// Batches a wavefront of `n` tiles splits into: at most one per thread,
/// each estimated to carry at least [`MIN_BATCH_POINTS`].
fn batch_count(n: usize, tile_points: u64, threads: usize) -> usize {
    let by_cost = (tile_points.saturating_mul(n as u64) / MIN_BATCH_POINTS).max(1) as usize;
    threads.min(n).min(by_cost)
}

/// Whether the staged path can plausibly beat the sequential engine: the
/// widest wavefront must split into at least two batches (so the pool
/// must have at least two threads).
pub(super) fn staging_pays(sched: &Schedule) -> bool {
    let widest = (0..sched.wavefronts())
        .map(|w| sched.tiles(w).count())
        .max()
        .unwrap_or(0);
    let threads = rayon::current_num_threads();
    batch_count(widest, estimate_tile_points(sched), threads) >= 2
}

/// Run every wavefront staged: compute its batches in parallel against
/// the frozen pre-wavefront ring, then apply their write logs in tile
/// order.
pub(super) fn run_staged(
    sched: &Schedule,
    st: &mut SpaceTime,
    kernel: &RowKernel,
    pool: &ScratchPool,
    stats: &mut ExecStats,
) {
    let threads = rayon::current_num_threads();
    let tile_points = estimate_tile_points(sched);
    let mut ids: Vec<TileId> = Vec::new();
    for w in 0..sched.wavefronts() {
        ids.clear();
        ids.extend(sched.tiles(w));
        if ids.is_empty() {
            continue;
        }
        let chunk = ids
            .len()
            .div_ceil(batch_count(ids.len(), tile_points, threads));
        let batches: Vec<&[TileId]> = ids.chunks(chunk).collect();
        stats.batch_dispatches += batches.len() as u64;
        let frozen = &*st;
        let results: Vec<(TileWrites, ExecStats)> = batches
            .par_iter()
            .map(|&batch| {
                let mut scratch = pool.take_scratch();
                let mut writes = pool.take_writes();
                let mut counts = ExecStats::default();
                for &id in batch {
                    compute_tile(
                        sched,
                        id,
                        frozen,
                        kernel,
                        &mut scratch,
                        &mut writes,
                        &mut counts,
                    );
                }
                pool.put_scratch(scratch);
                (writes, counts)
            })
            .collect();
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

/// Execute one tile into its local box and log its writes. Walks the
/// same sub-tile order with the same row-kernel arithmetic as the
/// sequential engine, so every produced bit matches it.
fn compute_tile(
    sched: &Schedule,
    id: TileId,
    st: &SpaceTime,
    kernel: &RowKernel,
    scratch: &mut TileScratch,
    out: &mut TileWrites,
    counts: &mut ExecStats,
) {
    let TileScratch { buf, rows, r2, r3 } = scratch;
    rows.clear();
    rows.extend(sched.rows(id));
    if rows.is_empty() {
        return;
    }
    let (t_lo, t_hi) = (rows[0].t, rows[rows.len() - 1].t);
    let lay = st.lay;
    // Widen by `slope ≥ order` and clip to the padded planes, in padded
    // coordinates: every neighbor of every computed point — halo cells
    // included — lands inside the box.
    let pad = sched.hex.slope as i64;
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

    let (ax2, ax3) = (sched.ax2, sched.ax3);
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
        return;
    };
    let Some((lo3, hi3)) = inner_bbox(ax3, r3, 2) else {
        return;
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
        loc_cells,
        t_lo,
        base_off,
    };
    let depth = st.planes.len();

    let Ok(()) = for_each_row(rows, (ax2, r2), (ax3, r3), |t, fixed, (lo, hi)| {
        debug_assert_eq!(fixed[lay.sweep], 0);
        let len = (hi - lo + 1) as usize;
        // The row's first cell, as a padded flat index and in the box.
        let start = lay.idx(fixed) + lo as usize;
        let lstart = start - loc.base_off;
        let (src, dst) = loc.rw_planes(t);
        sweep_row(kernel, true, src, dst, lstart, lstart + len - 1, counts);
        // The whole row is one contiguous span on plane `t + 1`.
        let lstart = loc.local(t + 1, start);
        out.spans.push(WriteSpan {
            slot: ((t + 1) as usize % depth) as u32,
            base: start,
            len,
        });
        out.data.extend_from_slice(&loc.buf[lstart..lstart + len]);
        Ok::<(), Infallible>(())
    });
}
