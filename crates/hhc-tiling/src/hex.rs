//! Exact discrete hexagonal tiling of the outer `(t, s1)` plane.
//!
//! The `S × T` iteration-space rectangle (paper Figure 1) is partitioned
//! into staggered hexagons of two phases — the paper's *green* and
//! *yellow* tile rows. With `h = t_T/2` and pitch `p = 2·t_S + t_T`:
//!
//! * a **phase-A** tile `(q, j)` is anchored at `(t0, s0) = (q·t_T − h,
//!   j·p)`;
//! * a **phase-B** tile `(q, j)` is anchored at `(q·t_T, j·p + t_S + h)`;
//! * every tile has `t_T` rows; row `r` (0-based from the bottom) spans
//!   columns `[s0 − m(r), s0 + t_S + m(r)]` where `m(r) = min(r,
//!   t_T−1−r)` — the hexagon *expands* by one column per side for the
//!   bottom half and *contracts* for the top half, the ±1 slopes imposed
//!   by first-order stencil dependences.
//!
//! These shapes tile the plane exactly (see the property tests): at any
//! time level an A row and a B row have complementary widths
//! `(t_S + 2m_A + 1) + (t_S + 2m_B + 1) = p` because `m_A + m_B = h − 1`.
//!
//! Wavefront `w` contains all phase-A tiles `q = w/2` (even `w`) or
//! phase-B tiles `q = (w−1)/2` (odd `w`). Tiles within a wavefront are
//! mutually independent; all inter-tile dependences point to strictly
//! earlier wavefronts (property-tested), so each wavefront is one GPU
//! kernel call, exactly as in the paper.
//!
//! The paper's closed forms — `w_tile = t_S + t_T − 2` (Eqn 4), pitch
//! `2 t_S + t_T`, `m_i = m_o = t_S + 2 t_T` (Eqn 7), `N_w = 2⌈T/t_T⌉ + ε`
//! (Eqn 3) — agree with this exact geometry up to the ±1 slack the paper
//! acknowledges; the exact counts are available from this module.

use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;

/// Phase of a hexagonal tile row (the two staggered "colors" of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// Anchored at `t0 = q·t_T − h`; even wavefronts.
    A,
    /// Anchored at `t0 = q·t_T`, staggered right by `t_S + h`; odd
    /// wavefronts.
    B,
}

/// Identity of one hexagonal tile: phase, time-row index `q`, and column
/// index `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TileId {
    /// Time-row index (`q ≥ 0` for tiles intersecting the domain).
    pub q: i64,
    /// Phase (A = even wavefront, B = odd).
    pub phase: Phase,
    /// Column index within the wavefront (may be negative at the left
    /// domain edge).
    pub j: i64,
}

impl TileId {
    /// The wavefront (kernel-call) index this tile belongs to:
    /// `2q` for phase A, `2q + 1` for phase B.
    #[inline]
    pub fn wavefront(&self) -> i64 {
        match self.phase {
            Phase::A => 2 * self.q,
            Phase::B => 2 * self.q + 1,
        }
    }
}

/// The closed extents `[lo, hi]` of one tile row, after clipping to the
/// space domain; `t` is the absolute time coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowSpan {
    /// Absolute time coordinate of the row.
    pub t: i64,
    /// First column (inclusive).
    pub lo: i64,
    /// Last column (inclusive); `lo > hi` never occurs — empty rows are
    /// omitted by the iteration helpers.
    pub hi: i64,
}

impl RowSpan {
    /// Number of points in the row.
    #[inline]
    pub fn width(&self) -> usize {
        (self.hi - self.lo + 1) as usize
    }
}

/// Hexagonal tiling of the `(t, s1)` plane with base `t_S` and height
/// `t_T` (even), with oblique sides of slope ±`slope`.
///
/// `slope = 1` is the paper's case (first-order stencils). Higher-order
/// stencils — dependence distance up to `r` per time step — need slope
/// `r` hexagons, "the slopes of the hexagons change by constant factors"
/// (paper Section 7): widths become `t_S + 2·slope·m(row) + slope`, the
/// pitch `2·t_S + slope·t_T`, and the phase-B stagger `t_S + slope·h`.
/// The partition and wavefront-legality properties hold for every slope
/// (property-tested).
///
/// ```
/// use hhc_tiling::HexTiling;
///
/// let hx = HexTiling::new(8, 6);
/// // Every point belongs to exactly one tile…
/// let id = hx.tile_containing(10, 17);
/// assert!(hx.tile_rows_unclipped(id).any(|r| r.t == 10 && r.lo <= 17 && 17 <= r.hi));
/// // …and dependences always point to earlier wavefronts.
/// let producer = hx.tile_containing(9, 16);
/// assert!(producer == id || producer.wavefront() < id.wavefront());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HexTiling {
    /// Hexagon base extent along `s1` (the paper's `t_{S1}`; > 0).
    pub t_s: usize,
    /// Hexagon extent along `t` (the paper's `t_T`; even, ≥ 2).
    pub t_t: usize,
    /// Oblique-side slope (= the stencil order; 1 for the paper's
    /// benchmarks).
    pub slope: usize,
}

impl HexTiling {
    /// Create a hexagonal tiling; panics unless `t_t` is even and both
    /// extents are positive (the validated-config path in
    /// [`crate::TileSizes`] reports errors instead).
    pub fn new(t_s: usize, t_t: usize) -> Self {
        Self::with_slope(t_s, t_t, 1)
    }

    /// Create a hexagonal tiling for a stencil of order `slope` ≥ 1.
    pub fn with_slope(t_s: usize, t_t: usize, slope: usize) -> Self {
        assert!(t_s > 0, "t_s must be positive");
        assert!(
            t_t >= 2 && t_t.is_multiple_of(2),
            "t_t must be even and >= 2"
        );
        assert!(slope >= 1, "slope must be >= 1");
        HexTiling { t_s, t_t, slope }
    }

    /// Half-height `h = t_T / 2`.
    #[inline]
    pub fn h(&self) -> i64 {
        (self.t_t / 2) as i64
    }

    /// Pitch: horizontal distance between consecutive same-phase tiles,
    /// `p = 2·t_S + slope·t_T` (the paper's `w_tile + t_S + 2` at
    /// slope 1).
    #[inline]
    pub fn pitch(&self) -> i64 {
        (2 * self.t_s + self.slope * self.t_t) as i64
    }

    /// Row half-extra `m(r) = slope · min(r, t_T − 1 − r)` for
    /// `0 ≤ r < t_T`.
    #[inline]
    pub fn row_halfwidth(&self, r: usize) -> i64 {
        debug_assert!(r < self.t_t);
        (self.slope * r.min(self.t_t - 1 - r)) as i64
    }

    /// Width of row `r` of the canonical hexagon:
    /// `t_S + 2·m(r) + slope` points.
    #[inline]
    pub fn row_width(&self, r: usize) -> usize {
        self.t_s + 2 * self.row_halfwidth(r) as usize + self.slope
    }

    /// The widest row of the hexagon — the exact counterpart of the
    /// paper's `w_tile = t_S + t_T − 2` (exact value at slope 1:
    /// `t_S + t_T − 1`; in general `t_S + slope·(t_T − 1)`).
    #[inline]
    pub fn max_row_width(&self) -> usize {
        self.t_s + self.slope * (self.t_t - 1)
    }

    /// Total points in an unclipped hexagon.
    pub fn tile_points(&self) -> usize {
        (0..self.t_t).map(|r| self.row_width(r)).sum()
    }

    /// Anchor (base-row left corner) `(t0, s0)` of a tile.
    #[inline]
    pub fn anchor(&self, id: TileId) -> (i64, i64) {
        let p = self.pitch();
        match id.phase {
            Phase::A => (id.q * self.t_t as i64 - self.h(), id.j * p),
            Phase::B => (
                id.q * self.t_t as i64,
                id.j * p + (self.t_s as i64 + self.slope as i64 * self.h()),
            ),
        }
    }

    /// The unique tile containing the iteration point `(t, s)`.
    ///
    /// Total: every point of the plane belongs to exactly one tile
    /// (property-tested).
    pub fn tile_containing(&self, t: i64, s: i64) -> TileId {
        let tt = self.t_t as i64;
        let p = self.pitch();
        // Phase-A candidate.
        let qa = (t + self.h()).div_euclid(tt);
        let ra = (t + self.h()).rem_euclid(tt) as usize;
        let ma = self.row_halfwidth(ra);
        let ja = (s + ma).div_euclid(p);
        let off_a = s + ma - ja * p;
        if off_a < self.row_width(ra) as i64 {
            return TileId {
                q: qa,
                phase: Phase::A,
                j: ja,
            };
        }
        // Otherwise it must be in the interleaved phase-B tile.
        let qb = t.div_euclid(tt);
        let rb = t.rem_euclid(tt) as usize;
        let mb = self.row_halfwidth(rb);
        let base = self.t_s as i64 + self.slope as i64 * self.h();
        let jb = (s - base + mb).div_euclid(p);
        let off_b = s - base + mb - jb * p;
        debug_assert!(
            off_b >= 0 && off_b < self.row_width(rb) as i64,
            "point ({t},{s}) fell between tiles: off_a={off_a}, off_b={off_b}"
        );
        TileId {
            q: qb,
            phase: Phase::B,
            j: jb,
        }
    }

    /// Unclipped rows of a tile, bottom to top: `(r, t, lo, hi)` with
    /// `lo..=hi` the closed column span.
    pub fn tile_rows_unclipped(&self, id: TileId) -> impl Iterator<Item = RowSpan> + '_ {
        let t0 = self.anchor(id).0;
        (t0..t0 + self.t_t as i64).map(move |t| {
            let (lo, hi) = self.span_at(id, t).expect("t is a row of the tile");
            RowSpan { t, lo, hi }
        })
    }

    /// Rows of a tile clipped to the iteration domain
    /// `[0, time_steps) × [0, space)`; empty rows are omitted.
    pub fn tile_rows(
        &self,
        id: TileId,
        space: usize,
        time_steps: usize,
    ) -> impl Iterator<Item = RowSpan> + '_ {
        self.tile_rows_unclipped(id).filter_map(move |row| {
            if row.t < 0 || row.t >= time_steps as i64 {
                return None;
            }
            let lo = row.lo.max(0);
            let hi = row.hi.min(space as i64 - 1);
            (lo <= hi).then_some(RowSpan { t: row.t, lo, hi })
        })
    }

    /// Number of points of the tile inside the domain.
    pub fn clipped_points(&self, id: TileId, space: usize, time_steps: usize) -> usize {
        self.tile_rows(id, space, time_steps)
            .map(|r| r.width())
            .sum()
    }

    /// Exact number of wavefronts needed to cover `time_steps` time rows —
    /// the exact counterpart of the paper's Eqn 3, `N_w = 2⌈T/t_T⌉ + ε`.
    ///
    /// Wavefront `w` exists iff some tile of that wavefront intersects
    /// `t ∈ [0, time_steps)`; the bottom-most row of wavefront `w = 2q`
    /// is `q·t_T − h` and of `w = 2q + 1` is `q·t_T`, so the count is the
    /// number of anchors strictly below `time_steps`.
    pub fn wavefront_count(&self, time_steps: usize) -> usize {
        if time_steps == 0 {
            return 0;
        }
        let t = time_steps as i64;
        let tt = self.t_t as i64;
        // Phase A wavefronts: q·t_T − h < T  ⇔  q ≤ ⌈(T + h)/t_T⌉ − 1.
        let n_a = (t + self.h() + tt - 1).div_euclid(tt);
        // Phase B wavefronts: q·t_T < T.
        let n_b = (t + tt - 1).div_euclid(tt);
        (n_a + n_b) as usize
    }

    /// Decode a wavefront index into `(phase, q)`.
    #[inline]
    pub fn wavefront_phase(&self, w: usize) -> (Phase, i64) {
        if w.is_multiple_of(2) {
            (Phase::A, (w / 2) as i64)
        } else {
            (Phase::B, (w / 2) as i64)
        }
    }

    /// The tile-row indices `r` of wavefront-`(phase, q)` tiles whose
    /// time coordinate falls inside `[0, time_steps)`.
    pub fn time_rows(&self, phase: Phase, q: i64, time_steps: usize) -> std::ops::Range<usize> {
        let t0 = self.anchor(TileId { q, phase, j: 0 }).0;
        let lo = (-t0).max(0).min(self.t_t as i64) as usize;
        let hi = (time_steps as i64 - t0).clamp(0, self.t_t as i64) as usize;
        lo..hi.max(lo)
    }

    /// Column-index range `j_min..=j_max` of the tiles of wavefront `w`
    /// with at least one point in the domain `[0, time_steps) × [0,
    /// space)` — the exact counterpart of the paper's wavefront width
    /// `w(i) ≈ ⌈S/(2t_S+t_T)⌉` (Eqn 5). The range is empty when the
    /// wavefront itself is out of the time domain.
    pub fn wavefront_tiles(
        &self,
        w: usize,
        space: usize,
        time_steps: usize,
    ) -> RangeInclusive<i64> {
        self.tile_columns(w, space, time_steps, false)
    }

    /// [`Self::wavefront_tiles`], or with `inside` its sub-range of tiles
    /// whose time-clipped rows lie wholly inside `[0, space)`: the
    /// wavefront's identical interior tiles.
    pub(crate) fn tile_columns(
        &self,
        w: usize,
        space: usize,
        time_steps: usize,
        inside: bool,
    ) -> RangeInclusive<i64> {
        let (phase, q) = self.wavefront_phase(w);
        let rows = self.time_rows(phase, q, time_steps);
        if rows.is_empty() {
            #[allow(clippy::reversed_empty_ranges)]
            return 1..=0; // canonical empty range
        }
        // Horizontal reach of the widest row that survives time clipping:
        // tile j spans columns [j·p + left, j·p + right].
        let reach = rows.map(|r| self.row_halfwidth(r)).max().unwrap_or(0);
        let base = self.anchor(TileId { q, phase, j: 0 }).1;
        let (left, right) = (base - reach, base + self.t_s as i64 + reach);
        // Overlap needs right ≥ 0 and left ≤ space − 1; containment the
        // reverse. j_min is a ceiling division, j_max a floor.
        let (lo, hi) = if inside { (left, right) } else { (right, left) };
        let p = self.pitch();
        -lo.div_euclid(p)..=(space as i64 - 1 - hi).div_euclid(p)
    }

    /// The unclipped column span `U(t) = [lo, hi]` of tile `id` at
    /// absolute time `t`: base `t_S + slope` plus `m(r)` per side, or
    /// `None` outside the tile's `t_T` rows.
    #[inline]
    fn span_at(&self, id: TileId, t: i64) -> Option<(i64, i64)> {
        let (t0, s0) = self.anchor(id);
        let r = usize::try_from(t - t0).ok().filter(|&r| r < self.t_t)?;
        let m = self.row_halfwidth(r);
        Some((s0 - m, s0 + self.t_s as i64 + self.slope as i64 - 1 + m))
    }

    /// Footprints `(mi, mo)` of `row` of tile `id` by interval arithmetic,
    /// counting only columns inside `window`: `mi` is the number of
    /// producers `(t − 1, s + a)` outside the tile, `mo` the number of row
    /// points read by a consumer `(t + 1, s − a)` outside it. `axis0`
    /// holds the stencil's axis-0 offsets `a`; `buf` is scratch.
    pub(crate) fn row_footprint(
        &self,
        id: TileId,
        RowSpan { t, lo, hi }: RowSpan,
        axis0: &[i64],
        (w_lo, w_hi): (i64, i64),
        buf: &mut Vec<(i64, i64)>,
    ) -> (u64, u64) {
        // |P| − |P ∩ U(t − 1)| with P = ⋃_a [lo + a, hi + a] ∩ window.
        buf.clear();
        buf.extend(axis0.iter().map(|a| (lo + a, hi + a)));
        let producers = covered(buf, w_lo, w_hi);
        let own = self.span_at(id, t - 1).map_or(0, |(u_lo, u_hi)| {
            covered(buf, u_lo.max(w_lo), u_hi.min(w_hi))
        });
        // |[lo, hi] ∩ ⋃_a ((window ∖ U(t + 1)) + a)|.
        buf.clear();
        match self.span_at(id, t + 1) {
            Some((u_lo, u_hi)) => {
                for a in axis0 {
                    buf.push((w_lo + a, u_lo - 1 + a));
                    buf.push((u_hi + 1 + a, w_hi + a));
                }
            }
            None => buf.extend(axis0.iter().map(|a| (w_lo + a, w_hi + a))),
        }
        (producers - own, covered(buf, lo, hi))
    }

    /// Unclipped `(mi, mo)` of a whole tile: [`Self::row_footprint`]
    /// summed over its rows with an unbounded window.
    fn unclipped_footprints(&self, id: TileId, offsets: &[[i64; 3]]) -> (u64, u64) {
        let axis0: Vec<i64> = offsets.iter().map(|o| o[0]).collect();
        let reach = self.pitch() + axis0.iter().map(|a| a.abs()).max().unwrap_or(0);
        let s0 = self.anchor(id).1;
        let window = (s0 - reach, s0 + reach);
        let mut buf = Vec::new();
        self.tile_rows_unclipped(id)
            .map(|row| self.row_footprint(id, row, &axis0, window, &mut buf))
            .fold((0, 0), |(i, o), (mi, mo)| (i + mi, o + mo))
    }

    /// Exact steady-state *input footprint*: the number of producers of
    /// the tile's points that lie outside the tile (data the thread block
    /// must read from global memory). The paper's closed form is
    /// `m_i = t_S + 2·t_T` (Eqn 7); the exact value for a first-order
    /// interior tile is `t_S + 2·t_T + 1`.
    ///
    /// `offsets` is the stencil neighborhood; only axis 0 matters.
    pub fn exact_input_footprint(&self, id: TileId, offsets: &[[i64; 3]]) -> usize {
        self.unclipped_footprints(id, offsets).0 as usize
    }

    /// Exact steady-state *output footprint*: the number of tile points
    /// read by points of other (necessarily later-wavefront) tiles. The
    /// paper takes `m_o = m_i` for Jacobi-style stencils.
    pub fn exact_output_footprint(&self, id: TileId, offsets: &[[i64; 3]]) -> usize {
        self.unclipped_footprints(id, offsets).1 as usize
    }

    /// Exact shared-memory requirement in 4-byte words for the 1D tile:
    /// the block double-buffers two full rows (previous and current)
    /// including the one-point halo on each side. The paper's closed form
    /// is `M_tile = 2(w_tile + 2) = 2(t_S + t_T)` (Section 4.1.1); the
    /// exact value is `2(t_S + t_T + 1)`.
    pub fn shared_words(&self) -> usize {
        2 * (self.max_row_width() + 2)
    }
}

/// Number of columns of `[lo, hi]` covered by the union of the closed
/// intervals `iv` (empty intervals allowed; `iv` is sorted in place).
fn covered(iv: &mut [(i64, i64)], lo: i64, hi: i64) -> u64 {
    iv.sort_unstable();
    let (mut total, mut next) = (0, lo);
    for &(a, b) in iv.iter() {
        let (a, b) = (a.max(next), b.min(hi));
        if a <= b {
            total += (b - a + 1) as u64;
            next = b + 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tilings() -> Vec<HexTiling> {
        vec![
            HexTiling::new(1, 2),
            HexTiling::new(3, 2),
            HexTiling::new(2, 4),
            HexTiling::new(3, 6),
            HexTiling::new(5, 4),
            HexTiling::new(8, 8),
            HexTiling::new(4, 10),
        ]
    }

    #[test]
    fn row_widths_are_symmetric_and_bounded() {
        for hx in tilings() {
            for r in 0..hx.t_t {
                assert_eq!(hx.row_width(r), hx.row_width(hx.t_t - 1 - r));
                assert!(hx.row_width(r) <= hx.max_row_width());
            }
            assert_eq!(hx.row_width(0), hx.t_s + 1);
            assert_eq!(hx.row_width(hx.t_t / 2), hx.max_row_width());
        }
    }

    #[test]
    fn tile_points_matches_row_sum_formula() {
        // Area = t_T·(t_S + 1) + 2·(0 + 1 + … ), closed form:
        // Σ (t_S + 2 m(r) + 1) = t_T (t_S + 1) + 2 · 2 · (h−1)h/2
        //                      = t_T (t_S + 1) + t_T²/2 − t_T.
        for hx in tilings() {
            let h = hx.t_t / 2;
            let expect = hx.t_t * (hx.t_s + 1) + 2 * h * (h - 1);
            // 2·Σ_{r=0}^{h−1} 2r ... recompute directly instead:
            let direct: usize = (0..hx.t_t)
                .map(|r| hx.t_s + 2 * r.min(hx.t_t - 1 - r) + 1)
                .sum();
            assert_eq!(hx.tile_points(), direct);
            assert_eq!(direct, expect, "t_s={}, t_t={}", hx.t_s, hx.t_t);
        }
    }

    #[test]
    fn partition_every_point_in_exactly_one_tile() {
        for hx in tilings() {
            for t in -12i64..12 {
                for s in -30i64..30 {
                    let id = hx.tile_containing(t, s);
                    // Membership: the claimed tile really contains the point.
                    let found = hx
                        .tile_rows_unclipped(id)
                        .any(|row| row.t == t && row.lo <= s && s <= row.hi);
                    assert!(found, "({t},{s}) not in claimed tile {id:?} for {hx:?}");
                }
            }
        }
    }

    #[test]
    fn tiles_are_disjoint() {
        // Every point of each tile maps back to that tile.
        for hx in tilings() {
            for q in -1i64..2 {
                for phase in [Phase::A, Phase::B] {
                    for j in -1i64..2 {
                        let id = TileId { q, phase, j };
                        for row in hx.tile_rows_unclipped(id) {
                            for s in row.lo..=row.hi {
                                assert_eq!(
                                    hx.tile_containing(row.t, s),
                                    id,
                                    "({},{s}) in {hx:?}",
                                    row.t
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn complementary_widths_sum_to_pitch() {
        for hx in tilings() {
            for t in 0..hx.t_t as i64 {
                let ra = (t + hx.h()).rem_euclid(hx.t_t as i64) as usize;
                let rb = t.rem_euclid(hx.t_t as i64) as usize;
                assert_eq!(
                    hx.row_width(ra) + hx.row_width(rb),
                    hx.pitch() as usize,
                    "t={t} {hx:?}"
                );
            }
        }
    }

    #[test]
    fn dependences_point_to_earlier_wavefronts() {
        // All producers (t−1, s+a), a ∈ {−1, 0, 1}, of any point are in
        // the same tile or in a strictly earlier wavefront.
        for hx in tilings() {
            for t in -8i64..10 {
                for s in -25i64..25 {
                    let id = hx.tile_containing(t, s);
                    for a in [-1i64, 0, 1] {
                        let pid = hx.tile_containing(t - 1, s + a);
                        assert!(
                            pid == id || pid.wavefront() < id.wavefront(),
                            "dep ({},{}) -> ({t},{s}) goes {:?} -> {:?} in {hx:?}",
                            t - 1,
                            s + a,
                            pid,
                            id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wavefront_count_matches_enumeration_and_paper_eqn3() {
        for hx in tilings() {
            for time_steps in 1usize..30 {
                // Enumerate: distinct wavefronts among tiles containing
                // in-domain points.
                let mut seen = std::collections::BTreeSet::new();
                for t in 0..time_steps as i64 {
                    for s in 0..3 * hx.pitch() {
                        seen.insert(hx.tile_containing(t, s).wavefront());
                    }
                }
                let exact = hx.wavefront_count(time_steps);
                assert_eq!(exact, seen.len(), "T={time_steps} {hx:?}");
                // Wavefront indices are contiguous starting at 0.
                assert_eq!(*seen.iter().next().unwrap(), 0);
                assert_eq!(*seen.iter().last().unwrap(), exact as i64 - 1);
                // Paper Eqn 3: N_w = 2⌈T/t_T⌉ + ε, ε ∈ {0, 1}.
                let paper = 2 * time_steps.div_ceil(hx.t_t);
                assert!(
                    exact == paper || exact == paper + 1,
                    "exact {exact} vs paper {paper} (T={time_steps}, {hx:?})"
                );
            }
        }
    }

    #[test]
    fn wavefront_tiles_cover_exactly_the_intersecting_tiles() {
        for hx in tilings() {
            let space = 40usize;
            let time_steps = 13usize;
            for w in 0..hx.wavefront_count(time_steps) {
                let (phase, q) = hx.wavefront_phase(w);
                let range = hx.wavefront_tiles(w, space, time_steps);
                // Tiles inside the range intersect the space domain…
                for j in range.clone() {
                    let id = TileId { q, phase, j };
                    let pts = hx.clipped_points(id, space, time_steps);
                    assert!(pts > 0, "w={w} j={j} empty in {hx:?}");
                }
                // …and tiles just outside do not.
                for j in [range.start() - 1, range.end() + 1] {
                    let id = TileId { q, phase, j };
                    assert_eq!(
                        hx.clipped_points(id, space, time_steps),
                        0,
                        "w={w} j={j} nonempty outside range in {hx:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn wavefront_width_close_to_paper_eqn5() {
        let hx = HexTiling::new(8, 6);
        let space = 500usize;
        let w = hx.wavefront_tiles(2, space, 1000);
        let count = w.end() - w.start() + 1;
        let paper = (space as i64 + hx.pitch() - 1) / hx.pitch(); // ⌈S/(2tS+tT)⌉
        assert!((count - paper).abs() <= 1, "count={count} paper={paper}");
    }

    #[test]
    fn exact_footprints_match_paper_eqn7_within_slack() {
        let offsets = [[-1i64, 0, 0], [0, 0, 0], [1, 0, 0]];
        for hx in [
            HexTiling::new(4, 4),
            HexTiling::new(8, 6),
            HexTiling::new(5, 8),
        ] {
            let id = TileId {
                q: 3,
                phase: Phase::A,
                j: 2,
            }; // interior tile
            let mi = hx.exact_input_footprint(id, &offsets);
            let mo = hx.exact_output_footprint(id, &offsets);
            let paper = hx.t_s + 2 * hx.t_t;
            assert!(
                (mi as i64 - paper as i64).abs() <= 2,
                "mi={mi} paper={paper} {hx:?}"
            );
            assert!(
                (mo as i64 - paper as i64).abs() <= 2,
                "mo={mo} paper={paper} {hx:?}"
            );
            // Phase B interior tile behaves identically.
            let idb = TileId {
                q: 3,
                phase: Phase::B,
                j: 2,
            };
            assert_eq!(hx.exact_input_footprint(idb, &offsets), mi);
            assert_eq!(hx.exact_output_footprint(idb, &offsets), mo);
        }
    }

    #[test]
    fn shared_words_close_to_paper() {
        let hx = HexTiling::new(16, 8);
        // Paper: 2(t_S + t_T) = 48; exact: 2(t_S + t_T + 1) = 50.
        assert_eq!(hx.shared_words(), 2 * (16 + 8 + 1));
    }

    #[test]
    fn first_wavefront_is_clipped_phase_a() {
        let hx = HexTiling::new(4, 6);
        let id = hx.tile_containing(0, 2);
        assert_eq!(id.phase, Phase::A);
        assert_eq!(id.q, 0);
        assert_eq!(id.wavefront(), 0);
        // Its rows below t = 0 are clipped away.
        let pts: usize = hx.tile_rows(id, 100, 100).map(|r| r.width()).sum();
        assert!(pts < hx.tile_points());
    }
}
