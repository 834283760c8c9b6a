//! Classical time-skewed tiling of the inner space dimensions.
//!
//! For 2D/3D stencils the HHC scheme turns each `(t, s1)` hexagon into a
//! prism/slab along `s2` (and `s3`). The prism is cut into *sub-prisms*
//! of length `t_S2` whose cut faces are skewed by the time coordinate
//! ("bases defined by the normal vector (1, 0, 1)" — paper Section
//! 4.2.2): at absolute time `t`, sub-prism `ℓ` covers
//!
//! ```text
//! s2 ∈ [ ℓ·t_S2 − t , (ℓ+1)·t_S2 − t ) ∩ [0, S2)
//! ```
//!
//! so the dependence `(t, s2) ← (t−1, s2+1)` always points into the same
//! or an earlier sub-prism, making the left-to-right (bottom-to-top in
//! the paper's Figure 2) sequential execution by one thread block legal.
//! The number of sub-prisms covering the domain is `⌈(S2 + T_span)/t_S2⌉`
//! with `T_span` the prism's time extent — the paper's `⌈(S2+t_T)/t_S2⌉`
//! (Section 4.2.2).

use serde::{Deserialize, Serialize};

/// One skewed inner-dimension tiling: extent `t_s` along a space axis of
/// size `space`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SkewedAxis {
    /// Tile extent along this axis (`t_S2` or `t_S3`).
    pub t_s: usize,
    /// Domain extent along this axis (`S2` or `S3`).
    pub space: usize,
    /// Skew per time step (= the stencil order; 1 for the paper's
    /// benchmarks).
    pub slope: usize,
}

impl SkewedAxis {
    /// Create a skewed axis tiling (slope 1); extents must be positive.
    pub fn new(t_s: usize, space: usize) -> Self {
        Self::with_slope(t_s, space, 1)
    }

    /// Create a skewed axis tiling for a stencil of order `slope` ≥ 1:
    /// the cut plane's normal becomes `(slope, 0, 1)` so the `±slope`
    /// dependences still point into the same or an earlier sub-tile.
    pub fn with_slope(t_s: usize, space: usize, slope: usize) -> Self {
        assert!(t_s > 0 && space > 0, "extents must be positive");
        assert!(slope >= 1, "slope must be >= 1");
        SkewedAxis { t_s, space, slope }
    }

    /// The skew offset at absolute time `t`.
    #[inline]
    fn skew(&self, t: i64) -> i64 {
        self.slope as i64 * t
    }

    /// Index range of sub-tiles that intersect the domain for a prism
    /// whose time coordinates span `t_lo..=t_hi` (absolute).
    ///
    /// Sub-tile `ℓ` covers `s ∈ [ℓ·t_s − t, (ℓ+1)·t_s − t)` at time `t`;
    /// it intersects `[0, space)` for some `t ∈ [t_lo, t_hi]` iff
    /// `ℓ·t_s − t_lo < space` and `(ℓ+1)·t_s − t_hi > 0`.
    pub fn subtile_range(&self, t_lo: i64, t_hi: i64) -> std::ops::RangeInclusive<i64> {
        debug_assert!(t_lo <= t_hi);
        // (ℓ+1)·t_s > skew(t_lo)  (first sub-tile with any column ≥ 0)
        let l_min = self.skew(t_lo).div_euclid(self.t_s as i64);
        // ℓ·t_s − skew(t_hi) ≤ space − 1
        let l_max = (self.space as i64 - 1 + self.skew(t_hi)).div_euclid(self.t_s as i64);
        l_min..=l_max
    }

    /// Number of sub-tiles for a prism spanning `t_lo..=t_hi` — the exact
    /// counterpart of the paper's `⌈(S2 + t_T)/t_S2⌉`.
    pub fn subtile_count(&self, t_lo: i64, t_hi: i64) -> usize {
        let r = self.subtile_range(t_lo, t_hi);
        (r.end() - r.start() + 1).max(0) as usize
    }

    /// The in-domain column span `[lo, hi]` of sub-tile `ℓ` at absolute
    /// time `t`, or `None` if empty.
    #[inline]
    pub fn span_at(&self, l: i64, t: i64) -> Option<(i64, i64)> {
        let lo = (l * self.t_s as i64 - self.skew(t)).max(0);
        let hi = ((l + 1) * self.t_s as i64 - self.skew(t) - 1).min(self.space as i64 - 1);
        (lo <= hi).then_some((lo, hi))
    }

    /// Number of in-domain columns of sub-tile `ℓ` at time `t`.
    #[inline]
    pub fn width_at(&self, l: i64, t: i64) -> usize {
        self.span_at(l, t)
            .map_or(0, |(lo, hi)| (hi - lo + 1) as usize)
    }

    /// The *interior* sub-tiles over the time span `t_lo..=t_hi`: those
    /// of full width `t_s` (no domain clipping) at every time level. They
    /// form one contiguous run, `⌈slope·t_hi/t_s⌉ ..= ⌊(space +
    /// slope·t_lo)/t_s⌋ − 1`, which is empty when there are none.
    pub(crate) fn full_width_run(&self, t_lo: i64, t_hi: i64) -> std::ops::RangeInclusive<i64> {
        let ts = self.t_s as i64;
        let lo = -(-self.skew(t_hi)).div_euclid(ts);
        let hi = (self.space as i64 + self.skew(t_lo)).div_euclid(ts) - 1;
        lo..=hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_partition_the_domain_at_every_time() {
        for ax in [
            SkewedAxis::new(4, 20),
            SkewedAxis::new(7, 23),
            SkewedAxis::new(1, 5),
        ] {
            for t in 0i64..15 {
                let mut cover = vec![0u8; ax.space];
                for l in ax.subtile_range(t, t) {
                    if let Some((lo, hi)) = ax.span_at(l, t) {
                        for s in lo..=hi {
                            cover[s as usize] += 1;
                        }
                    }
                }
                assert!(
                    cover.iter().all(|&c| c == 1),
                    "t={t} {ax:?} cover={cover:?}"
                );
            }
        }
    }

    #[test]
    fn dependences_point_left_or_same() {
        // Consumer (t, s) reading producer (t−1, s+1): the producer's
        // sub-tile index is ≤ the consumer's, so left-to-right sequential
        // execution is legal.
        let ax = SkewedAxis::new(5, 40);
        let sub_of = |t: i64, s: i64| (s + t).div_euclid(ax.t_s as i64);
        for t in 1i64..12 {
            for s in 0i64..40 {
                for a in [-1i64, 0, 1] {
                    let (pt, ps) = (t - 1, s + a);
                    if (0..40).contains(&ps) {
                        assert!(
                            sub_of(pt, ps) <= sub_of(t, s),
                            "dep ({pt},{ps}) -> ({t},{s})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn subtile_count_matches_paper_formula() {
        // For a prism with time span t_T, count ≈ ⌈(S2 + t_T)/t_S2⌉.
        for (t_s, space, tt) in [(8usize, 64usize, 6i64), (32, 100, 10), (5, 17, 4)] {
            let ax = SkewedAxis::new(t_s, space);
            let exact = ax.subtile_count(0, tt - 1);
            let paper = (space + tt as usize).div_ceil(t_s);
            assert!(
                (exact as i64 - paper as i64).abs() <= 1,
                "exact={exact} paper={paper} t_s={t_s} S={space} tT={tt}"
            );
        }
    }

    #[test]
    fn interior_subtiles_have_full_width() {
        let ax = SkewedAxis::new(8, 80);
        let (t_lo, t_hi) = (10i64, 15);
        let range = ax.subtile_range(t_lo, t_hi);
        let run = ax.full_width_run(t_lo, t_hi);
        assert!(!run.is_empty());
        for l in run.clone() {
            for t in t_lo..=t_hi {
                assert_eq!(ax.width_at(l, t), 8);
            }
        }
        // Boundary sub-tiles are clipped.
        assert!(!run.contains(range.start()));
        assert!(!run.contains(range.end()));
        // The closed form finds exactly the sub-tiles that are full-width
        // at every time, for any slope, span, and extent.
        for ax in [
            SkewedAxis::new(8, 80),
            SkewedAxis::new(7, 23),
            SkewedAxis::new(5, 3),
            SkewedAxis::with_slope(6, 50, 2),
            SkewedAxis::with_slope(4, 30, 3),
        ] {
            for (t_lo, t_hi) in [(0i64, 0), (0, 7), (3, 4), (10, 25)] {
                let run = ax.full_width_run(t_lo, t_hi);
                for l in ax.subtile_range(t_lo, t_hi) {
                    let full = (t_lo..=t_hi).all(|t| ax.width_at(l, t) == ax.t_s);
                    assert_eq!(run.contains(&l), full, "{ax:?} t={t_lo}..={t_hi} l={l}");
                }
            }
        }
    }

    #[test]
    fn empty_when_out_of_domain() {
        let ax = SkewedAxis::new(4, 16);
        // Far-right sub-tile at small t has no in-domain columns.
        assert_eq!(ax.width_at(100, 0), 0);
        assert!(ax.span_at(100, 0).is_none());
    }
}
