//! The dimension-generic model core.
//!
//! Sections 4.1–4.3 of the paper derive the 1D, 2D, and 3D models
//! separately, but every formula is one shape instantiated at a rank:
//!
//! * the tile's I/O footprint is `inner · (t_S1 + 2 t_T)` words where
//!   `inner = ∏_{d>1} t_Sd` is the inner-extent product (Eqns 7/13/24);
//! * the compute sum runs over the same hexagon row widths, scaled by
//!   `inner` (Eqns 9/15/27);
//! * the shared-memory footprint is the product of haloed extents
//!   (Section 4.1.1 / Eqn 19 / its 3D extension);
//! * the prism/slab walks `⌈∏_{d>1}(S_d + t_T) / ∏_{d>1} t_Sd⌉`
//!   sub-tiles (Section 4.2.2 / Eqn 23);
//! * the per-wave unit time and the grid quantization are Eqns 6/17/30.
//!
//! [`DimSpec`] captures the rank and halo radius once and evaluates
//! each of those pieces generically; it is the model's one entry point.
//! The tests below pin each paper equation at hand-computed values, and
//! the workspace-level `model_equivalence` suite pins every prediction
//! of the paper sweep, bit for bit, against
//! `tests/fixtures/model_sweep_digests.txt`.

use crate::common;
use crate::params::ModelParams;
use crate::{Correction, Prediction};
use hhc_tiling::TileSizes;
use stencil_core::{ProblemSize, StencilDescriptor, StencilDim};

/// The dimensional shape of a stencil model: everything the analytical
/// model needs to know about rank *and halo radius* to evaluate
/// Eqns 2–30 at any dimensionality.
///
/// Radius generalizes the paper's first-order geometry the same way the
/// tiling does (Section 7: "the slopes of the hexagons change by
/// constant factors"): hexagon pitch `2·t_S1 + r·t_T`, row widths
/// stepping by `2r`, halos of `r` cells per face, skews of `r` per time
/// step. Every generalized expression reduces — in exact integer
/// arithmetic, hence bit-identically through the floating-point that
/// follows — to the historical formula at `r = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimSpec {
    /// Space rank (1–3).
    pub rank: usize,
    /// Stencil halo radius (1 for every paper benchmark).
    pub radius: u64,
}

impl DimSpec {
    /// The spec for a given dimensionality, at the paper's radius 1.
    #[inline]
    pub fn of(dim: StencilDim) -> Self {
        DimSpec {
            rank: dim.rank(),
            radius: 1,
        }
    }

    /// The spec for a given dimensionality and halo radius.
    #[inline]
    pub fn with_radius(dim: StencilDim, radius: u64) -> Self {
        DimSpec {
            rank: dim.rank(),
            radius: radius.max(1),
        }
    }

    /// The spec a stencil descriptor's geometry induces.
    #[inline]
    pub fn for_stencil(stencil: &StencilDescriptor) -> Self {
        Self::with_radius(stencil.dim, stencil.radius.max(1) as u64)
    }

    /// The dimensionality this spec's rank stands for.
    #[inline]
    pub fn dim(&self) -> StencilDim {
        StencilDim::ALL[self.rank - 1]
    }

    /// The inner-extent product `∏_{d>1} t_Sd` (1 for 1D, `t_S2` for 2D,
    /// `t_S2·t_S3` for 3D) — the cross-section every hexagon row is
    /// extruded through.
    pub fn inner(&self, tiles: &TileSizes) -> u64 {
        tiles.t_s[1..self.rank].iter().map(|&s| s as u64).product()
    }

    /// Per-direction tile I/O footprint
    /// `m_i = m_o = inner·(t_S1 + 2·r·t_T)` — Eqns 7 (halved), 13, 24;
    /// the oblique faces exchange `r` columns per time step at radius
    /// `r`.
    pub fn mi_words(&self, tiles: &TileSizes) -> u64 {
        self.inner(tiles) * (tiles.t_s[0] as u64 + 2 * self.radius * tiles.t_t as u64)
    }

    /// `m' = (m_i + m_o)·L + 2 τ_sync` — Eqns 8/14/25.
    pub fn m_prime(&self, p: &ModelParams, tiles: &TileSizes) -> f64 {
        2.0 * self.mi_words(tiles) as f64 * p.l_word() + 2.0 * p.tau_sync()
    }

    /// `c = 2 C_iter Σ_x ⌈x·inner/n_V⌉ + t_T τ_sync` — Eqns 9/15/27,
    /// the row widths stepping by `2r` between the radius-`r` hexagon's
    /// rows.
    pub fn compute_time(&self, p: &ModelParams, tiles: &TileSizes) -> f64 {
        self.iter_time(p, tiles) + tiles.t_t as f64 * p.tau_sync()
    }

    /// The `2 C_iter Σ` product of [`compute_time`](DimSpec::compute_time)
    /// — the part a calibration's `citer_scale` rescales.
    fn iter_time(&self, p: &ModelParams, tiles: &TileSizes) -> f64 {
        2.0 * p.citer()
            * common::row_sum(p, tiles.t_s[0], tiles.t_t, self.inner(tiles), self.radius) as f64
    }

    /// Shared-memory footprint `M_tile` in words: `2(t_S + r·t_T)` for
    /// 1D (Section 4.1.1, no halo in the single buffered row pair),
    /// `2·∏_d (t_Sd + r·t_T + r)` for 2D/3D (Eqn 19 and its 3D
    /// extension; halo and skew widen with the radius, matching the
    /// slope-generic `TilingPlan` footprint).
    pub fn mtile_words(&self, tiles: &TileSizes) -> u64 {
        let r = self.radius;
        if self.rank == 1 {
            2 * (tiles.t_s[0] as u64 + r * tiles.t_t as u64)
        } else {
            let mut words = 2u64;
            for d in 0..self.rank {
                words *= tiles.t_s[d] as u64 + r * tiles.t_t as u64 + r;
            }
            words
        }
    }

    /// Sub-tiles (sub-prisms / sub-slabs) each block walks along the
    /// classically-tiled inner dimensions,
    /// `⌈∏_{d>1}(S_d + r·t_T) / ∏_{d>1} t_Sd⌉` — Section 4.2.2 and
    /// Eqn 23, in exact integer arithmetic (1 for 1D: the hexagon *is*
    /// the tile). The skew per prism is `r` columns per time step.
    pub fn subunits(&self, size: &ProblemSize, tiles: &TileSizes) -> u64 {
        let mut num = 1u64;
        let mut den = 1u64;
        for d in 1..self.rank {
            num *= size.space[d] as u64 + self.radius * tiles.t_t as u64;
            den *= tiles.t_s[d] as u64;
        }
        num.div_ceil(den)
    }

    /// Per-grid-round unit time at residency `k`: the 1D `T_tile` of
    /// Eqns 10/12, or the 2D/3D `T_prism`/`T_slab` of Eqns 16/28/29
    /// walking `n_sub` sub-tiles.
    pub fn unit_time(&self, m: f64, c: f64, k: usize, n_sub: u64) -> f64 {
        if self.rank == 1 {
            m + c + (k as f64 - 1.0) * m.max(c)
        } else if k <= 1 {
            (m + c) * n_sub as f64
        } else {
            m + k as f64 * m.max(c) * n_sub as f64
        }
    }

    /// Full prediction — Eqns 6/17/30, generic over rank.
    ///
    /// ```
    /// use gpu_sim::DeviceConfig;
    /// use hhc_tiling::TileSizes;
    /// use stencil_core::{ProblemSize, StencilDescriptor};
    /// use time_model::{DimSpec, MeasuredParams, ModelParams};
    ///
    /// let device = DeviceConfig::gtx980();
    /// let params = ModelParams::from_measured(&device, &MeasuredParams::paper_gtx980(3.39e-8));
    /// let spec = DimSpec::for_stencil(&StencilDescriptor::jacobi2d());
    /// let size = ProblemSize::new_2d(4096, 4096, 1024);
    /// let pred = spec.predict(&params, &size, &TileSizes::new_2d(8, 16, 128));
    /// assert!(pred.talg > 0.0);
    /// assert_eq!(pred.nw, 2 * 1024 / 8); // Eqn 3
    /// ```
    pub fn predict(&self, p: &ModelParams, size: &ProblemSize, tiles: &TileSizes) -> Prediction {
        self.predict_with(p, size, tiles, None)
    }

    /// [`predict`](DimSpec::predict) with an optional calibration
    /// [`Correction`]. The `None` arm evaluates the original unscaled
    /// expressions — no `× 1.0` sneaks into the uncalibrated path, so
    /// its output is bit-identical to the pre-calibration model. The
    /// `Some` arm rescales `m'` wholesale and the `2 C_iter Σ` product
    /// of `c` (leaving `t_T τ_sync` to the memory factor); geometry
    /// (`k`, `N_w`, `w`, `M_tile`) is never corrected.
    pub fn predict_with(
        &self,
        p: &ModelParams,
        size: &ProblemSize,
        tiles: &TileSizes,
        corr: Option<&Correction>,
    ) -> Prediction {
        let (nw, w, mtile, k) = self.geometry(p, size, tiles);
        let (m, c) = match corr {
            None => (self.m_prime(p, tiles), self.compute_time(p, tiles)),
            Some(corr) => (
                corr.mem_scale * self.m_prime(p, tiles),
                corr.citer_scale * self.iter_time(p, tiles) + tiles.t_t as f64 * p.tau_sync(),
            ),
        };
        let unit = self.unit_time(m, c, k, self.subunits(size, tiles));
        let talg = nw as f64 * unit * common::grid_rounds(p, w, k) as f64 + nw as f64 * p.t_sync();
        Prediction {
            talg,
            k,
            nw,
            w,
            m_prime: m,
            c,
            mtile_words: mtile,
        }
    }

    /// The geometry every prediction shares: `(N_w, w, M_tile, k)` —
    /// the wavefront count (Eqn 3), blocks per wavefront at the
    /// radius-`r` pitch (Eqn 5), the shared-memory footprint, and the
    /// effective hyper-threading factor (Eqn 11).
    pub(crate) fn geometry(
        &self,
        p: &ModelParams,
        size: &ProblemSize,
        tiles: &TileSizes,
    ) -> (usize, u64, u64, usize) {
        let nw = common::wavefronts(size.time, tiles.t_t);
        let w = common::wavefront_width(size.space[0], tiles.t_s[0], tiles.t_t, self.radius);
        let mtile = self.mtile_words(tiles);
        let k = common::effective_k(p, w, common::hyperthreading(p, mtile));
        (nw, w, mtile, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MeasuredParams;
    use gpu_sim::DeviceConfig;

    fn params(citer: f64) -> Vec<ModelParams> {
        DeviceConfig::paper_devices()
            .iter()
            .map(|d| ModelParams::from_measured(d, &MeasuredParams::paper_gtx980(citer)))
            .collect()
    }

    #[test]
    fn inner_extent_product_by_rank() {
        let t3 = TileSizes::new_3d(4, 8, 16, 32);
        assert_eq!(
            DimSpec::of(StencilDim::D1).inner(&TileSizes::new_1d(4, 8)),
            1
        );
        assert_eq!(
            DimSpec::of(StencilDim::D2).inner(&TileSizes::new_2d(4, 8, 16)),
            16
        );
        assert_eq!(DimSpec::of(StencilDim::D3).inner(&t3), 16 * 32);
    }

    #[test]
    fn radius_one_is_the_default_spec() {
        for dim in StencilDim::ALL {
            assert_eq!(DimSpec::of(dim), DimSpec::with_radius(dim, 1));
        }
        // for_stencil reads the descriptor's geometry.
        let lap4 = stencil_core::StencilDescriptor::lap4_2d();
        let spec = DimSpec::for_stencil(&lap4);
        assert_eq!(spec.rank, 2);
        assert_eq!(spec.radius, 2);
    }

    #[test]
    fn radius_widens_every_geometric_term() {
        let size = ProblemSize::new_2d(1024, 1024, 128);
        let tiles = TileSizes::new_2d(8, 16, 64);
        let r1 = DimSpec::with_radius(StencilDim::D2, 1);
        let r2 = DimSpec::with_radius(StencilDim::D2, 2);
        let p = &params(3.39e-8)[0];
        // Wider halos: more I/O words, more shared memory, more
        // sub-prisms, fewer (wider-pitched) tiles per wavefront.
        assert!(r2.mi_words(&tiles) > r1.mi_words(&tiles));
        assert!(r2.mtile_words(&tiles) > r1.mtile_words(&tiles));
        assert!(r2.subunits(&size, &tiles) >= r1.subunits(&size, &tiles));
        let p1 = r1.predict(p, &size, &tiles);
        let p2 = r2.predict(p, &size, &tiles);
        assert!(
            p2.w < p1.w,
            "pitch doubles the tile span: {} {}",
            p2.w,
            p1.w
        );
        assert!(p2.talg > 0.0 && p2.talg.is_finite());
        // Same wavefront count: N_w depends on t_T only.
        assert_eq!(p1.nw, p2.nw);
    }

    #[test]
    fn rank1_has_no_subunits() {
        let spec = DimSpec::of(StencilDim::D1);
        let size = ProblemSize::new_1d(1 << 16, 128);
        assert_eq!(spec.subunits(&size, &TileSizes::new_1d(8, 32)), 1);
    }

    #[test]
    fn rank1_equations_at_hand_computed_values() {
        let spec = DimSpec::of(StencilDim::D1);
        let p = &params(3.39e-8)[0];
        let tiles = TileSizes::new_1d(8, 32);
        // Eqn 7: m_io = 2(t_S + 2t_T) = 2·(32 + 16).
        assert_eq!(2 * spec.mi_words(&tiles), 96);
        // Section 4.1.1: M_tile = 2(t_S + t_T) = 2·(32 + 8).
        assert_eq!(spec.mtile_words(&tiles), 80);
        // Eqn 9: t_S = 100, t_T = 4 → row widths {101, 103}, each one
        // ⌈x/128⌉ = 1 → c = 2·Citer·2 + 4τ = 4·3.39e-8 + 4·7.96e-10.
        let tiles = TileSizes::new_1d(4, 100);
        assert!((spec.compute_time(p, &tiles) - 1.38784e-7).abs() < 1e-18);
        // Eqns 10/12: T_tile(k) = m' + c + (k−1)·max(m', c).
        assert_eq!(spec.unit_time(3.0, 5.0, 1, 1), 8.0);
        assert_eq!(spec.unit_time(3.0, 5.0, 3, 1), 18.0);
        // Eqn 3: N_w = 2⌈4096/16⌉.
        let size = ProblemSize::new_1d(1 << 20, 4096);
        assert_eq!(spec.predict(p, &size, &TileSizes::new_1d(16, 64)).nw, 512);
    }

    #[test]
    fn rank2_equations_at_hand_computed_values() {
        let spec = DimSpec::of(StencilDim::D2);
        let tiles = TileSizes::new_2d(8, 16, 32);
        // Eqn 13: m_i = t_S2 (t_S1 + 2t_T) = 32·(16 + 16).
        assert_eq!(spec.mi_words(&tiles), 1024);
        // Eqn 19: M_tile = 2(t_S1 + t_T + 1)(t_S2 + t_T + 1) = 2·25·41.
        assert_eq!(spec.mtile_words(&tiles), 2050);
        // Section 4.2.2: ⌈(S2 + t_T)/t_S2⌉ = ⌈108/32⌉ sub-prisms.
        assert_eq!(spec.subunits(&ProblemSize::new_2d(512, 100, 64), &tiles), 4);
        // Eqn 16: (m' + c)·N_sub without hyper-threading,
        // m' + k·max(m', c)·N_sub with it.
        assert_eq!(spec.unit_time(2.0, 3.0, 1, 10), 50.0);
        assert_eq!(spec.unit_time(2.0, 3.0, 2, 10), 62.0);
    }

    #[test]
    fn rank3_equations_at_hand_computed_values() {
        let spec = DimSpec::of(StencilDim::D3);
        // Eqn 24: m_i = t_S2 t_S3 (t_S1 + 2t_T) = 16·8·(8 + 8).
        assert_eq!(spec.mi_words(&TileSizes::new_3d(4, 8, 16, 8)), 2048);
        // Eqn 19's 3D extension: 2·(8 + 5)(16 + 5)(16 + 5).
        assert_eq!(spec.mtile_words(&TileSizes::new_3d(4, 8, 16, 16)), 11466);
        // Eqn 23: ⌈388·388 / (32·32)⌉ = ⌈147.02⌉ sub-slabs.
        let size = ProblemSize::new_3d(384, 384, 384, 128);
        assert_eq!(spec.subunits(&size, &TileSizes::new_3d(4, 8, 32, 32)), 148);
        // Eqn 23 at the f64-rounding boundary: (96+16)(416+16) / (6·64)
        // = 48384/384 = 126 exactly, but the printed factor form rounds
        // 112/6 up, so ⌈18.666…·6.75⌉ = 127.
        let size = ProblemSize::new_3d(512, 96, 416, 64);
        assert_eq!(spec.subunits(&size, &TileSizes::new_3d(16, 8, 6, 64)), 126);
        let (r2, r3) = ((96.0f64 + 16.0) / 6.0, (416.0f64 + 16.0) / 64.0);
        assert_eq!((r2 * r3).ceil() as u64, 127, "f64 form would mis-round");
        // Eqns 28/29: the slab time has the prism's two cases.
        assert_eq!(spec.unit_time(1.0, 2.0, 1, 5), 15.0);
        assert_eq!(spec.unit_time(1.0, 2.0, 3, 5), 31.0);
    }
}
