//! The feasible tile-size space of the paper's Eqn 31.
//!
//! ```text
//! minimize  T_alg(t_S1, t_S2, t_T)
//! subject to  M_tile ≤ M_SM / threadblock      (48 KB per-block cap)
//!             k ≤ MTB_SM
//!             k · M_tile ≤ M_SM
//!             t_S1 integer, t_S2 multiple of 32, t_T even
//! ```
//!
//! For 3D stencils the warp-alignment constraint moves to the innermost
//! dimension `t_S3`; `t_S2` becomes a small free integer like `t_S1`.

use gpu_sim::{DeviceConfig, Workload};
use hhc_tiling::TileSizes;
use serde::{Deserialize, Serialize};
use stencil_core::StencilDim;

/// Bounds of the enumerated feasible space. The defaults cover the same
/// ranges the paper's experiments explore; enlarging them only grows the
/// (cheap) model sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceConfig {
    /// Candidate even time-tile extents `t_T`.
    pub t_t: Vec<usize>,
    /// Candidate hexagon bases `t_S1`.
    pub t_s1: Vec<usize>,
    /// Candidate free inner extents (non-innermost, 3D only).
    pub t_s_mid: Vec<usize>,
    /// Candidate warp-aligned innermost extents (multiples of 32).
    pub t_s_inner: Vec<usize>,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            t_t: vec![2, 4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64],
            t_s1: vec![1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128],
            t_s_mid: vec![2, 4, 6, 8, 12, 16, 24, 32],
            t_s_inner: vec![32, 64, 96, 128, 160, 192, 224, 256, 320, 384, 448, 512],
        }
    }
}

/// The model-level `M_tile` for a tile-size candidate (the
/// dimension-generic [`time_model::DimSpec`] footprint).
pub fn mtile_words(dim: StencilDim, tiles: &TileSizes) -> u64 {
    time_model::mtile_words(dim, tiles)
}

/// [`mtile_words`] for a radius-`r` stencil: halos and skews widen with
/// the hexagon slope, so larger-radius descriptors fit fewer candidate
/// tiles under the shared-memory cap.
pub fn mtile_words_r(dim: StencilDim, radius: u64, tiles: &TileSizes) -> u64 {
    time_model::DimSpec::with_radius(dim, radius).mtile_words(tiles)
}

/// The candidate-value axes of the feasible space, in coordinate order
/// `[t_T, t_S1, (t_S_mid…,) t_S_inner]`: the hexagon base and time
/// extent always, then the free middle extents, then the warp-aligned
/// innermost extent (absent for 1D, where the hexagon base *is* the
/// innermost dimension). The solvers walk the same axes, so the
/// comparison with the exhaustive sweep is apples-to-apples.
pub fn coordinate_axes(cfg: &SpaceConfig, dim: StencilDim) -> Vec<&[usize]> {
    let rank = dim.rank();
    let mut axes: Vec<&[usize]> = Vec::with_capacity(rank + 1);
    axes.push(&cfg.t_t);
    axes.push(&cfg.t_s1);
    for _ in 2..rank {
        axes.push(&cfg.t_s_mid);
    }
    if rank >= 2 {
        axes.push(&cfg.t_s_inner);
    }
    axes
}

/// Whether a candidate satisfies Eqn 31's constraints on `device`.
pub fn is_feasible(device: &DeviceConfig, dim: StencilDim, tiles: &TileSizes) -> bool {
    is_feasible_r(device, dim, 1, tiles)
}

/// [`is_feasible`] for a radius-`r` stencil (radius-aware `M_tile`).
pub fn is_feasible_r(
    device: &DeviceConfig,
    dim: StencilDim,
    radius: u64,
    tiles: &TileSizes,
) -> bool {
    if tiles.validate(dim).is_err() {
        return false;
    }
    let mtile = mtile_words_r(dim, radius, tiles);
    // M_tile ≤ M_SM/threadblock (the 48 KB per-block cap); the k·M_tile
    // ≤ M_SM and k ≤ MTB_SM constraints are then satisfied by the
    // definition of k (Eqn 11).
    mtile <= device.shared_per_block_words
}

/// Enumerate the feasible tile-size space for a stencil dimensionality:
/// the cartesian product of [`coordinate_axes`] in lexicographic order
/// (last axis fastest), filtered by [`is_feasible`].
pub fn feasible_tiles(device: &DeviceConfig, dim: StencilDim, cfg: &SpaceConfig) -> Vec<TileSizes> {
    feasible_tiles_r(device, dim, 1, cfg)
}

/// [`feasible_tiles`] for a radius-`r` stencil. Radius 1 enumerates the
/// identical space in the identical order (the radius only enters the
/// `M_tile` filter, through exact integer arithmetic).
pub fn feasible_tiles_r(
    device: &DeviceConfig,
    dim: StencilDim,
    radius: u64,
    cfg: &SpaceConfig,
) -> Vec<TileSizes> {
    let axes = coordinate_axes(cfg, dim);
    let mut out = Vec::new();
    let mut enumerated = 0u64;
    if axes.iter().all(|a| !a.is_empty()) {
        let mut idx = vec![0usize; axes.len()];
        let mut coords = vec![0usize; axes.len()];
        'space: loop {
            for (c, (&i, axis)) in coords.iter_mut().zip(idx.iter().zip(&axes)) {
                *c = axis[i];
            }
            let t = TileSizes::from_coords(dim, &coords).expect("one coordinate per axis");
            enumerated += 1;
            if is_feasible_r(device, dim, radius, &t) {
                out.push(t);
            }
            let mut d = axes.len();
            while d > 0 {
                d -= 1;
                idx[d] += 1;
                if idx[d] < axes[d].len() {
                    continue 'space;
                }
                idx[d] = 0;
            }
            break;
        }
    }
    if obs::active() {
        obs::counter("opt.space_enumerated", enumerated);
        obs::counter("opt.space_feasible", out.len() as u64);
        obs::counter("opt.space_pruned", enumerated - out.len() as u64);
    }
    out
}

/// [`feasible_tiles`] for a [`Workload`]: the space of Eqn 31 for the
/// workload's device, dimensionality, and stencil radius.
pub fn feasible_space(w: &Workload, cfg: &SpaceConfig) -> Vec<TileSizes> {
    feasible_tiles_r(&w.device, w.dim(), w.radius().max(1) as u64, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasible_space_is_nonempty_and_respects_cap() {
        let d = DeviceConfig::gtx980();
        let cfg = SpaceConfig::default();
        for dim in [StencilDim::D1, StencilDim::D2, StencilDim::D3] {
            let tiles = feasible_tiles(&d, dim, &cfg);
            assert!(tiles.len() > 50, "{dim:?}: {}", tiles.len());
            for t in &tiles {
                assert!(mtile_words(dim, t) <= d.shared_per_block_words, "{t:?}");
                assert_eq!(t.t_t % 2, 0);
            }
        }
    }

    #[test]
    fn oversized_tiles_are_infeasible() {
        let d = DeviceConfig::gtx980();
        // 2(65+57)(513+57)-ish ≫ 12288 words.
        let t = TileSizes::new_2d(56, 64, 512);
        assert!(!is_feasible(&d, StencilDim::D2, &t));
    }

    #[test]
    fn inner_dimension_is_warp_aligned() {
        let d = DeviceConfig::gtx980();
        let cfg = SpaceConfig::default();
        for t in feasible_tiles(&d, StencilDim::D2, &cfg) {
            assert_eq!(t.t_s[1] % 32, 0, "{t:?}");
        }
        for t in feasible_tiles(&d, StencilDim::D3, &cfg) {
            assert_eq!(t.t_s[2] % 32, 0, "{t:?}");
        }
    }

    #[test]
    fn odd_tt_rejected_by_feasibility() {
        let d = DeviceConfig::gtx980();
        let t = TileSizes {
            t_t: 3,
            t_s: [8, 32, 1],
        };
        assert!(!is_feasible(&d, StencilDim::D2, &t));
    }

    #[test]
    fn enumeration_order_is_lexicographic_in_the_axes() {
        // The generic odometer must reproduce the historical nested-loop
        // order exactly (result files are diffed byte-for-byte).
        let d = DeviceConfig::gtx980();
        let cfg = SpaceConfig::default();
        let got = feasible_tiles(&d, StencilDim::D3, &cfg);
        let mut expect = Vec::new();
        for &t_t in &cfg.t_t {
            for &s1 in &cfg.t_s1 {
                for &s2 in &cfg.t_s_mid {
                    for &s3 in &cfg.t_s_inner {
                        let t = TileSizes::new_3d(t_t, s1, s2, s3);
                        if is_feasible(&d, StencilDim::D3, &t) {
                            expect.push(t);
                        }
                    }
                }
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn workload_space_matches_loose_arguments() {
        let d = DeviceConfig::gtx980();
        let cfg = SpaceConfig::default();
        let w = Workload::new(
            d.clone(),
            stencil_core::StencilDescriptor::heat2d(),
            stencil_core::ProblemSize::new_2d(512, 512, 64),
        )
        .unwrap();
        assert_eq!(
            feasible_space(&w, &cfg),
            feasible_tiles(&d, StencilDim::D2, &cfg)
        );
    }

    #[test]
    fn larger_radius_shrinks_the_space_monotonically() {
        let d = DeviceConfig::gtx980();
        let cfg = SpaceConfig::default();
        for dim in [StencilDim::D1, StencilDim::D2, StencilDim::D3] {
            let r1 = feasible_tiles_r(&d, dim, 1, &cfg);
            let r2 = feasible_tiles_r(&d, dim, 2, &cfg);
            assert_eq!(r1, feasible_tiles(&d, dim, &cfg));
            assert!(!r2.is_empty(), "{dim:?}");
            assert!(r2.len() <= r1.len(), "{dim:?}");
            // Radius 2 is a filtered subsequence of radius 1.
            let mut it = r1.iter();
            for t in &r2 {
                assert!(it.any(|u| u == t), "{t:?} not in radius-1 order");
            }
        }
    }

    #[test]
    fn descriptor_radius_flows_into_workload_space() {
        let d = DeviceConfig::gtx980();
        let cfg = SpaceConfig::default();
        let w = Workload::new(
            d.clone(),
            stencil_core::StencilDescriptor::lap4_2d(),
            stencil_core::ProblemSize::new_2d(512, 512, 64),
        )
        .unwrap();
        assert_eq!(
            feasible_space(&w, &cfg),
            feasible_tiles_r(&d, StencilDim::D2, 2, &cfg)
        );
    }

    #[test]
    fn space_size_is_in_the_paper_ballpark() {
        // The paper says the feasible space is ≥ 200× the 850-point
        // baseline per experiment when thread counts are included; the
        // tile-size grid alone lands in the low thousands.
        let d = DeviceConfig::gtx980();
        let n = feasible_tiles(&d, StencilDim::D2, &SpaceConfig::default()).len();
        assert!((200..20_000).contains(&n), "n = {n}");
    }
}
