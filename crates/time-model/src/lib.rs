//! # time-model
//!
//! The paper's contribution: a simple, deliberately optimistic,
//! analytical model `T_alg` for the execution time of HHC-tiled stencil
//! code (Section 4, Eqns 2–30).
//!
//! The model is an analytic function of
//!
//! * **hardware parameters** available from the device specification
//!   (`n_SM`, `n_V`, `M_SM`, `MTB_SM` — paper Table 2),
//! * **software parameters** chosen by the compiler/user (tile sizes
//!   `t_T`, `t_{S1}`, `t_{S2}`, `t_{S3}`),
//! * **problem parameters** (`S_i`, `T`), and
//! * **measured parameters** obtained from micro-benchmarks (`L`,
//!   `τ_sync`, `T_sync` — Table 3 — and the stencil-specific `Citer` —
//!   Table 4), produced here by the `microbench` crate running against
//!   the `gpu-sim` machine.
//!
//! It deliberately ignores thread counts, register pressure, divergence,
//! boundary raggedness, and memory latency — that is the point: it is
//! accurate *where it matters* (within 20 % of the best) and cheap
//! enough to drive tile-size selection (the `tile-opt` crate).
//!
//! The one way into the model is [`DimSpec`], the stencil's rank and
//! halo radius: `DimSpec::for_stencil(&stencil).predict(..)`.

pub mod dimspec;
pub mod params;
pub mod refined;
pub mod roofline;

pub use dimspec::DimSpec;
pub use params::{MeasuredParams, ModelParams};

use serde::{Deserialize, Serialize};

/// The model's output for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted total execution time `T_alg` in seconds.
    pub talg: f64,
    /// The hyper-threading factor `k` the model assumed (Eqn 11, from
    /// the shared-memory bound and `MTB_SM`; register pressure is
    /// unmodelable — paper Section 6.1).
    pub k: usize,
    /// Number of wavefronts / kernel launches `N_w` (Eqn 3).
    pub nw: usize,
    /// Blocks per wavefront `w` (Eqn 5).
    pub w: u64,
    /// Per-tile (per-sub-tile for 2D/3D) memory time `m'`.
    pub m_prime: f64,
    /// Per-tile compute time `c`.
    pub c: f64,
    /// Modeled shared-memory footprint `M_tile` in words (Eqn 19).
    pub mtile_words: u64,
}

impl Prediction {
    /// Whether the modeled tile is memory-bound (`m' > c`) — the regime
    /// where hyper-threading cannot hide the transfers.
    pub fn memory_bound(&self) -> bool {
        self.m_prime > self.c
    }
}

/// Multiplicative correction factors for the model's two measured time
/// terms, fitted from observed (predicted, measured) pairs by the
/// `calib` crate.
///
/// The model's per-tile time splits into a memory term
/// `m' = (m_i + m_o)·L + 2 τ_sync` (Eqns 8/14/25) and a compute term
/// `c = 2 C_iter Σ + t_T τ_sync` (Eqns 9/15/27). A correction rescales
/// each term's *measured-parameter* contribution:
///
/// * `mem_scale` multiplies the whole of `m'` (both `L` and the
///   barrier latency are transfer-path measurements that drift
///   together);
/// * `citer_scale` multiplies only the `2 C_iter Σ` product — the
///   `t_T τ_sync` addend stays unscaled, because `τ_sync` is already
///   covered by the memory-path factor and double-scaling it would let
///   the two factors fight over the same evidence.
///
/// Structural quantities (`k`, `N_w`, `w`, `M_tile`) are never
/// touched: calibration refines *time*, not geometry. A scaled tile
/// can, however, legitimately flip [`Prediction::memory_bound`].
///
/// [`DimSpec::predict`] is exactly [`DimSpec::predict_with`] with
/// `None`: when no correction is supplied the arithmetic is the
/// pre-calibration expression, not a multiplication by `1.0` —
/// uncorrected predictions stay bit-identical by construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Correction {
    /// Factor on the `2 C_iter Σ` compute product.
    pub citer_scale: f64,
    /// Factor on the memory term `m'`.
    pub mem_scale: f64,
}

impl Correction {
    /// The no-op correction. Note `predict_with(.., Some(&IDENTITY))`
    /// still produces bit-identical output to `None` — multiplying by
    /// exactly `1.0` is exact in IEEE-754 — but callers should pass
    /// `None` when uncalibrated so the intent is visible.
    pub const IDENTITY: Correction = Correction {
        citer_scale: 1.0,
        mem_scale: 1.0,
    };

    /// Whether both factors are exactly 1.0.
    pub fn is_identity(&self) -> bool {
        self.citer_scale == 1.0 && self.mem_scale == 1.0
    }

    /// A usable correction has finite, strictly positive factors —
    /// anything else would reorder or destroy the Eqn-31 sweep.
    pub fn is_valid(&self) -> bool {
        self.citer_scale.is_finite()
            && self.citer_scale > 0.0
            && self.mem_scale.is_finite()
            && self.mem_scale > 0.0
    }
}

/// Shared model pieces used by all three dimensionalities.
pub(crate) mod common {
    use super::ModelParams;

    /// `N_w = 2⌈T/t_T⌉` (Eqn 3, ε dropped as the paper does).
    pub fn wavefronts(time: usize, t_t: usize) -> usize {
        2 * time.div_ceil(t_t)
    }

    /// `w = ⌈S1 / (2·t_S1 + r·t_T)⌉` (Eqn 5) for a radius-`r` stencil:
    /// the hexagon pitch grows with the slope (integer arithmetic, so
    /// `r = 1` is exactly the paper's `2·t_S1 + t_T`).
    ///
    /// Note: the paper's Eqn 22 prints the 3D wavefront width as
    /// `⌈S1/(t_S1 + t_T)⌉`, inconsistent with the hexagon pitch it
    /// derives in Section 4.1 (`2t_S + t_T`) and with Eqns 5/17. We use
    /// the pitch form for all dimensionalities and record the deviation
    /// in EXPERIMENTS.md.
    pub fn wavefront_width(s1: usize, t_s1: usize, t_t: usize, r: u64) -> u64 {
        (s1 as u64).div_ceil(2 * t_s1 as u64 + r * t_t as u64)
    }

    /// The compute-row summation `Σ_x ⌈x·inner/n_V⌉` over the hexagon's
    /// bottom-half row widths, common to Eqns 9, 15, and 27 (`inner` = 1,
    /// `t_S2`, or `t_S2·t_S3`; the factor 2 outside accounts for the
    /// mirrored top half).
    ///
    /// The paper's printed bounds are `x = t_S1 … w_tile = t_S1 + t_T − 2`
    /// — exact for *its* hexagon discretization, whose base row has
    /// `t_S1` points. Our exact partition (see `hhc_tiling::hex`) has
    /// rows of `t_S1 + 1 … t_S1 + t_T − 1` points (same count of rows,
    /// every width one larger), so the geometry-faithful sum runs over
    /// those widths. The two agree to `O(1/t_S1)`; using the printed
    /// bounds on our geometry would *halve* the predicted compute of
    /// degenerate `t_S1 = 1` tiles and pin the model minimum to them.
    ///
    /// At radius `r` the slope-`r` hexagon's bottom-half rows widen by
    /// `2r` per time step, running `t_S1 + r … t_S1 + r·(t_T − 1)`: the
    /// same `t_T/2` rows, each `r×` wider in the growth term.
    pub fn row_sum(p: &ModelParams, t_s1: usize, t_t: usize, inner: u64, r: u64) -> u64 {
        let first = t_s1 as u64 + r;
        let last = t_s1 as u64 + r * (t_t as u64 - 1);
        let mut sum = 0u64;
        let mut x = first;
        while x <= last {
            sum += (x * inner).div_ceil(p.n_v as u64);
            x += 2 * r;
        }
        sum
    }

    /// The grid term `⌈⌈w/k⌉ / n_SM⌉` of Eqns 6/17/30.
    pub fn grid_rounds(p: &ModelParams, w: u64, k: usize) -> u64 {
        w.div_ceil(k as u64).div_ceil(p.n_sm as u64)
    }

    /// The model's hyper-threading factor: `min(⌊M_SM/M_tile⌋, MTB_SM)`
    /// clamped to ≥ 1 (Eqn 11's shared-memory bound; `R_tile` is
    /// unmodelable per Section 6.1).
    pub fn hyperthreading(p: &ModelParams, mtile_words: u64) -> usize {
        let by_shared = (p.m_sm_words / mtile_words.max(1)) as usize;
        by_shared.min(p.mtb_sm).max(1)
    }

    /// Effective hyper-threading: no SM can host more resident blocks
    /// than the wavefront supplies, `k_eff = min(k, ⌈w/n_SM⌉)`.
    ///
    /// The paper's Eqns 12/16/29 charge `k` blocks of work per SM
    /// unconditionally; for the 3D experiments (where `w` is a few tens
    /// of blocks) that would overcount several-fold — a cap their own
    /// validation data must embody. We make it explicit.
    pub fn effective_k(p: &ModelParams, w: u64, k: usize) -> usize {
        k.min(w.div_ceil(p.n_sm as u64).max(1) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use hhc_tiling::TileSizes;
    use stencil_core::ProblemSize;

    fn predict(p: &ModelParams, size: &ProblemSize, tiles: &TileSizes) -> Prediction {
        DimSpec::of(size.dim).predict(p, size, tiles)
    }

    fn params() -> ModelParams {
        ModelParams::from_measured(
            &DeviceConfig::gtx980(),
            &MeasuredParams {
                l_word: 2.944e-11,
                tau_sync: 7.96e-10,
                t_sync: 9.24e-7,
                citer: 3.39e-8,
            },
        )
    }

    #[test]
    fn dispatches_by_dimension() {
        let p = params();
        let p1 = predict(
            &p,
            &ProblemSize::new_1d(4096, 512),
            &TileSizes::new_1d(8, 32),
        );
        let p2 = predict(
            &p,
            &ProblemSize::new_2d(1024, 1024, 128),
            &TileSizes::new_2d(8, 16, 32),
        );
        let p3 = predict(
            &p,
            &ProblemSize::new_3d(128, 128, 128, 32),
            &TileSizes::new_3d(4, 8, 16, 16),
        );
        assert!(p1.talg > 0.0 && p2.talg > 0.0 && p3.talg > 0.0);
        // Bigger iteration spaces take longer.
        assert!(p2.talg > p1.talg);
        assert!(p3.talg > p1.talg);
    }

    #[test]
    fn row_sum_matches_hand_example() {
        // t_S1 = 4, t_T = 6: geometry-exact bottom-half widths x ∈
        // {5, 7, 9}; n_V = 128; inner = 64 →
        // ⌈320/128⌉ + ⌈448/128⌉ + ⌈576/128⌉ = 3 + 4 + 5 = 12.
        let p = params();
        assert_eq!(common::row_sum(&p, 4, 6, 64, 1), 12);
    }

    #[test]
    fn wavefront_count_even_and_ceiled() {
        assert_eq!(common::wavefronts(100, 10), 20);
        assert_eq!(common::wavefronts(101, 10), 22);
    }

    #[test]
    fn talg_monotone_in_time_steps() {
        let p = params();
        let t1 = predict(
            &p,
            &ProblemSize::new_2d(512, 512, 64),
            &TileSizes::new_2d(8, 16, 32),
        );
        let t2 = predict(
            &p,
            &ProblemSize::new_2d(512, 512, 128),
            &TileSizes::new_2d(8, 16, 32),
        );
        assert!(t2.talg > t1.talg);
    }

    #[test]
    fn hyperthreading_respects_mtb() {
        let p = params();
        assert_eq!(common::hyperthreading(&p, 1), p.mtb_sm);
        assert_eq!(common::hyperthreading(&p, p.m_sm_words / 2), 2);
        assert_eq!(common::hyperthreading(&p, p.m_sm_words * 2), 1);
    }
}
