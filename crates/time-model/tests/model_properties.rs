//! Property tests over the analytical model: scaling laws, monotonicity,
//! and internal consistency across randomized configurations.

use gpu_sim::DeviceConfig;
use hhc_tiling::TileSizes;
use proptest::prelude::*;
use stencil_core::{ProblemSize, StencilDim};
use time_model::{DimSpec, MeasuredParams, ModelParams};

fn params() -> ModelParams {
    ModelParams::from_measured(
        &DeviceConfig::gtx980(),
        &MeasuredParams::paper_gtx980(3.39e-8),
    )
}

/// Every property here is over 2D tiles at the paper's radius 1.
fn spec() -> DimSpec {
    DimSpec::of(StencilDim::D2)
}

fn tiles_2d() -> impl Strategy<Value = TileSizes> {
    (1usize..16, 1usize..48, 1usize..12)
        .prop_map(|(h, s1, s2)| TileSizes::new_2d(2 * h, s1, 32 * s2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Predictions are finite and positive over the whole space.
    #[test]
    fn predictions_are_finite_positive(tiles in tiles_2d(), s in 6usize..12, t in 4usize..12) {
        let p = params();
        let size = ProblemSize::new_2d(1 << s, 1 << s, 1 << t);
        let pred = spec().predict(&p, &size, &tiles);
        prop_assert!(pred.talg.is_finite() && pred.talg > 0.0);
        prop_assert!(pred.k >= 1 && pred.k <= 32);
        prop_assert!(pred.m_prime > 0.0 && pred.c > 0.0);
    }

    /// Doubling T (a multiple of t_T) almost exactly doubles T_alg: the
    /// wavefront count is the only T-dependent term.
    #[test]
    fn talg_linear_in_time(tiles in tiles_2d(), s in 7usize..11) {
        let p = params();
        let t1 = tiles.t_t * 64;
        let a = spec().predict(&p, &ProblemSize::new_2d(1 << s, 1 << s, t1), &tiles).talg;
        let b = spec().predict(&p, &ProblemSize::new_2d(1 << s, 1 << s, 2 * t1), &tiles).talg;
        let ratio = b / a;
        prop_assert!((1.98..=2.02).contains(&ratio), "ratio = {ratio}");
    }

    /// The refined (tail-aware) model never exceeds the printed model and
    /// never undercuts it by more than the final wave's share.
    #[test]
    fn refined_bounded_by_printed(tiles in tiles_2d(), s in 7usize..12, t in 5usize..10) {
        let p = params();
        let size = ProblemSize::new_2d(1 << s, 1 << s, 1 << t);
        let printed = spec().predict(&p, &size, &tiles);
        let refined = spec().predict_refined(&p, &size, &tiles);
        prop_assert!(refined.talg <= printed.talg * (1.0 + 1e-9));
        // Lower bound: strip the launch overhead from both sides; the
        // refinement can remove at most one full wave per kernel.
        let launch = printed.nw as f64 * p.t_sync();
        let kernel_printed = printed.talg - launch;
        let kernel_refined = refined.talg - launch;
        let rounds = printed.w.div_ceil(printed.k as u64).div_ceil(p.n_sm as u64) as f64;
        prop_assert!(
            kernel_refined >= kernel_printed * (1.0 - 1.0 / rounds) - 1e-12,
            "refined kernel time {kernel_refined:e} below bound (printed {kernel_printed:e}, rounds {rounds})"
        );
    }

    /// The model's memory term scales linearly with the footprint: for
    /// fixed t_T/t_S1, m' is proportional to t_S2 up to the τ offsets.
    #[test]
    fn m_prime_linear_in_ts2(h in 1usize..12, s1 in 1usize..32, m in 1usize..6) {
        let p = params();
        let size = ProblemSize::new_2d(4096, 4096, 1024);
        let a = spec().predict(&p, &size, &TileSizes::new_2d(2 * h, s1, 32 * m));
        let b = spec().predict(&p, &size, &TileSizes::new_2d(2 * h, s1, 64 * m));
        let lin = (a.m_prime - 2.0 * p.tau_sync()) * 2.0 + 2.0 * p.tau_sync();
        prop_assert!((b.m_prime - lin).abs() / lin < 1e-9);
    }

    /// Larger tiles never increase the kernel count.
    #[test]
    fn kernel_count_monotone_in_tt(s1 in 1usize..32, s2 in 1usize..8, h in 1usize..8) {
        let p = params();
        let size = ProblemSize::new_2d(2048, 2048, 512);
        let small = spec().predict(&p, &size, &TileSizes::new_2d(2 * h, s1, 32 * s2));
        let big = spec().predict(&p, &size, &TileSizes::new_2d(4 * h, s1, 32 * s2));
        prop_assert!(big.nw <= small.nw);
    }

    /// k never exceeds what shared memory admits.
    #[test]
    fn k_respects_shared_memory(tiles in tiles_2d()) {
        let p = params();
        let size = ProblemSize::new_2d(4096, 4096, 512);
        let pred = spec().predict(&p, &size, &tiles);
        prop_assert!(pred.k as u64 * pred.mtile_words <= p.m_sm_words.max(pred.mtile_words));
    }
}
