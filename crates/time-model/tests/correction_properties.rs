//! Property tests of the calibration [`Correction`] hook: for *any*
//! positive factors, corrections rescale exactly the two terms they own
//! and nothing else — geometry is untouched, the corrected time is
//! monotone in each factor, and the identity correction (or no
//! correction) reproduces the uncorrected model bit for bit.

use gpu_sim::DeviceConfig;
use hhc_tiling::TileSizes;
use proptest::prelude::*;
use stencil_core::{ProblemSize, StencilDim};
use time_model::{Correction, DimSpec, MeasuredParams, ModelParams};

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

/// Positive, finite correction factors spanning well past the fitter's
/// winsorization clamp in both directions (2^-5 .. 2^5 in
/// tenth-of-an-octave steps).
fn factor() -> impl Strategy<Value = f64> {
    (-50i32..=50).prop_map(|e| (e as f64 / 10.0).exp2())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Some(&IDENTITY)` and `None` are bit-identical to the plain
    /// `predict` — the uncalibrated path has no hidden `× 1.0`.
    #[test]
    fn identity_correction_is_bit_identical_to_none(
        tiles in tiles_2d(), s in 6usize..12, t in 4usize..12
    ) {
        let p = params();
        let size = ProblemSize::new_2d(1 << s, 1 << s, 1 << t);
        let plain = spec().predict(&p, &size, &tiles);
        for pred in [
            spec().predict_with(&p, &size, &tiles, None),
            spec().predict_with(&p, &size, &tiles, Some(&Correction::IDENTITY)),
        ] {
            prop_assert_eq!(pred.talg.to_bits(), plain.talg.to_bits());
            prop_assert_eq!(pred.m_prime.to_bits(), plain.m_prime.to_bits());
            prop_assert_eq!(pred.c.to_bits(), plain.c.to_bits());
            prop_assert_eq!(
                (pred.k, pred.nw, pred.w, pred.mtile_words),
                (plain.k, plain.nw, plain.w, plain.mtile_words)
            );
        }
    }

    /// Geometry — residency `k`, wavefront count/width, shared-memory
    /// footprint — is never corrected, whatever the factors.
    #[test]
    fn geometry_is_never_corrected(
        tiles in tiles_2d(), s in 6usize..12, t in 4usize..12,
        citer_scale in factor(), mem_scale in factor()
    ) {
        let p = params();
        let size = ProblemSize::new_2d(1 << s, 1 << s, 1 << t);
        let corr = Correction { citer_scale, mem_scale };
        let raw = spec().predict(&p, &size, &tiles);
        let cal = spec().predict_with(&p, &size, &tiles, Some(&corr));
        prop_assert_eq!(
            (cal.k, cal.nw, cal.w, cal.mtile_words),
            (raw.k, raw.nw, raw.w, raw.mtile_words)
        );
        prop_assert!(cal.talg.is_finite() && cal.talg > 0.0);
    }

    /// The memory factor rescales `m'` wholesale — one exact IEEE
    /// multiply on the uncorrected value, nothing more.
    #[test]
    fn mem_scale_rescales_m_prime_exactly(
        tiles in tiles_2d(), s in 6usize..12, t in 4usize..12,
        citer_scale in factor(), mem_scale in factor()
    ) {
        let p = params();
        let size = ProblemSize::new_2d(1 << s, 1 << s, 1 << t);
        let corr = Correction { citer_scale, mem_scale };
        let raw = spec().predict(&p, &size, &tiles);
        let cal = spec().predict_with(&p, &size, &tiles, Some(&corr));
        prop_assert_eq!(cal.m_prime.to_bits(), (mem_scale * raw.m_prime).to_bits());
        // The Citer factor owns only the compute product: the `t_T
        // τ_sync` offset survives unscaled, so corrected `c` stays
        // above it and collapses to it as the factor goes to zero.
        prop_assert!(cal.c > tiles.t_t as f64 * p.tau_sync() * (1.0 - 1e-12));
        // The memory-bound classification is self-consistent with the
        // corrected terms the prediction carries.
        prop_assert_eq!(cal.memory_bound(), cal.m_prime > cal.c);
    }

    /// T_alg is monotone in each factor separately: inflating a term's
    /// correction can never make the predicted time shrink (max and +
    /// are monotone, and each factor feeds exactly one operand).
    #[test]
    fn talg_is_monotone_in_each_factor(
        tiles in tiles_2d(), s in 6usize..12, t in 4usize..12,
        a in factor(), b in factor(), mem_scale in factor()
    ) {
        let p = params();
        let size = ProblemSize::new_2d(1 << s, 1 << s, 1 << t);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let low = spec().predict_with(&p, &size, &tiles, Some(&Correction { citer_scale: lo, mem_scale }));
        let high = spec().predict_with(&p, &size, &tiles, Some(&Correction { citer_scale: hi, mem_scale }));
        prop_assert!(high.talg >= low.talg, "citer {lo}->{hi}: {} < {}", high.talg, low.talg);
        let low = spec().predict_with(&p, &size, &tiles, Some(&Correction { citer_scale: a, mem_scale: lo }));
        let high = spec().predict_with(&p, &size, &tiles, Some(&Correction { citer_scale: a, mem_scale: hi }));
        prop_assert!(high.talg >= low.talg, "mem {lo}->{hi}: {} < {}", high.talg, low.talg);
    }
}
