//! Ranking invariants of the corrected sweep: whatever positive factors
//! a calibration store serves, [`model_sweep_spec`] must evaluate the
//! same Eqn-31 candidate set in the same order, its ranking helpers must
//! stay internally consistent, and the no-correction / identity paths
//! must reproduce the uncorrected sweep bit for bit.

use gpu_sim::DeviceConfig;
use hhc_tiling::TileSizes;
use proptest::prelude::*;
use stencil_core::{ProblemSize, StencilDim};
use tile_opt::space::{feasible_tiles, SpaceConfig};
use tile_opt::{model_sweep, model_sweep_spec, talg_min, within_fraction};
use time_model::{Correction, DimSpec, MeasuredParams, ModelParams};

fn params() -> ModelParams {
    ModelParams::from_measured(
        &DeviceConfig::gtx980(),
        &MeasuredParams::paper_gtx980(3.39e-8),
    )
}

fn spec() -> DimSpec {
    DimSpec::of(StencilDim::D2)
}

fn space() -> Vec<TileSizes> {
    feasible_tiles(&DeviceConfig::gtx980(), spec(), &SpaceConfig::default())
}

/// Positive, finite factors spanning past the fitter's clamp range
/// (2^-5 .. 2^5 in tenth-of-an-octave steps).
fn factor() -> impl Strategy<Value = f64> {
    (-50i32..=50).prop_map(|e| (e as f64 / 10.0).exp2())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any positive correction: the candidate set and its order
    /// are the uncorrected sweep's (the Eqn-31 space is geometry, which
    /// corrections never touch), each entry equals a direct
    /// `predict_with` call bit for bit, and the ranking helpers agree
    /// with the corrected times they are fed.
    #[test]
    fn corrected_sweep_preserves_ranking_invariants(
        citer_scale in factor(), mem_scale in factor(), s in 8usize..11
    ) {
        let p = params();
        let size = ProblemSize::new_2d(1 << s, 1 << s, 512);
        let tiles = space();
        let corr = Correction { citer_scale, mem_scale };
        let raw = model_sweep(&p, &size, &tiles);
        let cal = model_sweep_spec(spec(), &p, &size, &tiles, Some(&corr));
        prop_assert_eq!(cal.len(), raw.len());
        for (i, ((ct, cp), (rt, _))) in cal.iter().zip(&raw).enumerate() {
            prop_assert_eq!(ct, rt, "candidate order changed at {}", i);
            let direct = spec().predict_with(&p, &size, ct, Some(&corr));
            prop_assert_eq!(cp.talg.to_bits(), direct.talg.to_bits());
            prop_assert_eq!(
                (cp.k, cp.nw, cp.w, cp.mtile_words),
                (direct.k, direct.nw, direct.w, direct.mtile_words)
            );
        }
        // talg_min really is the minimum of the corrected sweep, and the
        // within-band set contains it, is sorted, and respects the band.
        let (tmin, best) = talg_min(&cal).unwrap();
        prop_assert!(cal.iter().all(|(_, p)| p.talg >= best.talg));
        let within = within_fraction(&cal, 0.10);
        prop_assert!(!within.is_empty());
        prop_assert_eq!(within[0].0, tmin);
        prop_assert!(within.windows(2).all(|w| w[0].1.talg <= w[1].1.talg));
        prop_assert!(within.iter().all(|(_, p)| p.talg <= best.talg * 1.10));
    }

    /// `None` and `Some(&IDENTITY)` sweeps are bit-identical to the
    /// uncorrected sweep — candidate for candidate, field for field.
    #[test]
    fn identity_sweep_is_bit_identical(s in 8usize..11) {
        let p = params();
        let size = ProblemSize::new_2d(1 << s, 1 << s, 512);
        let tiles = space();
        let raw = model_sweep(&p, &size, &tiles);
        for cal in [
            model_sweep_spec(spec(), &p, &size, &tiles, None),
            model_sweep_spec(spec(), &p, &size, &tiles, Some(&Correction::IDENTITY)),
        ] {
            prop_assert_eq!(cal.len(), raw.len());
            for ((ct, cp), (rt, rp)) in cal.iter().zip(&raw) {
                prop_assert_eq!(ct, rt);
                prop_assert_eq!(cp.talg.to_bits(), rp.talg.to_bits());
                prop_assert_eq!(cp.m_prime.to_bits(), rp.m_prime.to_bits());
                prop_assert_eq!(cp.c.to_bits(), rp.c.to_bits());
                prop_assert_eq!(
                    (cp.k, cp.nw, cp.w, cp.mtile_words),
                    (rp.k, rp.nw, rp.w, rp.mtile_words)
                );
            }
        }
    }
}
