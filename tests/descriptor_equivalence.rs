//! Descriptor-path model equivalence: for the paper benchmarks, the
//! descriptor-driven sweep (`DimSpec::for_stencil` + `model_sweep_spec`)
//! is *bit-identical* to the dimension sweep the model was first built
//! on — every `Prediction` field compared via `to_bits`, and the Eqn-31
//! within-10% candidate ranking — on both paper devices. The presets
//! themselves are pinned by `crates/core/tests/presets.rs`.

use advisor::{Advisor, AdvisorConfig, Query};
use hhc_stencil::core::{ProblemSize, StencilDescriptor};
use hhc_stencil::model::{DimSpec, ModelParams};
use hhc_stencil::opt::{
    feasible_space, feasible_tiles, model_sweep, model_sweep_spec, study, within_fraction,
    SpaceConfig, StrategyContext,
};
use hhc_stencil::sim::{DeviceConfig, Workload};

/// Model parameters measured for a paper stencil.
fn params_for(device: &DeviceConfig, stencil: &StencilDescriptor) -> ModelParams {
    ModelParams::from_measured(
        device,
        &microbench::measured_params_sampled(device, stencil, 8, 0xD15C),
    )
}

fn bench_size(stencil: &StencilDescriptor) -> ProblemSize {
    match stencil.dim.rank() {
        1 => ProblemSize::new_1d(1 << 18, 512),
        2 => ProblemSize::new_2d(1024, 1024, 256),
        _ => ProblemSize::new_3d(96, 96, 96, 48),
    }
}

/// Every `Prediction` field of the descriptor-driven sweep
/// (`DimSpec::for_stencil` + `model_sweep_spec`) matches the legacy
/// dimension sweep bit-for-bit, on both paper devices.
#[test]
fn prediction_fields_match_bitwise_on_both_paper_devices() {
    for device in DeviceConfig::paper_devices() {
        for stencil in StencilDescriptor::table4() {
            let dim = stencil.dim;
            let params = params_for(&device, &stencil);
            let size = bench_size(&stencil);
            let tiles = feasible_tiles(&device, DimSpec::of(dim), &SpaceConfig::default());
            let legacy = model_sweep(&params, &size, &tiles);
            let derived =
                model_sweep_spec(DimSpec::for_stencil(&stencil), &params, &size, &tiles, None);
            assert_eq!(legacy.len(), derived.len());
            for ((lt, lp), (dt, dp)) in legacy.iter().zip(&derived) {
                assert_eq!(lt, dt, "{stencil} on {}: candidate order", device.name);
                let ctx = || format!("{stencil} on {} at {lt:?}", device.name);
                assert_eq!(lp.talg.to_bits(), dp.talg.to_bits(), "talg {}", ctx());
                assert_eq!(lp.k, dp.k, "k {}", ctx());
                assert_eq!(lp.nw, dp.nw, "nw {}", ctx());
                assert_eq!(lp.w, dp.w, "w {}", ctx());
                assert_eq!(
                    lp.m_prime.to_bits(),
                    dp.m_prime.to_bits(),
                    "m_prime {}",
                    ctx()
                );
                assert_eq!(lp.c.to_bits(), dp.c.to_bits(), "c {}", ctx());
                assert_eq!(lp.mtile_words, dp.mtile_words, "mtile {}", ctx());
            }
        }
    }
}

/// The Eqn-31 ranking the advisor serves — `T_alg min` plus the
/// within-10% candidate set, in order — is unchanged by the descriptor
/// path on both paper devices.
#[test]
fn eqn31_candidate_ranking_is_unchanged() {
    for device in DeviceConfig::paper_devices() {
        for stencil in StencilDescriptor::table4() {
            let params = params_for(&device, &stencil);
            let size = bench_size(&stencil);
            let tiles = feasible_tiles(&device, DimSpec::of(stencil.dim), &SpaceConfig::default());
            let legacy = within_fraction(&model_sweep(&params, &size, &tiles), 0.10);
            let derived = within_fraction(
                &model_sweep_spec(DimSpec::for_stencil(&stencil), &params, &size, &tiles, None),
                0.10,
            );
            assert!(
                !legacy.is_empty(),
                "{stencil} on {}: empty band",
                device.name
            );
            assert_eq!(
                legacy.len(),
                derived.len(),
                "{stencil} on {}: band size",
                device.name
            );
            for (i, ((lt, lp), (dt, dp))) in legacy.iter().zip(&derived).enumerate() {
                assert_eq!(lt, dt, "{stencil} on {}: rank {i} tile", device.name);
                assert_eq!(
                    lp.talg.to_bits(),
                    dp.talg.to_bits(),
                    "{stencil} on {}: rank {i} talg",
                    device.name
                );
            }
        }
    }
}

/// Past radius 1 there is still one model: for Lap4_2D (radius 2) the
/// strategy study's within-10% set is the radius-2 sweep's band, tile
/// for tile and in order; every evaluation it predicts is the stencil
/// spec's `T_alg`, bit for bit; and the advisor serves a prefix of the
/// same ranking, with the same `k` and `M_tile`.
#[test]
fn radius_two_study_and_advisor_share_the_stencil_spec() {
    let stencil = StencilDescriptor::lap4_2d();
    let spec = DimSpec::for_stencil(&stencil);
    assert_eq!(spec.radius, 2);
    let size = bench_size(&stencil);
    let advisor_cfg = AdvisorConfig::default();
    let advisor = Advisor::new(advisor_cfg.clone());
    for device in DeviceConfig::paper_devices() {
        // The advisor's own parameter measurement, so its answer is
        // comparable bit for bit.
        let params = ModelParams::from_measured(
            &device,
            &microbench::measured_params_sampled(
                &device,
                &stencil,
                advisor_cfg.citer_samples,
                advisor_cfg.seed,
            ),
        );
        let workload = Workload::new(device.clone(), stencil.clone(), size).unwrap();
        let space = feasible_space(&workload, &advisor_cfg.space);
        let band = within_fraction(&model_sweep_spec(spec, &params, &size, &space, None), 0.10);
        assert!(!band.is_empty(), "{}: empty band", device.name);

        let ctx = StrategyContext::new(&workload, &params, &advisor_cfg.space);
        let got = study(&ctx, false);
        let tiles: Vec<_> = got.within.iter().map(|e| e.point.tiles).collect();
        let want: Vec<_> = band.iter().map(|(t, _)| *t).collect();
        assert_eq!(tiles, want, "{}: within-10% set", device.name);
        for e in got.within.iter().chain(&got.baseline) {
            let talg = spec.predict(&params, &size, &e.point.tiles).talg;
            assert_eq!(
                e.predicted.to_bits(),
                talg.to_bits(),
                "{} at {:?}",
                device.name,
                e.point.tiles
            );
        }

        let query = Query {
            id: None,
            workload,
            within: 0.10,
            top_n: 10,
            validate: false,
            timeout_ms: None,
        };
        let advice = advisor.advise(&query);
        assert_eq!(advice.within_points, band.len(), "{}", device.name);
        assert!(!advice.candidates.is_empty());
        for (c, (t, p)) in advice.candidates.iter().zip(&band) {
            let ctx = format!("{} rank {}", device.name, c.rank);
            assert_eq!((c.t_t, &c.t_s[..]), (t.t_t, &t.t_s[..2]), "{ctx}");
            assert_eq!(c.talg_s.to_bits(), p.talg.to_bits(), "{ctx}");
            assert_eq!((c.k, c.mtile_words), (p.k, p.mtile_words), "{ctx}");
        }
    }
}
