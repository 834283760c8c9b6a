//! Descriptor-path model equivalence: for the paper benchmarks, the
//! descriptor-driven sweep (`DimSpec::for_stencil` + `model_sweep_spec`)
//! is *bit-identical* to the dimension sweep the model was first built
//! on — every `Prediction` field compared via `to_bits`, and the Eqn-31
//! within-10% candidate ranking — on both paper devices. The presets
//! themselves are pinned by `crates/core/tests/presets.rs`.

use hhc_stencil::core::{ProblemSize, StencilDescriptor};
use hhc_stencil::model::{DimSpec, ModelParams};
use hhc_stencil::opt::{
    feasible_tiles, model_sweep_spec, model_sweep_with, within_fraction, SpaceConfig,
};
use hhc_stencil::sim::DeviceConfig;

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
            let tiles = feasible_tiles(&device, dim, &SpaceConfig::default());
            let legacy = model_sweep_with(&params, &size, &tiles, None);
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
            let tiles = feasible_tiles(&device, stencil.dim, &SpaceConfig::default());
            let legacy = within_fraction(&model_sweep_with(&params, &size, &tiles, None), 0.10);
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
