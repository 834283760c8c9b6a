//! Legacy-oracle equivalence: the dimension-generic [`time_model::DimSpec`]
//! pipeline (every prediction's one entry point) must be **bit-identical**
//! to the per-dimension modules it replaced — `hex1d`, `hybrid2d`,
//! `hybrid3d` — across the full Eqn-31 feasible tile-size sweep for every
//! paper (device, stencil, size) experiment. Float fields are compared by
//! `to_bits()`, not tolerance: the refactor must not change a single ULP.

use gpu_sim::{DeviceConfig, Workload};
use hhc_tiling::TileSizes;
use stencil_core::{ProblemSize, StencilDescriptor, StencilDim};
use tile_opt::{feasible_space, SpaceConfig};
use time_model::{hex1d, hybrid2d, hybrid3d, Correction, DimSpec, ModelParams, Prediction};

const SEED: u64 = 0x5EED;

/// Measured model parameters for a (device, stencil) pair. A small
/// sample count keeps the suite fast; equivalence is structural, so any
/// valid parameter point exercises it — but deriving them per stencil
/// keeps the sweep aligned with the paper's experiments.
fn params_for(device: &DeviceConfig, stencil: &StencilDescriptor) -> ModelParams {
    ModelParams::from_measured(
        device,
        &microbench::measured_params_sampled(device, stencil, 4, SEED),
    )
}

/// The paper's per-dimension problem-size grids (Section 5; the 1D grid
/// is the expository-model extension the experiments crate checks).
fn paper_sizes(dim: StencilDim) -> Vec<ProblemSize> {
    use experiments::context::ExperimentScale;
    match dim.rank() {
        1 => ExperimentScale::Paper.sizes_1d(),
        2 => ProblemSize::paper_2d_sizes(),
        _ => ProblemSize::paper_3d_sizes(),
    }
}

/// The pre-refactor oracle: the per-dimension `predict` entry points,
/// dispatched by rank exactly as the deleted call sites used to.
fn legacy_predict(p: &ModelParams, size: &ProblemSize, tiles: &TileSizes) -> Prediction {
    match size.dim.rank() {
        1 => hex1d::predict(p, size, tiles),
        2 => hybrid2d::predict(p, size, tiles),
        _ => hybrid3d::predict(p, size, tiles),
    }
}

fn legacy_mtile_words(dim: StencilDim, tiles: &TileSizes) -> u64 {
    match dim.rank() {
        1 => hex1d::mtile_words(tiles),
        2 => hybrid2d::mtile_words(tiles),
        _ => hybrid3d::mtile_words(tiles),
    }
}

fn assert_bit_identical(generic: &Prediction, legacy: &Prediction, ctx: &str) {
    assert_eq!(
        generic.talg.to_bits(),
        legacy.talg.to_bits(),
        "talg: {} vs {} at {ctx}",
        generic.talg,
        legacy.talg
    );
    assert_eq!(
        generic.m_prime.to_bits(),
        legacy.m_prime.to_bits(),
        "m_prime: {} vs {} at {ctx}",
        generic.m_prime,
        legacy.m_prime
    );
    assert_eq!(
        generic.c.to_bits(),
        legacy.c.to_bits(),
        "c: {} vs {} at {ctx}",
        generic.c,
        legacy.c
    );
    assert_eq!(generic.k, legacy.k, "k at {ctx}");
    assert_eq!(generic.nw, legacy.nw, "nw at {ctx}");
    assert_eq!(generic.w, legacy.w, "w at {ctx}");
    assert_eq!(
        generic.mtile_words, legacy.mtile_words,
        "mtile_words at {ctx}"
    );
}

/// The full sweep: paper devices × per-dimension benchmarks × paper
/// sizes × the Eqn-31 feasible space, generic vs legacy, bit for bit.
#[test]
fn generic_dimspec_is_bit_identical_to_legacy_oracles_across_paper_sweep() {
    let cfg = SpaceConfig::default();
    let mut compared = 0u64;
    for device in DeviceConfig::paper_devices() {
        for dim in StencilDim::ALL {
            for stencil in StencilDescriptor::paper(dim) {
                let params = params_for(&device, &stencil);
                let sizes = paper_sizes(dim);
                // The Eqn-31 space depends only on the device and the
                // dimensionality, so enumerate it once per workload family.
                let workload = Workload::new(device.clone(), stencil.clone(), sizes[0])
                    .expect("benchmark and size dimensionalities agree");
                let tiles = feasible_space(&workload, &cfg);
                assert!(!tiles.is_empty(), "{} {stencil}: empty space", device.name);
                for size in &sizes {
                    for t in &tiles {
                        let generic = DimSpec::for_stencil(&stencil).predict(&params, size, t);
                        let legacy = legacy_predict(&params, size, t);
                        let ctx = format!("{} {stencil} size={size:?} tiles={t:?}", device.name);
                        assert_bit_identical(&generic, &legacy, &ctx);
                        // The calibration hook must be invisible when no
                        // correction is loaded — both the `None` arm and
                        // the explicit identity correction reproduce the
                        // uncorrected prediction bit for bit.
                        let uncorrected =
                            DimSpec::for_stencil(&stencil).predict_with(&params, size, t, None);
                        assert_bit_identical(&uncorrected, &legacy, &ctx);
                        let identity = DimSpec::for_stencil(&stencil).predict_with(
                            &params,
                            size,
                            t,
                            Some(&Correction::IDENTITY),
                        );
                        assert_bit_identical(&identity, &legacy, &ctx);
                        assert_eq!(
                            DimSpec::for_stencil(&stencil).mtile_words(t),
                            legacy_mtile_words(dim, t),
                            "mtile_words helper at {ctx}"
                        );
                        compared += 1;
                    }
                }
            }
        }
    }
    // The sweep must actually be a sweep: every (device, dim) family has
    // >50 feasible tiles (tile-opt asserts this) and the paper grids have
    // 10–12 sizes each, so a healthy run compares tens of thousands of
    // predictions.
    assert!(compared > 50_000, "sweep too small: {compared}");
}
