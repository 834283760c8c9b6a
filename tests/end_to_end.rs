//! End-to-end pipeline test: micro-benchmark → model sweep → candidate
//! selection → measurement, on a problem small enough for CI.

use experiments::figures::{pool_validation, validate_one_full};
use experiments::{ExperimentScale, Lab};
use hhc_stencil::core::{ProblemSize, StencilDescriptor};
use hhc_stencil::opt::strategy::{study, Strategy, StrategyContext};
use hhc_stencil::opt::SpaceConfig;
use hhc_stencil::sim::Workload;

#[test]
fn full_pipeline_produces_coherent_study() {
    let lab = Lab::new(ExperimentScale::Smoke);
    let device = lab.devices[0].clone();
    let stencil = StencilDescriptor::heat2d();
    let size = ProblemSize::new_2d(1024, 1024, 256);
    let params = lab.model_params(&device, &stencil);
    let space = SpaceConfig::default();
    let workload = Workload::new(device, stencil, size).expect("Heat2D is 2-dimensional");
    let ctx = StrategyContext::new(&workload, &params, &space);
    let st = study(&ctx, false);

    // All four non-exhaustive strategies produce outcomes.
    for s in [
        Strategy::HhcDefault,
        Strategy::Baseline,
        Strategy::TalgMin,
        Strategy::Within10,
    ] {
        let o = st
            .outcomes
            .iter()
            .find(|o| o.strategy == s)
            .unwrap_or_else(|| panic!("{s:?}"));
        assert!(o.chosen.measured.unwrap() > 0.0);
        assert!(o.chosen.gflops.unwrap() > 0.0);
    }

    // The candidate set is small (the paper's practicality argument).
    let within = st
        .outcomes
        .iter()
        .find(|o| o.strategy == Strategy::Within10)
        .unwrap();
    assert!(
        within.measured_count < 400,
        "candidate set too large: {}",
        within.measured_count
    );

    // Baseline measures exactly the paper's 850 points.
    let baseline = st
        .outcomes
        .iter()
        .find(|o| o.strategy == Strategy::Baseline)
        .unwrap();
    assert_eq!(baseline.measured_count, 850);

    // The HHC default never beats the tuned strategies.
    let hhc = st
        .outcomes
        .iter()
        .find(|o| o.strategy == Strategy::HhcDefault)
        .unwrap();
    assert!(
        hhc.chosen.gflops.unwrap() <= within.chosen.gflops.unwrap(),
        "HHC default should not beat Within10"
    );
}

#[test]
fn validation_pools_and_summarizes() {
    let lab = Lab::new(ExperimentScale::Smoke);
    let device = lab.devices[1].clone(); // Titan X
    let stencil = StencilDescriptor::laplacian2d();
    let size = ProblemSize::new_2d(1024, 1024, 128);
    let (summary, evals) =
        validate_one_full(&lab, &device, &stencil, &size, &SpaceConfig::default());
    assert_eq!(summary.points, 850);
    assert!(summary.measured_points > 700);
    assert!(summary.rmse_all > summary.rmse_top20);
    let pooled = pool_validation(&device, &stencil, &evals);
    assert_eq!(pooled.points, summary.measured_points);
    assert!(pooled.top_points > 0);
}

#[test]
fn tables_regenerate_against_paper() {
    let lab = Lab::new(ExperimentScale::Smoke);
    let t2 = experiments::tables::table2(&lab);
    assert_eq!(t2.len(), 2);
    let t3 = experiments::tables::table3(&lab);
    // Measured L within 10 % of the paper's Table 3 on both devices.
    assert!((t3[0].l_s_per_gb - 7.36e-3).abs() / 7.36e-3 < 0.10);
    assert!((t3[1].l_s_per_gb - 5.42e-3).abs() / 5.42e-3 < 0.10);
    let t4 = experiments::tables::table4(&lab);
    assert_eq!(t4.len(), 12);
}
