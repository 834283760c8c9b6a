//! Cross-crate invariants between the analytical model, the simulated
//! machine, and the micro-benchmarks.

use hhc_stencil::core::{ProblemSize, StencilDescriptor};
use hhc_stencil::model::{predict, ModelParams};
use hhc_stencil::sim::{occupancy, simulate, DeviceConfig, SimWorkload};
use hhc_stencil::tiling::{LaunchConfig, TileSizes};
use hhc_tiling::TilingPlan;

fn measured(device: &DeviceConfig, stencil: StencilDescriptor) -> ModelParams {
    ModelParams::from_measured(
        device,
        &microbench::measured_params_sampled(device, &stencil, 12, 99),
    )
}

/// A well-aligned steady-state configuration: the model must track the
/// machine closely (this is the regime behind the paper's "<10 % at the
/// top" claim).
#[test]
fn model_tracks_machine_on_aligned_steady_state() {
    let device = DeviceConfig::gtx980();
    let stencil = StencilDescriptor::jacobi2d();
    let spec = stencil.spec();
    let params = measured(&device, stencil);
    let size = ProblemSize::new_2d(4096, 4096, 1024);
    // 128-aligned inner extent, shallow rows (no spills), k = 2.
    let tiles = TileSizes::new_2d(8, 4, 384);
    let launch = LaunchConfig::new_2d(1, 384);
    let pred = predict(&params, &size, &tiles);
    let plan = TilingPlan::build(&spec, &size, tiles, launch).unwrap();
    let meas = simulate(&device, &SimWorkload::from_plan(&plan))
        .unwrap()
        .total_time;
    let ratio = meas / pred.talg;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "ratio = {ratio} (pred {}, meas {meas})",
        pred.talg
    );
}

/// The model is *optimistic* on pathological thread configurations — the
/// unmodeled `n_thr` effect of Section 7: the machine is far slower than
/// predicted, never faster by anything like that factor.
#[test]
fn model_is_optimistic_on_bad_thread_shapes() {
    let device = DeviceConfig::gtx980();
    let stencil = StencilDescriptor::jacobi2d();
    let spec = stencil.spec();
    let params = measured(&device, stencil);
    let size = ProblemSize::new_2d(2048, 2048, 256);
    let tiles = TileSizes::new_2d(8, 16, 32);
    // 512 threads along an s2 extent of 32: 15/16 of the issue slots burn.
    let launch = LaunchConfig::new_2d(1, 512);
    let pred = predict(&params, &size, &tiles);
    let plan = TilingPlan::build(&spec, &size, tiles, launch).unwrap();
    let meas = simulate(&device, &SimWorkload::from_plan(&plan))
        .unwrap()
        .total_time;
    assert!(
        meas > 3.0 * pred.talg,
        "expected heavy underprediction: pred {} meas {meas}",
        pred.talg
    );
}

/// The model's hyper-threading factor agrees with the machine's resolved
/// occupancy whenever shared memory is the binding resource.
#[test]
fn model_k_matches_machine_occupancy_when_shared_bound() {
    let device = DeviceConfig::gtx980();
    let stencil = StencilDescriptor::heat2d();
    let spec = stencil.spec();
    let params = measured(&device, stencil);
    let size = ProblemSize::new_2d(4096, 4096, 512);
    for tiles in [
        TileSizes::new_2d(8, 16, 128),
        TileSizes::new_2d(16, 16, 128),
        TileSizes::new_2d(4, 8, 256),
    ] {
        let pred = predict(&params, &size, &tiles);
        let plan = TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_2d(1, 128)).unwrap();
        let occ = occupancy(&device, &SimWorkload::from_plan(&plan)).unwrap();
        let diff = (pred.k as i64 - occ.k as i64).abs();
        assert!(
            diff <= 1,
            "model k = {} vs machine k = {} for {tiles:?}",
            pred.k,
            occ.k
        );
    }
}

/// Micro-benchmarked Citer values land within 35 % of the paper's
/// Table 4 for every benchmark × device cell, with the paper's
/// orderings (Gradient ≈ 2× Jacobi; 3D ≫ 2D).
#[test]
fn citer_table_matches_paper_scale() {
    for device in DeviceConfig::paper_devices() {
        for stencil in StencilDescriptor::table4() {
            let measured = microbench::measure_citer(&device, &stencil, 12, 5);
            let paper = experiments::tables::paper_citer(&stencil.name, &device.name)
                .expect("TABLE4 cells all have paper values");
            let rel = (measured - paper).abs() / paper;
            assert!(
                rel < 0.35,
                "{} on {}: measured {measured:e} vs paper {paper:e} ({:.0}% off)",
                stencil.name,
                device.name,
                100.0 * rel
            );
        }
    }
}

/// Simulation is a pure function: same plan, same time, bit for bit.
#[test]
fn simulation_is_deterministic_across_rebuilds() {
    let device = DeviceConfig::titan_x();
    let spec = StencilDescriptor::laplacian2d().spec();
    let size = ProblemSize::new_2d(1024, 1024, 128);
    let tiles = TileSizes::new_2d(8, 8, 96);
    let mut times = Vec::new();
    for _ in 0..3 {
        let plan = TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_2d(1, 96)).unwrap();
        let r = simulate(&device, &SimWorkload::from_plan(&plan)).unwrap();
        times.push(r.total_time.to_bits());
    }
    assert_eq!(times[0], times[1]);
    assert_eq!(times[1], times[2]);
}

/// Infeasible configurations (over the 48 KB per-block cap) are rejected
/// by the machine and excluded from the feasible space — Eqn 31's
/// constraint seen from both sides.
#[test]
fn infeasible_rejected_consistently() {
    let device = DeviceConfig::gtx980();
    let spec = StencilDescriptor::jacobi2d().spec();
    let size = ProblemSize::new_2d(1024, 1024, 64);
    let tiles = TileSizes::new_2d(32, 64, 512); // enormous tile
    assert!(!tile_opt::is_feasible(&device, spec.dim, &tiles));
    let plan = TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_2d(1, 512)).unwrap();
    assert!(simulate(&device, &SimWorkload::from_plan(&plan)).is_err());
}

/// Titan X (24 SMs, higher bandwidth) beats the GTX 980 on the same
/// well-tuned workload — the cross-device sanity the paper's Figure 6
/// exhibits.
#[test]
fn titan_x_outperforms_gtx980() {
    let spec = StencilDescriptor::heat2d().spec();
    let size = ProblemSize::new_2d(4096, 4096, 512);
    let tiles = TileSizes::new_2d(8, 8, 128);
    let plan = TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_2d(1, 128)).unwrap();
    let wl = SimWorkload::from_plan(&plan);
    let gtx = simulate(&DeviceConfig::gtx980(), &wl).unwrap().total_time;
    let titan = simulate(&DeviceConfig::titan_x(), &wl).unwrap().total_time;
    assert!(titan < gtx, "titan {titan} vs gtx {gtx}");
}
