//! Quickstart: model a stencil, pick tile sizes, check the prediction.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full pipeline of the paper on one configuration:
//!
//! 1. define the stencil and problem size,
//! 2. micro-benchmark the machine for the model's parameters
//!    (`L`, `τ_sync`, `T_sync`, `Citer` — paper Tables 3/4),
//! 3. evaluate the analytical model `T_alg` for a tile size (Section 4),
//! 4. run the same configuration on the simulated GPU and compare,
//! 5. let the optimizer pick tile sizes (Section 6) and show the win.

use hhc_stencil::core::{ProblemSize, StencilDescriptor};
use hhc_stencil::model::ModelParams;
use hhc_stencil::opt::strategy::{empirical_launch, DataPoint};
use hhc_stencil::opt::{feasible_space, model_sweep, talg_min, within_fraction, SpaceConfig};
use hhc_stencil::sim::{simulate, DeviceConfig, SimWorkload, Workload};
use hhc_stencil::tiling::{LaunchConfig, TileSizes};
use hhc_tiling::TilingPlan;

fn main() {
    // 1. A Jacobi 2D sweep over a 2048² grid for 1024 time steps.
    let stencil = StencilDescriptor::jacobi2d();
    let spec = stencil.spec();
    let size = ProblemSize::new_2d(2048, 2048, 1024);
    let device = DeviceConfig::gtx980();
    println!(
        "stencil  : {} ({} neighbors, {} flops/point)",
        stencil.name,
        spec.reads_per_point(),
        spec.flops_per_point()
    );
    println!("problem  : {}", size.label());
    println!(
        "device   : {} ({} SMs x {} lanes)",
        device.name, device.n_sm, device.n_v
    );

    // 2. Measure the model's parameters from the machine, exactly as the
    //    paper measures them from hardware (Section 5.2).
    let measured = microbench::measured_params_sampled(&device, &stencil, 30, 42);
    println!(
        "\nmeasured : L = {:.2e} s/GB, tau_sync = {:.2e} s, T_sync = {:.2e} s, Citer = {:.2e} s",
        measured.l_word * 1e9 / 4.0,
        measured.tau_sync,
        measured.t_sync,
        measured.citer
    );
    let params = ModelParams::from_measured(&device, &measured);

    // 3. Predict the execution time of one hand-picked configuration.
    let tiles = TileSizes::new_2d(8, 16, 128);
    let launch = LaunchConfig::new_2d(1, 128);
    let pred = hhc_stencil::model::predict(&params, &size, &tiles);
    println!(
        "\nhand-picked {:?}: T_alg = {:.4} s (k = {}, {} kernels, {} blocks/kernel)",
        (tiles.t_t, tiles.t_s[0], tiles.t_s[1]),
        pred.talg,
        pred.k,
        pred.nw,
        pred.w
    );

    // 4. Run it on the simulated GPU.
    let plan = TilingPlan::build(&spec, &size, tiles, launch).expect("valid configuration");
    let report = simulate(&device, &SimWorkload::from_plan(&plan)).expect("launches");
    println!(
        "machine     : T_exec = {:.4} s ({:.1} GFLOPS/s, model/machine = {:.2})",
        report.total_time,
        report.gflops(stencil_core::reference::total_flops(&spec, &size)),
        pred.talg / report.total_time
    );

    // 5. Let the model pick tile sizes: bundle the run into a Workload,
    //    sweep its feasible space (Eqn 31), take the predicted optimum
    //    and its 10 % neighborhood.
    let workload = Workload::new(device.clone(), stencil, size).expect("Jacobi2D is 2-dimensional");
    let space = feasible_space(&workload, &SpaceConfig::default());
    let sweep = model_sweep(&params, &size, &space);
    let (best_tiles, best_pred) = talg_min(&sweep).expect("non-empty space");
    let within = within_fraction(&sweep, 0.10);
    println!(
        "\nmodel sweep : {} feasible tile sizes; T_alg min = {:.4} s at {:?}; {} candidates within 10%",
        space.len(),
        best_pred.talg,
        (best_tiles.t_t, best_tiles.t_s[0], best_tiles.t_s[1]),
        within.len()
    );

    // Measure the candidates (the paper's final step) and report the best.
    let mut best: Option<(DataPoint, f64)> = None;
    for (t, _) in &within {
        let point = DataPoint {
            tiles: *t,
            launch: empirical_launch(spec.dim, t),
        };
        let Ok(plan) = TilingPlan::build(&spec, &size, point.tiles, point.launch) else {
            continue;
        };
        if let Ok(r) = simulate(&device, &SimWorkload::from_plan(&plan)) {
            if best.is_none_or(|(_, t0)| r.total_time < t0) {
                best = Some((point, r.total_time));
            }
        }
    }
    let (point, t) = best.expect("at least one candidate measured");
    println!(
        "tuned       : {:?} with {:?} threads -> {:.4} s ({:+.1}% vs hand-picked)",
        (point.tiles.t_t, point.tiles.t_s[0], point.tiles.t_s[1]),
        point.launch.threads,
        t,
        100.0 * (t / report.total_time - 1.0)
    );
}
