//! Heat-equation tuning walk-through: compare every tile-size selection
//! strategy of the paper's Figure 6 on one Heat2D problem.
//!
//! ```sh
//! cargo run --release --example heat2d_autotune [-- S T]
//! ```
//!
//! Shows how much of the empirical-autotuning budget the analytical
//! model saves: the `Within10` strategy measures two orders of magnitude
//! fewer configurations than exhaustive search and lands within a few
//! percent of it.

use hhc_stencil::core::{ProblemSize, StencilDescriptor};
use hhc_stencil::model::ModelParams;
use hhc_stencil::opt::strategy::{study, StrategyContext};
use hhc_stencil::opt::SpaceConfig;
use hhc_stencil::sim::{DeviceConfig, Workload};

fn main() {
    let mut args = std::env::args().skip(1);
    let s: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2048);
    let t: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2048);

    let stencil = StencilDescriptor::heat2d();
    let size = ProblemSize::new_2d(s, s, t);
    let device = DeviceConfig::gtx980();
    let space = SpaceConfig::default();

    println!(
        "tuning {} on {} for {}",
        stencil.name,
        device.name,
        size.label()
    );
    println!("measuring model parameters (micro-benchmarks)...");
    let measured = microbench::measured_params_sampled(&device, &stencil, 30, 7);
    let params = ModelParams::from_measured(&device, &measured);

    let workload = Workload::new(device.clone(), stencil, size).expect("Heat2D is 2-dimensional");
    let ctx = StrategyContext::new(&workload, &params, &space);
    println!("running all strategies (incl. exhaustive search)...\n");
    let study = study(&ctx, true);

    println!(
        "{:<26} {:>12} {:>12} {:>10} {:>12}",
        "strategy", "time [s]", "GFLOPS/s", "measured", "tile (tT,tS1,tS2)"
    );
    for o in &study.outcomes {
        let tiles = o.chosen.point.tiles;
        println!(
            "{:<26} {:>12.4} {:>12.1} {:>10} {:>12}",
            o.strategy.name(),
            o.chosen.measured.unwrap_or(f64::NAN),
            o.chosen.gflops.unwrap_or(f64::NAN),
            o.measured_count,
            format!("({},{},{})", tiles.t_t, tiles.t_s[0], tiles.t_s[1]),
        );
    }

    // The headline comparison of the paper's Section 6.2.
    let get = |name: &str| {
        study
            .outcomes
            .iter()
            .find(|o| o.strategy.name() == name)
            .and_then(|o| o.chosen.gflops)
    };
    if let (Some(w), Some(b), Some(h)) =
        (get("Within 10% of Talg min"), get("Baseline"), get("HHC"))
    {
        println!(
            "\nWithin10 vs Baseline: {:+.1}%   Within10 vs HHC default: {:+.1}%",
            100.0 * (w / b - 1.0),
            100.0 * (w / h - 1.0)
        );
    }
    println!(
        "within-10% candidate set: {} points (paper: < 200, vs weeks of machine time for the full space)",
        study.within.len()
    );
}
