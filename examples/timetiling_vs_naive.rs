//! Time tiling vs. the classic wavefront-parallel schedule — the premise
//! of the whole paper, measured on the simulated machine.
//!
//! ```sh
//! cargo run --release --example timetiling_vs_naive [-- S T]
//! ```
//!
//! The naive schedule launches one kernel per time step and streams the
//! whole grid through global memory twice per step; the HHC schedule
//! keeps `t_T` time steps in shared memory. The example tunes *both*
//! families and reports the crossover: for short runs (small `T`) the
//! naive schedule's simplicity can win; as `T` grows, time tiling pulls
//! away because its memory traffic is `~1/t_T` of the naive schedule's.

use hhc_stencil::core::{reference, ProblemSize, StencilDescriptor};
use hhc_stencil::model::{DimSpec, ModelParams};
use hhc_stencil::opt::strategy::DataPoint;
use hhc_stencil::opt::{feasible_space, model_sweep_spec, within_fraction, SpaceConfig};
use hhc_stencil::sim::{simulate, DeviceConfig, SimWorkload, Workload};
use hhc_stencil::tiling::{LaunchConfig, SpaceBlock, TilingPlan, WavefrontSchedule};

/// Best naive (wavefront-parallel) time over a grid of block shapes.
fn best_naive(
    device: &DeviceConfig,
    spec: &stencil_core::StencilSpec,
    size: &ProblemSize,
) -> (f64, bool) {
    let mut best: Option<(f64, bool)> = None;
    for b1 in [4usize, 8, 16, 32] {
        for b2 in [32usize, 64, 128, 256] {
            let Ok(ws) = WavefrontSchedule::build(
                spec,
                size,
                SpaceBlock::new_2d(b1, b2),
                LaunchConfig::new_2d(1, b2.min(512)),
            ) else {
                continue;
            };
            if let Ok(r) = simulate(device, &SimWorkload::from_wavefront(&ws)) {
                if best.is_none_or(|(t, _)| r.total_time < t) {
                    best = Some((r.total_time, r.memory_bound()));
                }
            }
        }
    }
    best.expect("some naive configuration launches")
}

/// Best HHC time via the paper's model-driven within-10 % selection.
fn best_hhc(
    device: &DeviceConfig,
    params: &ModelParams,
    stencil: &StencilDescriptor,
    size: &ProblemSize,
) -> f64 {
    let workload = Workload::new(device.clone(), stencil.clone(), *size)
        .expect("stencil and size ranks agree");
    let spec = stencil.spec();
    let space = feasible_space(&workload, &SpaceConfig::default());
    let sweep = model_sweep_spec(DimSpec::for_stencil(stencil), params, size, &space, None);
    let mut best = f64::INFINITY;
    for (tiles, _) in within_fraction(&sweep, 0.10) {
        let point = DataPoint {
            tiles,
            launch: LaunchConfig::empirical(spec.dim, &tiles),
        };
        let Ok(plan) = TilingPlan::build(&spec, size, point.tiles, point.launch) else {
            continue;
        };
        if let Ok(r) = simulate(device, &SimWorkload::from_plan(&plan)) {
            best = best.min(r.total_time);
        }
    }
    best
}

fn main() {
    let mut args = std::env::args().skip(1);
    let s: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2048);
    let t_max: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1024);

    let stencil = StencilDescriptor::jacobi2d();
    let spec = stencil.spec();
    let device = DeviceConfig::gtx980();
    println!(
        "{} on {}, S = {s}², sweeping T (both schedules tuned per point)\n",
        stencil.name, device.name
    );
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>12}",
        "T", "naive [s]", "hhc [s]", "speedup", "naive GF/s"
    );

    let measured = microbench::measured_params_sampled(&device, &stencil, 20, 9);
    let params = ModelParams::from_measured(&device, &measured);

    let mut t = 32usize;
    while t <= t_max {
        let size = ProblemSize::new_2d(s, s, t);
        let (naive, mb) = best_naive(&device, &spec, &size);
        let hhc = best_hhc(&device, &params, &stencil, &size);
        let flops = reference::total_flops(&spec, &size) as f64;
        println!(
            "{t:>8} {naive:>14.4} {hhc:>14.4} {:>9.2}x {:>10.1}{}",
            naive / hhc,
            flops / naive / 1e9,
            if mb { "  (mem-bound)" } else { "" }
        );
        t *= 4;
    }

    println!(
        "\nThe naive schedule moves ~2·S² words per time step; the HHC schedule\n\
         amortizes that over t_T steps — the asymptotic argument of the paper's\n\
         related-work section, measured."
    );
}
