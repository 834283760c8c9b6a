//! Mini Figure 3: scatter the model's predictions against the machine's
//! measurements for one benchmark and print the RMSE bands.
//!
//! ```sh
//! cargo run --release --example validate_model [-- jacobi2d|heat2d|laplacian2d|gradient2d|heat3d|laplacian3d]
//! ```
//!
//! Reproduces the paper's §5.3 observation in miniature: over the whole
//! baseline set the model errs wildly (it is deliberately optimistic);
//! over the top-performing points it is accurate.

use experiments::figures::validate_one_full;
use experiments::{ExperimentScale, Lab};
use hhc_stencil::core::{ProblemSize, StencilDescriptor};
use hhc_stencil::opt::SpaceConfig;

fn main() {
    let stencil = std::env::args()
        .nth(1)
        .and_then(|a| StencilDescriptor::from_name(&a))
        .unwrap_or_else(StencilDescriptor::jacobi2d);
    let size = match stencil.dim.rank() {
        3 => ProblemSize::new_3d(384, 384, 384, 128),
        _ => ProblemSize::new_2d(4096, 4096, 2048),
    };
    let lab = Lab::new(ExperimentScale::Reduced);
    let device = lab.devices[0].clone();

    println!(
        "validating the model for {} at {} on {}",
        stencil.name,
        size.label(),
        device.name
    );
    println!("evaluating the 850-point baseline set (model + machine)...\n");
    let (summary, evals) =
        validate_one_full(&lab, &device, &stencil, &size, &SpaceConfig::default());

    // A terminal scatter: predicted vs measured for the top performers.
    println!("top-performing points (within 20% of best) — predicted vs measured:");
    let mut top: Vec<(f64, f64)> = summary.scatter_top.clone();
    top.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (pred, meas) in top.iter().take(15) {
        let ratio = meas / pred;
        let bars = ((ratio * 20.0).round() as usize).min(40);
        println!(
            "  meas {meas:8.4}s  pred {pred:8.4}s  |{:<41}| ratio {ratio:4.2}",
            "#".repeat(bars)
        );
    }

    println!(
        "\n{} points evaluated, {} launched",
        summary.points, summary.measured_points
    );
    // `relative_rmse` returns None when no valid pair survives its
    // degenerate-measurement filter; NaN renders that case honestly.
    let pct = |r: Option<f64>| 100.0 * r.unwrap_or(f64::NAN);
    println!(
        "RMSE over all points     : {:6.1}%   (paper: 45%-200% — the model is deliberately optimistic)",
        pct(summary.rmse_all)
    );
    println!(
        "RMSE over top performers : {:6.1}%   (paper: < 10% — accurate where it matters)",
        pct(summary.rmse_top20)
    );

    // Show a couple of the spectacular full-space misses for intuition.
    let mut worst: Vec<_> = evals
        .iter()
        .filter_map(|e| e.measured.map(|m| (e.point, e.predicted, m)))
        .collect();
    worst.sort_by(|a, b| (b.2 / b.1).total_cmp(&(a.2 / a.1)));
    println!("\nwhere the optimism shows (worst under-predictions):");
    for (p, pred, meas) in worst.iter().take(3) {
        println!(
            "  tiles (tT={}, tS1={}, tS2={}) threads {:?}: predicted {pred:.3}s, measured {meas:.3}s ({:.1}x)",
            p.tiles.t_t, p.tiles.t_s[0], p.tiles.t_s[1], p.launch.threads, meas / pred
        );
    }
}
