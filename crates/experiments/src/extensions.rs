//! Extension experiments beyond the paper's printed evaluation — the
//! studies its Discussion section motivates.
//!
//! * [`model_variant_ablation`] — the printed grid term vs. this
//!   reproduction's tail-aware refinement (`time_model::refined`):
//!   quantifies how much of the residual top-band error is the
//!   `⌈⌈w/k⌉/n_SM⌉` quantization.
//! * [`solver_comparison`] — heuristic non-linear solvers (the paper's
//!   AMPL/Bonmin stand-ins) vs. the exhaustive model sweep (§6.1).
//! * [`time_tiling_comparison`] — the HHC schedule vs. the classic
//!   wavefront-parallel schedule on the machine: what time tiling buys
//!   (the premise of the whole paper).
//! * [`machine_effect_ablation`] — switch the machine's unmodeled
//!   effects off one at a time and watch the validation error structure
//!   collapse: evidence that the model-vs-machine gap is carried by
//!   exactly the effects the paper names.

use crate::context::Lab;
use crate::rmse;
use gpu_sim::{simulate, DeviceConfig, SimWorkload, Workload};
use hhc_tiling::{LaunchConfig, SpaceBlock, TileSizes, WavefrontSchedule};
use serde::{Deserialize, Serialize};
use stencil_core::{reference, StencilDescriptor};
use tile_opt::strategy::{study, Strategy, StrategyContext};
use tile_opt::{
    baseline_points, coordinate_descent, evaluate_points, feasible_space, model_sweep_spec,
    simulated_annealing, talg_min, SpaceConfig,
};
use time_model::DimSpec;

/// Top-band RMSE of the printed model vs. the tail-aware refinement for
/// one experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantRow {
    /// Device name.
    pub device: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Problem size.
    pub size: String,
    /// Top-20 % RMSE of the model as printed (`None` when the band is
    /// empty).
    pub rmse_printed: Option<f64>,
    /// Top-20 % RMSE with the tail-aware grid term.
    pub rmse_refined: Option<f64>,
}

/// Compare the printed model against the tail-aware refinement on a
/// representative experiment per benchmark/device.
pub fn model_variant_ablation(lab: &Lab) -> Vec<VariantRow> {
    let space = SpaceConfig::default();
    let mut rows = Vec::new();
    for device in &lab.devices {
        for (stencil, size) in [
            (StencilDescriptor::jacobi2d(), lab.scale.sizes_2d()[0]),
            (StencilDescriptor::gradient2d(), lab.scale.sizes_2d()[0]),
            (StencilDescriptor::heat3d(), lab.scale.sizes_3d()[0]),
        ] {
            let params = lab.model_params(device, &stencil);
            let workload = Workload::new(device.clone(), stencil.clone(), size)
                .expect("benchmark and size dimensionalities agree");
            let ctx = StrategyContext::new(&workload, &params, &space);
            let points = baseline_points(device, workload.dim(), &space);
            let evals = evaluate_points(&ctx, &points);
            let top = rmse::top_performing(&evals, 0.20);
            let printed_pairs = rmse::pairs(&top);
            let refined_pairs: Vec<(f64, f64)> = top
                .iter()
                .filter_map(|e| {
                    e.measured.map(|m| {
                        let refined = ctx.dspec().predict_refined(&params, &size, &e.point.tiles);
                        (refined.talg, m)
                    })
                })
                .collect();
            rows.push(VariantRow {
                device: device.name.clone(),
                benchmark: stencil.name.to_string(),
                size: size.label(),
                rmse_printed: rmse::relative_rmse(&printed_pairs),
                rmse_refined: rmse::relative_rmse(&refined_pairs),
            });
        }
    }
    rows
}

/// One solver-vs-sweep comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverRow {
    /// Device name.
    pub device: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Problem size.
    pub size: String,
    /// Exhaustive sweep's predicted minimum.
    pub sweep_min: f64,
    /// Coordinate descent's found minimum and its gap vs. the sweep.
    pub cd_min: f64,
    /// Gap of coordinate descent over the sweep (fraction ≥ 0).
    pub cd_gap: f64,
    /// Simulated annealing's found minimum.
    pub sa_min: f64,
    /// Gap of annealing over the sweep.
    pub sa_gap: f64,
    /// Model evaluations: sweep vs. coordinate descent vs. annealing.
    pub evals: (usize, usize, usize),
}

/// Reproduce the §6.1 solver comparison: heuristics find good-but-not-
/// optimal points; the exhaustive sweep is both reliable and cheap.
pub fn solver_comparison(lab: &Lab) -> Vec<SolverRow> {
    let cfg = SpaceConfig::default();
    let mut rows = Vec::new();
    for device in &lab.devices {
        for (stencil, size) in [
            (StencilDescriptor::jacobi2d(), lab.scale.sizes_2d()[0]),
            (
                StencilDescriptor::heat2d(),
                *lab.scale.sizes_2d().last().unwrap(),
            ),
            (StencilDescriptor::heat3d(), lab.scale.sizes_3d()[0]),
        ] {
            let params = lab.model_params(device, &stencil);
            let workload = Workload::new(device.clone(), stencil.clone(), size)
                .expect("benchmark and size dimensionalities agree");
            let space = feasible_space(&workload, &cfg);
            let spec = DimSpec::for_stencil(&stencil);
            let sweep = model_sweep_spec(spec, &params, &size, &space, None);
            let (_, best) = talg_min(&sweep).expect("non-empty space");
            // Start from the smallest extents on every axis — the same
            // point for any rank: [t_T, t_S1, (mid…,)] = 4, inner = 32.
            let dim = workload.dim();
            let mut start_coords = vec![4usize; dim.rank()];
            start_coords.push(32);
            let start =
                TileSizes::from_coords(dim, &start_coords).expect("one coordinate per axis");
            let cd = coordinate_descent(&workload, &params, &cfg, &start);
            let sa = simulated_annealing(&workload, &params, &cfg, 3, 80, 17);
            rows.push(SolverRow {
                device: device.name.clone(),
                benchmark: stencil.name.to_string(),
                size: size.label(),
                sweep_min: best.talg,
                cd_min: cd.talg,
                cd_gap: cd.talg / best.talg - 1.0,
                sa_min: sa.talg,
                sa_gap: sa.talg / best.talg - 1.0,
                evals: (space.len(), cd.evaluations, sa.evaluations),
            });
        }
    }
    rows
}

/// One time-tiling-vs-naive comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeTilingRow {
    /// Device name.
    pub device: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Problem size.
    pub size: String,
    /// Best wavefront-parallel (non-time-tiled) time on the machine.
    pub naive_time: f64,
    /// The naive schedule's GFLOPS.
    pub naive_gflops: f64,
    /// Whether the naive best was memory-bound on the machine.
    pub naive_memory_bound: bool,
    /// Best HHC (Within-10 % strategy) time on the machine.
    pub hhc_time: f64,
    /// The HHC schedule's GFLOPS.
    pub hhc_gflops: f64,
    /// Speedup of time tiling.
    pub speedup: f64,
}

/// Quantify what time tiling buys: tune both schedule families on the
/// machine and compare.
pub fn time_tiling_comparison(lab: &Lab) -> Vec<TimeTilingRow> {
    let space = SpaceConfig::default();
    let mut rows = Vec::new();
    for device in &lab.devices {
        for stencil in [
            StencilDescriptor::jacobi2d(),
            StencilDescriptor::gradient2d(),
        ] {
            let spec = stencil.spec();
            let size = lab.scale.sizes_2d()[0];
            let flops = reference::total_flops(&spec, &size);

            // Best naive schedule: sweep rectangular block sizes.
            let mut naive: Option<(f64, bool)> = None;
            for b1 in [4usize, 8, 16, 32] {
                for b2 in [32usize, 64, 128, 256] {
                    let Ok(ws) = WavefrontSchedule::build(
                        &spec,
                        &size,
                        SpaceBlock::new_2d(b1, b2),
                        LaunchConfig::new_2d(1, b2.min(512)),
                    ) else {
                        continue;
                    };
                    if let Ok(r) = simulate(device, &SimWorkload::from_wavefront(&ws)) {
                        if naive.is_none_or(|(t, _)| r.total_time < t) {
                            naive = Some((r.total_time, r.memory_bound()));
                        }
                    }
                }
            }
            let (naive_time, naive_mb) = naive.expect("some naive config launches");

            // Best HHC schedule: the paper's Within-10 % selection.
            let params = lab.model_params(device, &stencil);
            let workload = Workload::new(device.clone(), stencil.clone(), size)
                .expect("benchmark and size dimensionalities agree");
            let ctx = StrategyContext::new(&workload, &params, &space);
            let st = study(&ctx, false);
            let hhc_time = st
                .outcomes
                .iter()
                .find(|o| o.strategy == Strategy::Within10)
                .and_then(|o| o.chosen.measured)
                .expect("within10 outcome");

            rows.push(TimeTilingRow {
                device: device.name.clone(),
                benchmark: stencil.name.to_string(),
                size: size.label(),
                naive_time,
                naive_gflops: flops as f64 / naive_time / 1e9,
                naive_memory_bound: naive_mb,
                hhc_time,
                hhc_gflops: flops as f64 / hhc_time / 1e9,
                speedup: naive_time / hhc_time,
            });
        }
    }
    rows
}

/// RMSE structure with one machine effect disabled.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EffectRow {
    /// Which effect was disabled ("none" = the full machine).
    pub disabled: String,
    /// Full-space relative RMSE (`None` when nothing measured).
    pub rmse_all: Option<f64>,
    /// Top-20 % relative RMSE.
    pub rmse_top20: Option<f64>,
}

/// Disable the machine's unmodeled effects one at a time and re-run one
/// validation experiment: the full-space error collapses as the effects
/// the paper's model deliberately ignores are removed.
pub fn machine_effect_ablation(lab: &Lab) -> Vec<EffectRow> {
    let stencil = StencilDescriptor::jacobi2d();
    let size = lab.scale.sizes_2d()[0];
    let space = SpaceConfig::default();
    let base = lab.devices[0].clone();

    let variants: Vec<(&str, DeviceConfig)> = vec![
        ("none", base.clone()),
        (
            "spills",
            DeviceConfig {
                spill_coeff: 0.0,
                ..base.clone()
            },
        ),
        (
            "mem_latency",
            DeviceConfig {
                mem_latency: 0.0,
                ..base.clone()
            },
        ),
        (
            "spills+latency",
            DeviceConfig {
                spill_coeff: 0.0,
                mem_latency: 0.0,
                ..base.clone()
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, device) in variants {
        // Re-measure the model parameters on the modified machine — the
        // methodology is part of what is being ablated.
        let measured = microbench::measured_params_sampled(
            &device,
            &stencil,
            lab.scale.citer_samples(),
            0x5EED,
        );
        let params = time_model::ModelParams::from_measured(&device, &measured);
        let workload = Workload::new(device.clone(), stencil.clone(), size)
            .expect("benchmark and size dimensionalities agree");
        let ctx = StrategyContext::new(&workload, &params, &space);
        let points = baseline_points(&device, workload.dim(), &space);
        let evals = evaluate_points(&ctx, &points);
        let all = rmse::pairs(&evals);
        let top = rmse::pairs(&rmse::top_performing(&evals, 0.20));
        rows.push(EffectRow {
            disabled: name.to_string(),
            rmse_all: rmse::relative_rmse(&all),
            rmse_top20: rmse::relative_rmse(&top),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn time_tiling_wins_on_the_machine() {
        let lab = Lab::new(ExperimentScale::Smoke);
        let rows = time_tiling_comparison(&lab);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            // At smoke scale (short T) the margin is modest; the paper-
            // scale numbers (several x) are produced by the binary.
            assert!(
                r.speedup > 1.05,
                "{} {} speedup only {:.2}",
                r.device,
                r.benchmark,
                r.speedup
            );
            if r.benchmark == "Jacobi2D" {
                assert!(
                    r.naive_memory_bound,
                    "{} {} naive not memory-bound",
                    r.device, r.benchmark
                );
            }
        }
    }

    #[test]
    fn solvers_are_suboptimal_but_reasonable() {
        let lab = Lab::new(ExperimentScale::Smoke);
        let rows = solver_comparison(&lab);
        for r in &rows {
            assert!(r.cd_gap >= -1e-9, "{r:?}");
            assert!(r.sa_gap >= -1e-9, "{r:?}");
            assert!(r.cd_gap < 1.5 && r.sa_gap < 1.5, "{r:?}");
        }
    }

    #[test]
    fn refined_model_does_not_hurt_top_rmse() {
        let lab = Lab::new(ExperimentScale::Smoke);
        let rows = model_variant_ablation(&lab);
        let mean = |f: fn(&VariantRow) -> Option<f64>| {
            rows.iter().map(|r| f(r).unwrap()).sum::<f64>() / rows.len() as f64
        };
        let printed = mean(|r| r.rmse_printed);
        let refined = mean(|r| r.rmse_refined);
        assert!(
            refined <= printed * 1.05,
            "refined {refined} should not exceed printed {printed}"
        );
    }
}
