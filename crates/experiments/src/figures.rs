//! Regeneration of the paper's Figures 3–6.

use crate::context::Lab;
use crate::rmse;
use gpu_sim::{DeviceConfig, Workload};
use hhc_tiling::TileSizes;
use serde::{Deserialize, Serialize};
use stencil_core::{ProblemSize, StencilDescriptor, StencilDim};
use tile_opt::strategy::{study, DataPoint, Strategy, StrategyContext, Study};
use tile_opt::{baseline_points, evaluate_points, Evaluated, SpaceConfig};
use time_model::DimSpec;

/// One (device, benchmark, size) validation experiment — a point set of
/// the paper's Figure 3 plus the §5.3 RMSE numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationResult {
    /// Device name.
    pub device: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Problem-size label.
    pub size: String,
    /// Number of evaluated baseline data points (850 in the paper).
    pub points: usize,
    /// Points that launched successfully on the machine.
    pub measured_points: usize,
    /// Relative RMSE over every measured point (paper: 45–200 %);
    /// `None` when no valid pair was measured.
    pub rmse_all: Option<f64>,
    /// Points within 20 % of the best measured performance (GFLOPS
    /// band: time ≤ best/(1 − 0.20)).
    pub top_points: usize,
    /// Relative RMSE over the top-performing points (paper: < 10 %);
    /// `None` when the band is empty.
    pub rmse_top20: Option<f64>,
    /// (predicted, measured) pairs of the top-performing points — the
    /// scatter of Figure 3.
    pub scatter_top: Vec<(f64, f64)>,
}

/// Run the Figure 3 validation for one (device, benchmark, size),
/// returning the summary and the raw evaluations (for pooling).
pub fn validate_one_full(
    lab: &Lab,
    device: &DeviceConfig,
    stencil: &StencilDescriptor,
    size: &ProblemSize,
    space: &SpaceConfig,
) -> (ValidationResult, Vec<Evaluated>) {
    let params = lab.model_params(device, stencil);
    let workload = Workload::new(device.clone(), stencil.clone(), *size)
        .expect("benchmark and size dimensionalities agree");
    let ctx = StrategyContext::new(&workload, &params, space);
    let points = baseline_points(device, workload.dim(), space);
    let evals = evaluate_points(&ctx, &points);
    (summarize_validation(device, stencil, size, &evals), evals)
}

/// Run the Figure 3 validation for one (device, benchmark, size).
pub fn validate_one(
    lab: &Lab,
    device: &DeviceConfig,
    stencil: &StencilDescriptor,
    size: &ProblemSize,
    space: &SpaceConfig,
) -> ValidationResult {
    validate_one_full(lab, device, stencil, size, space).0
}

/// The paper's §5.3 aggregation: pool the 850 points of *every* problem
/// size of a (benchmark, platform) combination (8500 points), then take
/// the data points whose GFLOPS are within 20 % of the top performer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PooledValidation {
    /// Device name.
    pub device: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Pooled measured points across all sizes.
    pub points: usize,
    /// Relative RMSE over the pooled set (`None` when empty).
    pub rmse_all: Option<f64>,
    /// Points within 20 % of the best GFLOPS.
    pub top_points: usize,
    /// Relative RMSE over the top performers (paper: < 10 %; `None`
    /// when the band is empty).
    pub rmse_top20: Option<f64>,
}

/// Pool evaluations by the paper's GFLOPS criterion and compute RMSEs.
pub fn pool_validation(
    device: &DeviceConfig,
    stencil: &StencilDescriptor,
    evals: &[Evaluated],
) -> PooledValidation {
    let all_pairs = rmse::pairs(evals);
    let best_gflops = evals
        .iter()
        .filter_map(|e| e.gflops)
        .max_by(f64::total_cmp)
        .unwrap_or(0.0);
    let top: Vec<Evaluated> = evals
        .iter()
        .filter(|e| e.gflops.is_some_and(|g| g >= 0.8 * best_gflops))
        .copied()
        .collect();
    let top_pairs = rmse::pairs(&top);
    PooledValidation {
        device: device.name.clone(),
        benchmark: stencil.name.clone(),
        points: all_pairs.len(),
        rmse_all: rmse::relative_rmse(&all_pairs),
        top_points: top_pairs.len(),
        rmse_top20: rmse::relative_rmse(&top_pairs),
    }
}

/// Compute the RMSE summary from evaluated baseline points.
pub fn summarize_validation(
    device: &DeviceConfig,
    stencil: &StencilDescriptor,
    size: &ProblemSize,
    evals: &[Evaluated],
) -> ValidationResult {
    let all_pairs = rmse::pairs(evals);
    let top = rmse::top_performing(evals, 0.20);
    let top_pairs = rmse::pairs(&top);
    ValidationResult {
        device: device.name.clone(),
        benchmark: stencil.name.clone(),
        size: size.label(),
        points: evals.len(),
        measured_points: all_pairs.len(),
        rmse_all: rmse::relative_rmse(&all_pairs),
        top_points: top.len(),
        rmse_top20: rmse::relative_rmse(&top_pairs),
        scatter_top: top_pairs,
    }
}

/// Run the full Figure 3 sweep: every benchmark × device × size of the
/// requested dimensionalities. Returns per-size results plus the
/// paper's pooled per-(benchmark, platform) aggregation.
pub fn figure3(lab: &Lab, dims: &[StencilDim]) -> (Vec<ValidationResult>, Vec<PooledValidation>) {
    let mut stencils = Vec::new();
    for &dim in dims {
        stencils.extend(StencilDescriptor::paper(dim));
    }
    figure3_for(lab, &stencils)
}

/// The Figure-3 machinery over an arbitrary descriptor set — the zoo
/// path (`experiments zoo`) runs non-paper stencils through exactly
/// this pipeline.
pub fn figure3_for(
    lab: &Lab,
    stencils: &[StencilDescriptor],
) -> (Vec<ValidationResult>, Vec<PooledValidation>) {
    let space = SpaceConfig::default();
    let mut out = Vec::new();
    let mut pooled = Vec::new();
    for device in &lab.devices {
        for stencil in stencils {
            let sizes = lab.scale.sizes(stencil.dim);
            let mut all = Vec::new();
            for size in &sizes {
                let (r, evals) = validate_one_full(lab, device, stencil, size, &space);
                out.push(r);
                all.extend(evals);
            }
            pooled.push(pool_validation(device, stencil, &all));
        }
    }
    (out, pooled)
}

/// One grid cell of the Figure 4 surface.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SurfaceCell {
    /// Time-tile extent.
    pub t_t: usize,
    /// Inner space-tile extent `t_S2`.
    pub t_s2: usize,
    /// Predicted `T_alg` (s); `None` if infeasible (over the per-block
    /// shared-memory cap).
    pub talg: Option<f64>,
}

/// The Figure 4 data: `T_alg` for Heat2D on the GTX 980 as a function of
/// `t_T` and `t_S2` with `t_S1` fixed at 8.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SurfaceResult {
    /// Fixed `t_S1` (8 in the paper).
    pub t_s1: usize,
    /// Problem size used.
    pub size: String,
    /// The grid of predictions.
    pub cells: Vec<SurfaceCell>,
    /// The minimizing cell (`T_alg min` — the paper's red dot).
    pub min_cell: Option<SurfaceCell>,
}

/// Regenerate Figure 4.
pub fn figure4(lab: &Lab) -> SurfaceResult {
    let device = &lab.devices[0]; // GTX 980
    let stencil = StencilDescriptor::heat2d();
    let size = lab
        .scale
        .sizes_2d()
        .first()
        .copied()
        .unwrap_or_else(|| ProblemSize::new_2d(4096, 4096, 1024));
    let params = lab.model_params(device, &stencil);
    let spec = DimSpec::for_stencil(&stencil);
    let t_s1 = 8usize;
    let mut cells = Vec::new();
    let mut min_cell: Option<SurfaceCell> = None;
    for t_t in (2..=48).step_by(2) {
        for t_s2 in (32..=512).step_by(32) {
            let tiles = TileSizes::new_2d(t_t, t_s1, t_s2);
            let feasible = tile_opt::is_feasible(device, spec, &tiles);
            let talg = feasible.then(|| spec.predict(&params, &size, &tiles).talg);
            let cell = SurfaceCell { t_t, t_s2, talg };
            if let Some(v) = talg {
                if min_cell.and_then(|c| c.talg).is_none_or(|m| v < m) {
                    min_cell = Some(cell);
                }
            }
            cells.push(cell);
        }
    }
    SurfaceResult {
        t_s1,
        size: size.label(),
        cells,
        min_cell,
    }
}

/// The Figure 5 data: baseline scatter vs. predicted-candidate scatter
/// for Gradient2D at `S = T = 8192` on the GTX 980, plus the headline
/// improvement numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Result {
    /// Problem size used.
    pub size: String,
    /// (predicted, measured) for every baseline point that launched.
    pub baseline: Vec<(f64, f64)>,
    /// (predicted, measured) for the within-10 % candidates.
    pub candidates: Vec<(f64, f64)>,
    /// Best measured baseline time (the paper's 19.8 s).
    pub baseline_best: Option<f64>,
    /// Best measured candidate time (the paper's 16.5 s).
    pub candidate_best: Option<f64>,
    /// Improvement of the candidate best over the baseline best
    /// (the paper reports 17 % for this experiment).
    pub improvement: Option<f64>,
    /// Number of candidate points measured (paper: < 200).
    pub candidate_count: usize,
}

/// Regenerate Figure 5.
pub fn figure5(lab: &Lab) -> Fig5Result {
    let device = &lab.devices[0]; // GTX 980
    let stencil = StencilDescriptor::gradient2d();
    let size = lab.scale.fig5_size();
    let params = lab.model_params(device, &stencil);
    let space = SpaceConfig::default();
    let workload = Workload::new(device.clone(), stencil, size)
        .expect("benchmark and size dimensionalities agree");
    let ctx = StrategyContext::new(&workload, &params, &space);
    let st = study(&ctx, false);
    let baseline = rmse::pairs(&st.baseline);
    let candidates = rmse::pairs(&st.within);
    let baseline_best = baseline.iter().map(|p| p.1).min_by(f64::total_cmp);
    let candidate_best = candidates.iter().map(|p| p.1).min_by(f64::total_cmp);
    let improvement = match (baseline_best, candidate_best) {
        (Some(b), Some(c)) => Some((b - c) / b),
        _ => None,
    };
    Fig5Result {
        size: size.label(),
        baseline,
        candidates,
        baseline_best,
        candidate_best,
        improvement,
        candidate_count: st.within.len(),
    }
}

/// One bar group of Figure 6: average GFLOPS per strategy for a
/// benchmark on a device, averaged over the problem-size grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Device name.
    pub device: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Number of problem sizes averaged.
    pub sizes: usize,
    /// Average GFLOPS per strategy, in [`Strategy`] declaration order.
    pub gflops: Vec<(String, f64)>,
    /// Mean improvement of Within10 over Baseline across sizes.
    pub within_vs_baseline: f64,
    /// Mean improvement of Within10 over the HHC default across sizes.
    pub within_vs_hhc: f64,
}

/// One strategy's outcome for one (device, benchmark, size) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Outcome {
    /// Strategy name ([`Strategy::name`]).
    pub strategy: String,
    /// Machine-measured time of the chosen configuration (s).
    pub measured_s: f64,
    /// Achieved GFLOPS of the chosen configuration.
    pub gflops: f64,
    /// Configurations the strategy measured to get there.
    pub measured_count: usize,
    /// The chosen configuration itself (tile sizes + launch), so the
    /// driver can replay it — e.g. to export its simulated schedule as a
    /// Chrome trace.
    pub point: DataPoint,
}

/// Per-size strategy outcomes (kept for detailed reporting).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Detail {
    /// Device name.
    pub device: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Size label.
    pub size: String,
    /// One entry per strategy that produced a measurable choice.
    pub outcomes: Vec<Fig6Outcome>,
}

/// Regenerate Figure 6 for the 2D benchmarks (the paper's figure), with
/// optional exhaustive search.
pub fn figure6(lab: &Lab, exhaustive: bool) -> (Vec<Fig6Row>, Vec<Fig6Detail>) {
    let stencils = StencilDescriptor::paper(StencilDim::D2);
    figure6_for(lab, &stencils, &lab.scale.sizes_2d(), exhaustive)
}

/// Figure 6 machinery over an arbitrary benchmark/size set (used for the
/// 3D extension experiments).
pub fn figure6_for(
    lab: &Lab,
    stencils: &[StencilDescriptor],
    sizes: &[ProblemSize],
    exhaustive: bool,
) -> (Vec<Fig6Row>, Vec<Fig6Detail>) {
    let space = SpaceConfig::default();
    let mut rows = Vec::new();
    let mut details = Vec::new();
    for device in &lab.devices {
        for stencil in stencils {
            let params = lab.model_params(device, stencil);
            let mut sums: Vec<(Strategy, f64, usize)> = Vec::new();
            let mut impr_baseline = Vec::new();
            let mut impr_hhc = Vec::new();
            for size in sizes {
                let workload = Workload::new(device.clone(), stencil.clone(), *size)
                    .expect("benchmark and size dimensionalities agree");
                let ctx = StrategyContext::new(&workload, &params, &space);
                let st: Study = study(&ctx, exhaustive);
                let mut detail = Fig6Detail {
                    device: device.name.clone(),
                    benchmark: stencil.name.clone(),
                    size: size.label(),
                    outcomes: Vec::new(),
                };
                let get = |s: Strategy| -> Option<f64> {
                    st.outcomes
                        .iter()
                        .find(|o| o.strategy == s)
                        .and_then(|o| o.chosen.gflops)
                };
                for o in &st.outcomes {
                    if let (Some(m), Some(g)) = (o.chosen.measured, o.chosen.gflops) {
                        detail.outcomes.push(Fig6Outcome {
                            strategy: o.strategy.name().to_string(),
                            measured_s: m,
                            gflops: g,
                            measured_count: o.measured_count,
                            point: o.chosen.point,
                        });
                        match sums.iter_mut().find(|(s, _, _)| *s == o.strategy) {
                            Some(e) => {
                                e.1 += g;
                                e.2 += 1;
                            }
                            None => sums.push((o.strategy, g, 1)),
                        }
                    }
                }
                if let (Some(w), Some(b)) = (get(Strategy::Within10), get(Strategy::Baseline)) {
                    impr_baseline.push(w / b - 1.0);
                }
                if let (Some(w), Some(h)) = (get(Strategy::Within10), get(Strategy::HhcDefault)) {
                    impr_hhc.push(w / h - 1.0);
                }
                details.push(detail);
            }
            rows.push(Fig6Row {
                device: device.name.clone(),
                benchmark: stencil.name.clone(),
                sizes: sizes.len(),
                gflops: sums
                    .iter()
                    .map(|(s, g, n)| (s.name().to_string(), g / *n as f64))
                    .collect(),
                within_vs_baseline: mean(&impr_baseline),
                within_vs_hhc: mean(&impr_hhc),
            });
        }
    }
    (rows, details)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn validation_smoke_run_has_low_top_rmse() {
        let lab = Lab::new(ExperimentScale::Smoke);
        let device = lab.devices[0].clone();
        // Mid-scale problem: big enough that the model's ⌈⌈w/k⌉/n_SM⌉
        // quantization is not dominated by a handful of blocks (the
        // paper, likewise, validates only at large sizes — the strict
        // <10 % band is checked at paper scale by the binary and
        // recorded in EXPERIMENTS.md).
        let size = ProblemSize::new_2d(2048, 2048, 512);
        let r = validate_one(
            &lab,
            &device,
            &StencilDescriptor::jacobi2d(),
            &size,
            &SpaceConfig::default(),
        );
        assert_eq!(r.points, 850);
        assert!(
            r.measured_points > 700,
            "only {} measured",
            r.measured_points
        );
        assert!(r.top_points > 0);
        let (top, all) = (r.rmse_top20.unwrap(), r.rmse_all.unwrap());
        // The paper's headline behaviour: better at the top than overall.
        assert!(top <= all, "top {top} vs all {all}");
        assert!(top < 0.35, "top-20% RMSE too high: {top}");
    }

    #[test]
    fn figure4_surface_has_feasible_minimum() {
        let lab = Lab::new(ExperimentScale::Smoke);
        let r = figure4(&lab);
        assert_eq!(r.t_s1, 8);
        assert!(!r.cells.is_empty());
        let min = r.min_cell.expect("a feasible minimum");
        assert!(min.talg.unwrap() > 0.0);
        // The minimum really is minimal among feasible cells.
        for c in &r.cells {
            if let Some(v) = c.talg {
                assert!(v >= min.talg.unwrap());
            }
        }
        // Infeasible corner: huge t_T × huge t_S2 must be excluded.
        assert!(
            r.cells.iter().any(|c| c.talg.is_none()),
            "expected infeasible cells at the large corner"
        );
    }
}
