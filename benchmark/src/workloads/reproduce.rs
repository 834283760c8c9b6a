//! `reproduce`: how the paper's Figure 6 is regenerated.
//!
//! Fixed work: one strategy study (`tile_opt::strategy::study`, without
//! the exhaustive sweep) per device x stencil x size, one study at a
//! time. The simulator and plan building carry the time; the executor
//! and the server do nothing.

use super::{label, rounds, shuffled, traced_round};
use crate::fixture::{fnv64, Checks, Fixture};
use crate::run::{self, layer, Ledger, Phase, Report, RunConfig, Tracer};
use crate::stats::ratio;
use experiments::{ExperimentScale, Lab};
use gpu_sim::{simulate, SimWorkload, Workload};
use hhc_tiling::{LaunchConfig, TilingPlan};
use stencil_core::{ProblemSize, StencilDescriptor};
use tile_opt::{
    baseline_points, evaluate_points, feasible_space, model_sweep, study, within_fraction,
    DataPoint, SpaceConfig, Strategy, StrategyContext, Study,
};
use time_model::ModelParams;

const DEVICES: &[&str] = &["GTX 980", "Titan X"];
const STENCILS: &[&str] = &[
    "Heat2D",
    "Jacobi2D",
    "Gradient2D",
    "Lap4_2D",
    "Heat3D",
    "Advect3D",
];
/// `(extent, time steps)` per rank, two sizes each.
const SIZES_2D: &[(usize, usize)] = &[(1024, 64), (4096, 1024)];
const SIZES_3D: &[(usize, usize)] = &[(128, 24), (384, 128)];

/// One study's inputs.
struct Input {
    workload: Workload,
    label: String,
}

fn inputs(smoke: bool) -> Vec<Input> {
    let mut out = Vec::new();
    for &dev in DEVICES {
        for &st in STENCILS {
            let stencil = super::stencil(st);
            let rank = stencil.dim.rank();
            let sizes = if rank == 3 { SIZES_3D } else { SIZES_2D };
            for (k, &(extent, time)) in sizes.iter().enumerate() {
                // Smoke: the small size of the 3D studies and one 2D study.
                if smoke && (k > 0 || (rank == 2 && (dev, st) != ("GTX 980", "Heat2D"))) {
                    continue;
                }
                let extents = vec![extent; rank];
                let size =
                    ProblemSize::from_extents(&extents, time).expect("study sizes are valid");
                out.push(Input {
                    workload: Workload::new(super::device(dev), stencil.clone(), size)
                        .expect("study ranks agree"),
                    label: label(dev, st, &extents, time),
                });
            }
        }
    }
    out
}

/// Set-up: the micro-benchmarked model parameters of every (device,
/// stencil) pair, measured the way the experiments driver measures them.
fn setup(inputs: &[Input]) -> Vec<ModelParams> {
    let lab = Lab::new(ExperimentScale::Reduced);
    inputs
        .iter()
        .map(|i| lab.model_params(&i.workload.device, &i.workload.stencil))
        .collect()
}

fn bits(evals: &[tile_opt::Evaluated]) -> String {
    evals
        .iter()
        .map(|e| e.measured.map_or(0, f64::to_bits).to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Digest of every simulated time of the baseline set.
fn sim_digest(st: &Study) -> u64 {
    fnv64(bits(&st.baseline).as_bytes())
}

/// Digest of the candidate set's simulated times and each strategy's
/// choice (pinned for radius-1 stencils only: at radius 2 the model's
/// predictions, and so the candidate set, are expected to change).
fn selection_digest(st: &Study) -> u64 {
    let mut text = bits(&st.within);
    for o in &st.outcomes {
        text.push_str(&format!(
            "|{}:{:?}:{}",
            o.strategy.name(),
            o.chosen.point,
            o.chosen.measured.map_or(0, f64::to_bits)
        ));
    }
    fnv64(text.as_bytes())
}

fn is_radius_1(stencil: &StencilDescriptor) -> bool {
    stencil.radius == 1
}

fn run_study(input: &Input, params: &ModelParams) -> Study {
    let space = SpaceConfig::default();
    let ctx = StrategyContext::new(&input.workload, params, &space);
    study(&ctx, false)
}

/// Rounds of every study for about `cfg.seconds`. Each round starts from
/// scratch, as a regeneration of the figure does: it measures the model
/// parameters (the set-up, timed into `setups`), then runs the studies.
/// Returns the untraced and the traced rounds (see [`traced_round`]).
fn measure(
    inputs: &[Input],
    cfg: &RunConfig,
    tracer: Option<&Tracer>,
    setups: &mut Vec<f64>,
    checks: &mut Checks,
) -> [Phase; 2] {
    let mut phases = [Phase::default(), Phase::default()];
    let min = if tracer.is_some() { 2 } else { 1 };
    let mut round_seed = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rounds(cfg.seconds, min, cfg.smoke, |n| {
        let (params, t) = run::timed(|| setup(inputs));
        setups.push(t);
        round_seed = round_seed.wrapping_add(1);
        let traced = traced_round(tracer, n);
        let phase = &mut phases[usize::from(traced.is_some())];
        traced.inspect(|t| t.resume());
        let mut round = 0.0;
        for i in shuffled(inputs.len(), round_seed) {
            let (st, dt) = layer("tile_opt.study", || run_study(&inputs[i], &params[i]));
            round += dt;
            phase.attempted += 1;
            let chose = |s: Strategy| st.outcomes.iter().any(|o| o.strategy == s);
            if chose(Strategy::Baseline) && chose(Strategy::Within10) {
                phase.completed += 1;
            } else {
                phase.failed += 1;
            }
            checks.expect(&format!("sim|{}", inputs[i].label), sim_digest(&st));
            if is_radius_1(&inputs[i].workload.stencil) {
                checks.expect(&format!("sel|{}", inputs[i].label), selection_digest(&st));
            }
        }
        traced.inspect(|t| t.pause());
        phase.seconds += round;
        phase.op_ms.push((round * 1e3) as f32);
    });
    phases
}

pub fn run(cfg: &RunConfig) -> Report {
    let inputs = inputs(cfg.smoke);
    let mut checks = Checks::new("reproduce");
    // A run has only two or three rounds, so set up a few more times
    // before them for a steadier median set-up time.
    let before = if cfg.smoke { 1 } else { 5 };
    let mut setups: Vec<f64> = (0..before)
        .map(|_| run::timed(|| setup(&inputs)).1)
        .collect();
    if !cfg.trace {
        let [mut phase, _] = measure(&inputs, cfg, None, &mut setups, &mut checks);
        return Report {
            attempted: phase.attempted,
            failed: phase.failed,
            metrics: run::end_to_end(&setups, &mut phase),
            checks,
        };
    }
    let tracer = Tracer::default();
    let [mut plain, mut traced] = measure(&inputs, cfg, Some(&tracer), &mut setups, &mut checks);
    let snap = tracer.snapshot();
    let mut ledger = Ledger::default();
    ledger.set_overhead(&mut plain, &mut traced);
    layers(&mut ledger, &snap, &inputs, &plain, &traced);
    tracer.finish(&cfg.out_dir.join("reproduce.trace.json"));
    Report {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: ledger.into_metrics(),
        checks,
    }
}

/// The per-layer ledger: simulator and optimizer counters from the
/// traced rounds, and one timed pass over each layer's entry points with
/// every study's inputs (the simulator on a sample of each study's
/// points).
fn layers(
    ledger: &mut Ledger,
    snap: &obs::Snapshot,
    inputs: &[Input],
    plain: &Phase,
    traced: &Phase,
) {
    let space_cfg = SpaceConfig::default();
    let (params, microbench) = layer("experiments.Lab::model_params", || setup(inputs));
    let (mut space, mut sweep, mut strategy, mut feasible, mut within_n) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut plan, mut lower, mut sim, mut points, mut sims) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut evaluate = 0.0;
    for (input, p) in inputs.iter().zip(&params) {
        let w = &input.workload;
        let dim = w.dim();
        let (tiles, t) = layer("tile_opt.feasible_space", || feasible_space(w, &space_cfg));
        space += t;
        feasible += tiles.len() as f64;
        let (swept, t) = layer("tile_opt.model_sweep", || model_sweep(p, &w.size, &tiles));
        sweep += t;
        let (baseline, t) = layer("tile_opt.baseline_points", || {
            baseline_points(&w.device, dim, &space_cfg)
        });
        strategy += t;
        let within = within_fraction(&swept, 0.10);
        within_n += within.len() as f64;
        let candidates = within.iter().step_by(4).map(|(t, _)| DataPoint {
            tiles: *t,
            launch: LaunchConfig::empirical(dim, t),
        });
        let spec = w.spec();
        let sample: Vec<DataPoint> = baseline
            .iter()
            .step_by(8)
            .copied()
            .chain(candidates)
            .collect();
        // The whole parallel evaluation (model prediction, plan,
        // lowering, simulation on the rayon pool) of the sample, then each
        // layer's share of it, call by call.
        let ctx = StrategyContext::new(w, p, &space_cfg);
        let (_, t) = layer("tile_opt.evaluate_points", || {
            evaluate_points(&ctx, &sample)
        });
        evaluate += t;
        for &point in &sample {
            points += 1.0;
            let (built, dt) = layer("hhc_tiling.TilingPlan::build", || {
                TilingPlan::build(&spec, &w.size, point.tiles, point.launch)
            });
            plan += dt;
            let Ok(built) = built else { continue };
            let (wl, dt) = layer("gpu_sim.SimWorkload::from_plan", || {
                SimWorkload::from_plan(&built)
            });
            lower += dt;
            let (_, dt) = layer("gpu_sim.simulate", || simulate(&w.device, &wl));
            sim += dt;
            sims += 1.0;
        }
    }
    let n = inputs.len() as f64;
    let c = |name: &str| snap.counter(name) as f64;
    let ops = traced.attempted as f64;
    // Per study: the points it simulated, each costing what a sampled
    // point cost. The plan, lowering and simulation times are thread
    // time; the evaluation time is wall time on the rayon pool, so their
    // ratio shows how well the pool is used.
    let evaluated = ratio(c("opt.eval_simulated"), ops);
    let per_point = |total: f64| ratio(total, points) * evaluated;
    let serial = (space + sweep + strategy) / n;
    let steady = c("sim.sched_steady");
    for (name, value) in [
        ("microbench.busy_ms", microbench * 1e3),
        ("tile_opt.space_busy_ms", space / n * 1e3),
        (
            "tile_opt.space_feasible_frac",
            ratio(c("opt.space_feasible"), c("opt.space_enumerated")),
        ),
        ("time_model.sweep_busy_ms", sweep / n * 1e3),
        ("time_model.predictions", feasible / n),
        ("tile_opt.within_points", within_n / n),
        ("tile_opt.eval_busy_ms", per_point(evaluate) * 1e3),
        ("hhc_tiling.plan_busy_ms", per_point(plan) * 1e3),
        ("gpu_sim.lower_busy_ms", per_point(lower) * 1e3),
        ("gpu_sim.simulate_busy_ms", per_point(sim) * 1e3),
        ("gpu_sim.runs", ratio(c("sim.runs"), ops)),
        ("gpu_sim.blocks", ratio(c("sim.blocks"), ops)),
        ("gpu_sim.us_per_run", ratio(sim, sims) * 1e6),
        (
            "gpu_sim.sched_steady_frac",
            ratio(steady, steady + c("sim.sched_fallback")),
        ),
        ("tile_opt.strategy_busy_ms", strategy / n * 1e3),
        (
            "tile_opt.eval_cache_hit_frac",
            ratio(c("opt.eval_cache_hits"), c("opt.eval_lookups")),
        ),
        (
            "coverage_frac",
            // Over every round: nothing here is read from the traced ones.
            ratio(
                (serial + per_point(evaluate)) * 1e3,
                ratio(
                    (plain.seconds + traced.seconds) * 1e3,
                    (plain.attempted + traced.attempted) as f64,
                ),
            ),
        ),
    ] {
        ledger.set(name, value);
    }
}

/// Recompute the reproduce fixtures from one study of every input.
pub fn bless() -> Fixture {
    let inputs = inputs(false);
    let params = setup(&inputs);
    let mut f = Fixture::default();
    for (input, p) in inputs.iter().zip(&params) {
        let st = run_study(input, p);
        f.insert(format!("sim|{}", input.label), sim_digest(&st));
        if is_radius_1(&input.workload.stencil) {
            f.insert(format!("sel|{}", input.label), selection_digest(&st));
        }
    }
    f
}
