//! `select`: the paper's Section 6.1 selection with measurement.
//!
//! A closed loop of one query at a time: `Advisor::advise` with
//! `validate: true` and an accuracy log, on a fresh advisor per round,
//! so every round runs the model sweep and executes the whole within-10%
//! candidate set on the tiled executor. The five queries span a
//! memory-bound and a compute-bound stencil, a radius-2 stencil and an
//! asymmetric zoo stencil, on both device presets.

use super::{device, label, rounds, shuffled, stencil, traced_round};
use crate::fixture::{fnv64, grid_digest, Checks, Fixture};
use crate::run::{self, layer, Ledger, Phase, Report, RunConfig, Tracer};
use crate::stats::ratio;
use advisor::{Advice, Advisor, AdvisorConfig, Query};
use gpu_sim::{simulate, SimWorkload, Workload};
use hhc_tiling::{ExecStats, LaunchConfig, TileSizes, TilingPlan};
use std::collections::HashSet;
use std::sync::Arc;
use stencil_core::{init, reference, Grid, ProblemSize};
use tile_opt::{feasible_space, model_sweep_spec, run_candidates, within_fraction};
use time_model::{roofline, DimSpec, ModelParams};

/// `(device, stencil, extents, time steps)` of the five queries.
const QUERIES: &[(&str, &str, &[usize], usize)] = &[
    ("GTX 980", "Jacobi2D", &[512, 512], 32),
    ("GTX 980", "Heat3D", &[64, 64, 64], 16),
    ("GTX 980", "Lap4_2D", &[512, 512], 32),
    ("Titan X", "Heat2D", &[512, 512], 32),
    ("Titan X", "Advect3D", &[64, 64, 64], 16),
];

fn query(i: usize, validate: bool) -> Query {
    let (dev, st, extents, time) = QUERIES[i];
    let size = ProblemSize::from_extents(extents, time).expect("query sizes are valid");
    Query {
        id: None,
        workload: Workload::new(device(dev), stencil(st), size).expect("query ranks agree"),
        within: 0.10,
        top_n: 10,
        validate,
        timeout_ms: None,
    }
}

fn query_label(i: usize) -> String {
    let (dev, st, extents, time) = QUERIES[i];
    label(dev, st, extents, time)
}

/// The model's answer without the measured part, as pinned for the
/// radius-1 stencils (radius-2 predictions are expected to change).
fn ranking_digest(a: &Advice) -> u64 {
    let candidates = serde_json::to_string(&a.candidates).expect("candidates render");
    fnv64(format!("{}|{}|{candidates}", a.feasible_points, a.within_points).as_bytes())
}

/// The input grid the advisor's validation runs on.
fn input_grid(q: &Query) -> Grid {
    init::random(
        q.workload.size.space_extents(),
        AdvisorConfig::default().seed,
    )
}

/// One run of the workload.
struct Select {
    smoke: bool,
    queries: Vec<Query>,
    log: Arc<obs::AccuracyLog>,
    /// Seed of the next round's query order.
    round_seed: u64,
    /// Every round's set-up time, s.
    setups: Vec<f64>,
    checks: Checks,
    grids: Vec<Option<Grid>>,
    /// Winners (query, tile coordinates) whose output was checked.
    checked_winners: HashSet<(usize, Vec<usize>)>,
    checked_rankings: HashSet<(usize, u64)>,
}

impl Select {
    /// One set-up: a fresh advisor sharing the run's accuracy log, its
    /// micro-benchmarks measured by a model-only pass over the queries.
    fn setup(&self) -> Advisor {
        let advisor = Advisor::new(AdvisorConfig {
            accuracy: Some(Arc::clone(&self.log)),
            ..AdvisorConfig::default()
        });
        for q in &self.queries {
            let mut model_only = q.clone();
            model_only.validate = false;
            std::hint::black_box(advisor.advise(&model_only));
        }
        advisor
    }

    /// Rounds of the validated queries for about `seconds`, each round
    /// on a fresh advisor. Returns the untraced and the traced rounds
    /// (see [`traced_round`]).
    fn measure(&mut self, seconds: f64, tracer: Option<&Tracer>) -> [Phase; 2] {
        let mut phases = [Phase::default(), Phase::default()];
        let min = if tracer.is_some() { 2 } else { 1 };
        rounds(seconds, min, self.smoke, |n| {
            let (advisor, t) = run::timed(|| self.setup());
            self.setups.push(t);
            self.round_seed = self.round_seed.wrapping_add(1);
            let traced = traced_round(tracer, n);
            let phase = &mut phases[usize::from(traced.is_some())];
            traced.inspect(|t| t.resume());
            let mut round = 0.0;
            for i in shuffled(self.queries.len(), self.round_seed) {
                let (answer, dt) = layer("advisor.advise", || advisor.advise(&self.queries[i]));
                round += dt;
                phase.attempted += 1;
                if self.check(i, &answer) {
                    phase.completed += 1;
                } else {
                    phase.failed += 1;
                }
            }
            traced.inspect(|t| t.pause());
            phase.seconds += round;
            phase.op_ms.push((round * 1e3) as f32);
        });
        phases
    }

    /// Output checks of one validated answer; false when the query
    /// failed (degraded, or candidates left unexecuted).
    fn check(&mut self, i: usize, a: &Advice) -> bool {
        let q = &self.queries[i];
        let Some(v) = a.validation.as_ref().filter(|_| !a.degraded) else {
            return false;
        };
        if !v.skipped.is_empty() || v.executed != v.requested {
            return false;
        }
        let lbl = query_label(i);
        let rank = ranking_digest(a);
        if q.workload.radius() == 1 && self.checked_rankings.insert((i, rank)) {
            self.checks.expect(&format!("rank|{lbl}"), rank);
        }
        let Some(best) = &v.best else {
            self.checks
                .fail(format!("{lbl}: validation reported no winner"));
            return false;
        };
        let mut coords = vec![best.t_t];
        coords.extend(&best.t_s);
        if self.checked_winners.insert((i, coords.clone())) {
            let tiles =
                TileSizes::from_coords(q.workload.dim(), &coords).expect("winner tiles are valid");
            let grid = self.grids[i].get_or_insert_with(|| input_grid(q));
            let out =
                hhc_tiling::run_tiled_parallel(&q.workload.spec(), &q.workload.size, tiles, grid);
            self.checks
                .expect(&format!("out|{lbl}"), grid_digest(out.as_slice()));
        }
        true
    }
}

pub fn run(cfg: &RunConfig) -> Report {
    let log_path = cfg.out_dir.join("select-accuracy.jsonl");
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_file(obs::accuracy::rolled_path(&log_path));
    let log = obs::AccuracyLog::open(&log_path)
        .unwrap_or_else(|e| panic!("open accuracy log {}: {e}", log_path.display()));
    let mut s = Select {
        smoke: cfg.smoke,
        queries: (0..QUERIES.len()).map(|i| query(i, true)).collect(),
        log: Arc::new(log),
        round_seed: cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        setups: Vec::new(),
        checks: Checks::new("select"),
        grids: vec![None; QUERIES.len()],
        checked_winners: HashSet::new(),
        checked_rankings: HashSet::new(),
    };
    if !cfg.smoke {
        // Warm-up round: page in the executor's buffers and code.
        s.measure(0.0, None);
        s.setups.clear();
    }
    if !cfg.trace {
        let [mut phase, _] = s.measure(cfg.seconds, None);
        return Report {
            attempted: phase.attempted,
            failed: phase.failed,
            metrics: run::end_to_end(&s.setups, &mut phase),
            checks: s.checks,
        };
    }
    let tracer = Tracer::default();
    let [mut plain, mut traced] = s.measure(cfg.seconds, Some(&tracer));
    let snap = tracer.snapshot();
    let mut ledger = Ledger::default();
    ledger.set_overhead(&mut plain, &mut traced);
    layers(&mut ledger, &snap, &s.queries, &traced);
    tracer.finish(&cfg.out_dir.join("select.trace.json"));
    Report {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: ledger.into_metrics(),
        checks: s.checks,
    }
}

/// What one timed pass over a query's layers measured.
#[derive(Default)]
struct Pass {
    microbench: f64,
    space: f64,
    sweep: f64,
    feasible: f64,
    within: f64,
    plan: f64,
    lower: f64,
    simulate: f64,
    sims: f64,
    exec: f64,
    points: f64,
    stats: ExecStats,
    runs: f64,
    fallbacks: f64,
    acquires: f64,
    reuses: f64,
}

impl Pass {
    /// Call each layer's public entry point with the inputs the advisor
    /// used for `q`, timing each call.
    fn query(&mut self, q: &Query) -> (f64, f64) {
        let cfg = AdvisorConfig::default();
        let w = &q.workload;
        let spec = w.spec();
        let (measured, t) = layer("microbench.measured_params_sampled", || {
            microbench::measured_params_sampled(&w.device, &w.stencil, cfg.citer_samples, cfg.seed)
        });
        self.microbench += t;
        let params = ModelParams::from_measured(&w.device, &measured);
        let (tiles, t) = layer("tile_opt.feasible_space", || feasible_space(w, &cfg.space));
        self.space += t;
        self.feasible += tiles.len() as f64;
        let (swept, t) = layer("tile_opt.model_sweep_spec", || {
            model_sweep_spec(
                DimSpec::for_stencil(&w.stencil),
                &params,
                &w.size,
                &tiles,
                None,
            )
        });
        self.sweep += t;
        let within = within_fraction(&swept, q.within);
        self.within += within.len() as f64;
        // The accuracy log simulates the top candidates.
        for (t, _) in within.iter().take(q.top_n) {
            let launch = LaunchConfig::empirical(w.dim(), t);
            let (plan, dt) = layer("hhc_tiling.TilingPlan::build", || {
                TilingPlan::build(&spec, &w.size, *t, launch)
            });
            self.plan += dt;
            let Ok(plan) = plan else { continue };
            let (wl, dt) = layer("gpu_sim.SimWorkload::from_plan", || {
                SimWorkload::from_plan(&plan)
            });
            self.lower += dt;
            let (_, dt) = layer("gpu_sim.simulate", || simulate(&w.device, &wl));
            self.simulate += dt;
            self.sims += 1.0;
        }
        let candidates: Vec<TileSizes> = within.iter().map(|(t, _)| *t).collect();
        let grid = input_grid(q);
        let (report, _) = layer("tile_opt.run_candidates", || {
            run_candidates(&spec, &w.size, &grid, &candidates)
        });
        let wall: f64 = report.runs.iter().map(|r| r.wall_s).sum();
        let points = (report.runs.len() as u64 * w.size.iter_points()) as f64;
        self.exec += wall;
        self.points += points;
        for r in &report.runs {
            self.stats.kernel_points += r.stats.kernel_points;
            self.stats.generic_points += r.stats.generic_points;
            self.stats.kernel_rows += r.stats.kernel_rows;
            self.stats.simd_rows += r.stats.simd_rows;
            self.stats.batch_dispatches += r.stats.batch_dispatches;
            self.fallbacks += f64::from(u8::from(r.stats.seq_fallback));
            self.runs += 1.0;
        }
        self.acquires += report.scratch_acquires as f64;
        self.reuses += report.scratch_reuses as f64;
        (wall, points)
    }
}

/// The per-layer ledger: counters and executor spans from the traced
/// rounds, plus one timed pass over each layer's entry points with the
/// inputs the advisor used.
fn layers(ledger: &mut Ledger, snap: &obs::Snapshot, queries: &[Query], traced: &Phase) {
    let (stream, _) = layer("time_model.roofline::measure_stream_bandwidth", || {
        roofline::measure_stream_bandwidth()
    });
    ledger.set("roofline.stream_gbs", stream.stream_bw_bytes_per_sec / 1e9);
    let mut pass = Pass::default();
    for q in queries {
        let (wall, points) = pass.query(q);
        let name = &q.workload.stencil.name;
        ledger.set(&format!("select.{name}.exec_ms"), wall * 1e3);
        // `measure_compute_ceiling` sizes its buffer margin for radius 1
        // and indexes out of bounds at radius 2, so Lap4_2D has no
        // roofline row.
        if q.workload.radius() != 1 {
            continue;
        }
        let (ceiling, _) = layer("time_model.roofline::measure_compute_ceiling", || {
            roofline::measure_compute_ceiling(&q.workload.spec())
        });
        ledger.set(&format!("roofline.compute_pps.{name}"), ceiling);
        ledger.set(
            &format!("select.{name}.roofline_frac"),
            ratio(ratio(points, wall), roofline::predict(&stream, ceiling).pps),
        );
    }
    let n = queries.len() as f64;
    let c = |name: &str| snap.counter(name) as f64;
    let ops = traced.attempted as f64;
    let exec_busy = ratio(run::span_seconds(snap, "opt.run_candidates"), ops);
    let model = (pass.space + pass.sweep + pass.plan + pass.lower + pass.simulate) / n;
    let steady = c("sim.sched_steady");
    for (name, value) in [
        ("microbench.busy_ms", pass.microbench * 1e3),
        ("tile_opt.space_busy_ms", pass.space / n * 1e3),
        (
            "tile_opt.space_feasible_frac",
            ratio(c("opt.space_feasible"), c("opt.space_enumerated")),
        ),
        ("time_model.sweep_busy_ms", pass.sweep / n * 1e3),
        ("time_model.predictions", pass.feasible / n),
        ("tile_opt.within_points", pass.within / n),
        ("hhc_tiling.exec_busy_ms", exec_busy * 1e3),
        ("hhc_tiling.exec_points", pass.points / n),
        ("hhc_tiling.exec_pps", ratio(pass.points, pass.exec)),
        (
            "hhc_tiling.exec_computed_gb",
            pass.points / n * roofline::BYTES_PER_POINT / 1e9,
        ),
        (
            "hhc_tiling.kernel_point_frac",
            ratio(
                pass.stats.kernel_points as f64,
                (pass.stats.kernel_points + pass.stats.generic_points) as f64,
            ),
        ),
        (
            "hhc_tiling.simd_row_frac",
            ratio(pass.stats.simd_rows as f64, pass.stats.kernel_rows as f64),
        ),
        (
            "hhc_tiling.scratch_reuse_frac",
            ratio(pass.reuses, pass.acquires),
        ),
        (
            "hhc_tiling.batch_dispatches",
            pass.stats.batch_dispatches as f64 / n,
        ),
        (
            "hhc_tiling.seq_fallback_frac",
            ratio(pass.fallbacks, pass.runs),
        ),
        ("hhc_tiling.plan_busy_ms", pass.plan / n * 1e3),
        ("gpu_sim.lower_busy_ms", pass.lower / n * 1e3),
        ("gpu_sim.simulate_busy_ms", pass.simulate / n * 1e3),
        ("gpu_sim.runs", ratio(c("sim.runs"), ops)),
        ("gpu_sim.blocks", ratio(c("sim.blocks"), ops)),
        ("gpu_sim.us_per_run", ratio(pass.simulate, pass.sims) * 1e6),
        (
            "gpu_sim.sched_steady_frac",
            ratio(steady, steady + c("sim.sched_fallback")),
        ),
        (
            "coverage_frac",
            ratio((model + exec_busy) * 1e3, traced.ms_per_op()),
        ),
    ] {
        ledger.set(name, value);
    }
}

/// Recompute the select fixtures: the reference executor's output for
/// every query, and the model ranking of the radius-1 queries.
pub fn bless() -> Fixture {
    let mut f = Fixture::default();
    let advisor = Advisor::with_defaults();
    for i in 0..QUERIES.len() {
        let q = query(i, false);
        let lbl = query_label(i);
        if q.workload.radius() == 1 {
            f.insert(format!("rank|{lbl}"), ranking_digest(&advisor.advise(&q)));
        }
        let out = reference::run(&q.workload.spec(), &q.workload.size, &input_grid(&q));
        f.insert(format!("out|{lbl}"), grid_digest(out.as_slice()));
    }
    f
}
