//! Tile-size selection strategies — the comparison of the paper's
//! Figure 6 and the candidate-set machinery of Figure 5.
//!
//! * **HhcDefault** — the compiler's stock tile/thread configuration
//!   (no tuning at all);
//! * **Baseline** — the paper's Section 5.1 methodology: 85 tile-size
//!   combinations that maximize the shared-memory footprint subject to
//!   capacity (plus hyperthreading variants), each with 10 thread
//!   counts → 850 measured data points, best taken;
//! * **TalgMin** — the raw predicted optimum of the model sweep;
//! * **Within10** — measure every point whose prediction is within 10 %
//!   of `T_alg min` (the paper's < 200 points) and take the best;
//! * **Exhaustive** — measure the entire feasible space (the paper calls
//!   this impractical on hardware; the simulator can afford it).
//!
//! Thread counts are the model's blind spot (paper Section 7); following
//! the paper, the model-driven strategies reuse the *empirically
//! predicted* thread count — the one the best baseline point used.

use crate::space::{feasible_space, feasible_tiles, SpaceConfig};
use crate::sweep::{model_sweep_spec, talg_min, within_fraction};
use gpu_sim::{simulate_launches, DeviceConfig, SimReport, Workload};
use hhc_tiling::{HexagonRows, LaunchConfig, PlanGeometry, TileSizes};
use parking_lot::Mutex;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use stencil_core::{reference, ProblemSize, StencilDim, StencilSpec};
use time_model::{DimSpec, ModelParams};

/// One configuration the HHC compiler would be invoked with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DataPoint {
    /// Tile sizes.
    pub tiles: TileSizes,
    /// Threads per block.
    pub launch: LaunchConfig,
}

/// A data point with its model prediction and machine measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evaluated {
    /// The configuration.
    pub point: DataPoint,
    /// Model-predicted time `T_alg` (s).
    pub predicted: f64,
    /// Machine-measured time `T_exec` (s); `None` if the configuration
    /// cannot launch (e.g. per-block shared-memory overflow).
    pub measured: Option<f64>,
    /// Achieved GFLOPS/s for the measured time.
    pub gflops: Option<f64>,
}

/// The strategies compared in Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Stock compiler configuration.
    HhcDefault,
    /// Best of the 850 footprint-maximizing baseline points.
    Baseline,
    /// The raw predicted optimum.
    TalgMin,
    /// Best measured point within 10 % of the predicted optimum.
    Within10,
    /// Best measured point of the whole feasible space.
    Exhaustive,
}

impl Strategy {
    /// Display name matching the paper's Figure 6 legend.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::HhcDefault => "HHC",
            Strategy::Baseline => "Baseline",
            Strategy::TalgMin => "Talg min",
            Strategy::Within10 => "Within 10% of Talg min",
            Strategy::Exhaustive => "Exhaustive",
        }
    }
}

/// The chosen configuration and its performance, for one strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrategyOutcome {
    /// Which strategy produced this.
    pub strategy: Strategy,
    /// The chosen point with its numbers.
    pub chosen: Evaluated,
    /// How many configurations the strategy *measured* to get there
    /// (the paper's practicality argument: Within10 measures < 200,
    /// Exhaustive measures everything). Unchanged by memoization: a
    /// cache-served point still counts as measured by this strategy.
    pub measured_count: usize,
    /// How many of those evaluations were served from the shared
    /// [`EvalCache`] instead of re-simulated.
    pub cache_hits: usize,
}

/// A memoization table for [`evaluate_points`], shared by every strategy
/// run against one [`StrategyContext`].
///
/// Evaluation is a pure function of the [`DataPoint`] (model prediction +
/// deterministic simulation), so serving a repeat point from the cache is
/// bit-identical to recomputing it — strategy outcomes cannot change, only
/// the work drops. Thread-safe: lookups and inserts take a short mutex;
/// hit accounting is atomic.
#[derive(Default)]
pub struct EvalCache {
    map: Mutex<HashMap<DataPoint, Evaluated>>,
    hits: AtomicU64,
    lookups: AtomicU64,
}

impl EvalCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups so far (hits + evaluations).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Distinct configurations currently memoized.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }
}

/// Everything needed to run the selection strategies for one
/// [`Workload`] experiment.
pub struct StrategyContext<'a> {
    /// The workload under study (device + stencil + size; the tile and
    /// launch members are the stock configuration the strategies start
    /// from).
    pub workload: &'a Workload,
    /// Measured model parameters for this (device, stencil).
    pub params: &'a ModelParams,
    /// The elaborated stencil specification.
    pub spec: StencilSpec,
    /// Feasible-space bounds.
    pub space: &'a SpaceConfig,
    /// Shared evaluation memo: strategies of one experiment often revisit
    /// the same configurations (e.g. the `T_alg` minimum also appears in
    /// the within-10 % set and the exhaustive sweep).
    pub cache: EvalCache,
}

impl<'a> StrategyContext<'a> {
    /// Build a context (with a cold cache) for one workload.
    pub fn new(workload: &'a Workload, params: &'a ModelParams, space: &'a SpaceConfig) -> Self {
        StrategyContext {
            workload,
            params,
            spec: workload.spec(),
            space,
            cache: EvalCache::new(),
        }
    }

    /// The workload's device.
    pub fn device(&self) -> &DeviceConfig {
        &self.workload.device
    }

    /// The workload's problem size.
    pub fn size(&self) -> &ProblemSize {
        &self.workload.size
    }

    /// The workload's dimensionality.
    pub fn dim(&self) -> StencilDim {
        self.workload.dim()
    }

    /// The stencil's model shape (rank and halo radius): every
    /// prediction and sweep of this context goes through it.
    pub fn dspec(&self) -> DimSpec {
        DimSpec::for_stencil(&self.workload.stencil)
    }
}

/// The stock compiler configuration (PPCG-style 32-point space tiles).
pub fn hhc_default(dim: StencilDim) -> DataPoint {
    DataPoint {
        tiles: TileSizes::hhc_default(dim),
        launch: LaunchConfig::hhc_default(dim),
    }
}

/// The paper's baseline tile-size set: 85 combinations per experiment
/// built with the strategies of Section 5.1 — "maximize the memory
/// footprint of the tile subject to capacity constraints", guided by the
/// HHT paper's suggestion to favor high compute-to-IO-ratio tiles — plus
/// points that admit higher hyperthreading factors.
///
/// Like the paper's hand-constructed set, candidates come from a *nice*
/// grid (round extents a practitioner would write down), not from the
/// fine-grained space the model sweep explores; the paper notes its
/// best predicted tile "was not explored in our set of baseline tile
/// sizes". Deterministic: the 45 largest-footprint nice tiles, then the
/// 10 largest below each of `M_SM/3`, `M_SM/4`, `M_SM/6`, `M_SM/8`.
pub fn baseline_tiles(
    device: &DeviceConfig,
    dim: StencilDim,
    _cfg: &SpaceConfig,
) -> Vec<TileSizes> {
    let nice = SpaceConfig {
        t_t: vec![4, 8, 12, 16, 24, 32, 48],
        t_s1: vec![4, 8, 16, 24, 32, 48, 64],
        t_s_mid: vec![4, 8, 16, 32],
        t_s_inner: vec![32, 64, 128, 256, 384, 512],
    };
    // The grid is the paper's radius-1 set for every stencil.
    let r1 = DimSpec::of(dim);
    let mut all = feasible_tiles(device, r1, &nice);
    all.sort_by_key(|t| std::cmp::Reverse((r1.mtile_words(t), t.t_t, t.t_s)));
    let mut out: Vec<TileSizes> = Vec::with_capacity(85);
    let push_unique = |out: &mut Vec<TileSizes>, t: TileSizes| {
        if !out.contains(&t) {
            out.push(t);
        }
    };
    for t in all.iter().take(45) {
        push_unique(&mut out, *t);
    }
    for div in [3u64, 4] {
        let cap = device.shared_mem_words / div;
        let mut taken = 0;
        for t in all.iter().filter(|t| r1.mtile_words(t) <= cap) {
            push_unique(&mut out, *t);
            taken += 1;
            if taken == 20 {
                break;
            }
        }
    }
    // Top up to the paper's 85 combinations with the next-largest tiles
    // (the slab picks overlap the top-footprint picks for some shapes).
    for t in all.iter() {
        if out.len() >= 85 {
            break;
        }
        push_unique(&mut out, *t);
    }
    out.truncate(85);
    out
}

/// The full 850-point baseline set (85 tiles × 10 thread counts).
pub fn baseline_points(
    device: &DeviceConfig,
    dim: StencilDim,
    cfg: &SpaceConfig,
) -> Vec<DataPoint> {
    let tiles = baseline_tiles(device, dim, cfg);
    let launches = LaunchConfig::candidates(dim);
    let mut out = Vec::with_capacity(tiles.len() * launches.len());
    for t in &tiles {
        for l in &launches {
            out.push(DataPoint {
                tiles: *t,
                launch: *l,
            });
        }
    }
    out
}

/// Simulate one configuration; `None` if the plan or launch is invalid.
pub fn simulate_point(
    device: &DeviceConfig,
    spec: &StencilSpec,
    size: &ProblemSize,
    point: &DataPoint,
) -> Option<SimReport> {
    let geometry = PlanGeometry::build(spec, size, point.tiles).ok();
    sweep(device, geometry, &[point.launch]).pop().flatten()
}

/// Simulate `launches` on one tile's geometry, built once, swept by
/// [`simulate_launches`] and then dropped. One report per launch, in
/// order; `None` for every launch if the geometry did not build, and
/// where a launch is invalid.
fn sweep(
    device: &DeviceConfig,
    geometry: Option<PlanGeometry>,
    launches: &[LaunchConfig],
) -> Vec<Option<SimReport>> {
    match geometry {
        Some(geometry) => simulate_launches(device, &geometry, launches),
        None => vec![None; launches.len()],
    }
}

/// Evaluate (model + machine) a set of points in parallel, memoized
/// through the context's [`EvalCache`].
///
/// Results are returned in input order and are identical to an uncached
/// evaluation (the evaluation is a pure function of the point); only the
/// already-seen points skip the simulator. The misses are grouped by
/// tile, so each distinct tile's plan is built once for all its thread
/// counts, and the tiles by hexagon family (`t_T`, `t_S1`), so each
/// family's [`HexagonRows`] are built once for all its tiles and dropped
/// once those are done. The families run in parallel.
pub fn evaluate_points(ctx: &StrategyContext<'_>, points: &[DataPoint]) -> Vec<Evaluated> {
    let flops = reference::total_flops(&ctx.spec, ctx.size());
    let rank = ctx.spec.dim.rank();
    // Resolve prior results under one short lock…
    let cached: Vec<Option<Evaluated>> = {
        let map = ctx.cache.map.lock();
        points.iter().map(|p| map.get(p).copied()).collect()
    };
    let hits = cached.iter().flatten().count();
    ctx.cache.hits.fetch_add(hits as u64, Ordering::Relaxed);
    ctx.cache
        .lookups
        .fetch_add(points.len() as u64, Ordering::Relaxed);

    // …group the misses by tile and the tiles by hexagon family, in order
    // of first appearance…
    let mut groups: Vec<(TileSizes, Vec<LaunchConfig>)> = Vec::new();
    let mut group_of: HashMap<TileSizes, usize> = HashMap::new();
    let mut families: Vec<Vec<usize>> = Vec::new();
    let mut family_of: HashMap<(usize, usize), usize> = HashMap::new();
    let mut misses = 0usize;
    for (p, _) in points.iter().zip(&cached).filter(|(_, c)| c.is_none()) {
        let g = *group_of.entry(p.tiles).or_insert_with(|| {
            let family = (p.tiles.t_t, p.tiles.t_s[0]);
            let f = *family_of.entry(family).or_insert_with(|| {
                families.push(Vec::new());
                families.len() - 1
            });
            families[f].push(groups.len());
            groups.push((p.tiles, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(p.launch);
        misses += 1;
    }
    if obs::active() {
        obs::counter("opt.eval_lookups", points.len() as u64);
        obs::counter("opt.eval_cache_hits", hits as u64);
        obs::counter("opt.eval_simulated", misses as u64);
        obs::counter("opt.eval_plans", groups.len() as u64);
        obs::counter("opt.eval_families", families.len() as u64);
    }
    // …evaluate the families in parallel, each family's tiles in turn from
    // its hexagon rows…
    let by_family: Vec<Vec<Vec<Evaluated>>> = families
        .par_iter()
        .map(|members| {
            let first = groups[members[0]].0;
            let hexagon = HexagonRows::build(&ctx.spec, ctx.size(), first.t_t, first.t_s[0]);
            members
                .iter()
                .map(|&g| {
                    let (tiles, launches) = &groups[g];
                    // The model divides by `t_T` and the inner extents: a
                    // zero there has no prediction (and, failing
                    // validation, no measurement either).
                    let predicted = if tiles.t_t == 0 || tiles.t_s[1..rank].contains(&0) {
                        f64::NAN
                    } else {
                        ctx.dspec().predict(ctx.params, ctx.size(), tiles).talg
                    };
                    let geometry = hexagon.as_ref().ok().and_then(|h| h.lower(*tiles).ok());
                    let reports = sweep(ctx.device(), geometry, launches);
                    launches
                        .iter()
                        .zip(reports)
                        .map(|(&launch, report)| {
                            let measured = report.map(|r| r.total_time);
                            Evaluated {
                                point: DataPoint {
                                    tiles: *tiles,
                                    launch,
                                },
                                predicted,
                                measured,
                                gflops: measured.map(|t| flops as f64 / t / 1e9),
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    // …put each tile's results back at its group's index…
    let mut computed: Vec<Vec<Evaluated>> = vec![Vec::new(); groups.len()];
    for (members, evals) in families.iter().zip(by_family) {
        for (&g, e) in members.iter().zip(evals) {
            computed[g] = e;
        }
    }
    {
        let mut map = ctx.cache.map.lock();
        for e in computed.iter().flatten() {
            map.insert(e.point, *e);
        }
    }

    // …and splice hits and fresh evaluations back in input order: each
    // miss takes the next result of its tile's group.
    let mut fresh: Vec<_> = computed.into_iter().map(Vec::into_iter).collect();
    points
        .iter()
        .zip(cached)
        .map(|(p, c)| {
            c.unwrap_or_else(|| {
                fresh[group_of[&p.tiles]]
                    .next()
                    .expect("one result per miss")
            })
        })
        .collect()
}

/// The best (lowest measured time) of a set of evaluations.
pub fn best_measured(evals: &[Evaluated]) -> Option<Evaluated> {
    evals
        .iter()
        .filter(|e| e.measured.is_some())
        .min_by(|a, b| {
            a.measured
                .unwrap()
                .total_cmp(&b.measured.unwrap())
                .then_with(|| {
                    (a.point.tiles.t_t, a.point.tiles.t_s, a.point.launch.threads).cmp(&(
                        b.point.tiles.t_t,
                        b.point.tiles.t_s,
                        b.point.launch.threads,
                    ))
                })
        })
        .copied()
}

/// The full study of one experiment: baseline set, model sweep,
/// within-10 % candidates, and every strategy outcome. This is the data
/// behind Figures 5 and 6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Study {
    /// All 850 baseline evaluations (the scatter of Figure 5).
    pub baseline: Vec<Evaluated>,
    /// The within-10 % candidate evaluations (Figure 5's predicted-
    /// optimal points).
    pub within: Vec<Evaluated>,
    /// One outcome per strategy, in Figure 6 order.
    pub outcomes: Vec<StrategyOutcome>,
}

/// Run every strategy for one experiment. `exhaustive` additionally
/// measures the whole feasible space (set `false` for large problems if
/// time matters; the simulator usually affords it).
pub fn study(ctx: &StrategyContext<'_>, exhaustive: bool) -> Study {
    let dim = ctx.dim();
    let _study_span = obs::span("opt.study", "optimizer");
    // Per-strategy cache accounting: strategies run sequentially, so the
    // delta of the shared counter attributes hits to the right one.
    let mut hits_mark = ctx.cache.hits();
    let mut take_hits = |cache: &EvalCache| {
        let now = cache.hits();
        let delta = (now - hits_mark) as usize;
        hits_mark = now;
        delta
    };
    // Time one strategy: a span on the optimizer track plus a
    // per-strategy wall-time histogram (both free when no recorder is
    // installed).
    fn timed<T>(span: &'static str, hist: &'static str, f: impl FnOnce() -> T) -> T {
        let _s = obs::span(span, "optimizer");
        let t0 = std::time::Instant::now();
        let r = f();
        obs::histogram(hist, t0.elapsed().as_secs_f64());
        r
    }

    // --- HHC default ---
    let hhc = timed("opt.strategy.hhc", "opt.wall_s.hhc", || {
        evaluate_points(ctx, &[hhc_default(dim)])
    });
    let hhc_hits = take_hits(&ctx.cache);

    // --- Baseline: 850 measured points ---
    let baseline = timed("opt.strategy.baseline", "opt.wall_s.baseline", || {
        let pts = baseline_points(ctx.device(), dim, ctx.space);
        evaluate_points(ctx, &pts)
    });
    let baseline_hits = take_hits(&ctx.cache);
    let baseline_best = best_measured(&baseline);

    // --- Model sweep over the feasible space ---
    let (space, sweep) = timed("opt.model_sweep", "opt.wall_s.sweep", || {
        let space = feasible_space(ctx.workload, ctx.space);
        let sweep = model_sweep_spec(ctx.dspec(), ctx.params, ctx.size(), &space, None);
        (space, sweep)
    });

    // --- Talg min ---
    let talg_min_eval = timed("opt.strategy.talg_min", "opt.wall_s.talg_min", || {
        talg_min(&sweep).map(|(tiles, _)| {
            evaluate_points(
                ctx,
                &[DataPoint {
                    tiles,
                    launch: LaunchConfig::empirical(dim, &tiles),
                }],
            )[0]
        })
    });
    let talg_hits = take_hits(&ctx.cache);

    // --- Within 10 % of Talg min ---
    let within = timed("opt.strategy.within10", "opt.wall_s.within10", || {
        let pts: Vec<DataPoint> = within_fraction(&sweep, 0.10)
            .into_iter()
            .map(|(tiles, _)| DataPoint {
                tiles,
                launch: LaunchConfig::empirical(dim, &tiles),
            })
            .collect();
        evaluate_points(ctx, &pts)
    });
    let within_hits = take_hits(&ctx.cache);
    let within_best = best_measured(&within);

    // --- Exhaustive (optional) ---
    let exhaustive_best = if exhaustive {
        timed("opt.strategy.exhaustive", "opt.wall_s.exhaustive", || {
            let pts: Vec<DataPoint> = space
                .iter()
                .map(|t| DataPoint {
                    tiles: *t,
                    launch: LaunchConfig::empirical(dim, t),
                })
                .collect();
            let evals = evaluate_points(ctx, &pts);
            best_measured(&evals).map(|b| (b, evals.len()))
        })
    } else {
        None
    };
    let exhaustive_hits = take_hits(&ctx.cache);

    let mut outcomes = Vec::new();
    if let Some(h) = hhc.first().copied() {
        outcomes.push(StrategyOutcome {
            strategy: Strategy::HhcDefault,
            chosen: h,
            measured_count: 1,
            cache_hits: hhc_hits,
        });
    }
    if let Some(b) = baseline_best {
        outcomes.push(StrategyOutcome {
            strategy: Strategy::Baseline,
            chosen: b,
            measured_count: baseline.len(),
            cache_hits: baseline_hits,
        });
    }
    if let Some(t) = talg_min_eval {
        outcomes.push(StrategyOutcome {
            strategy: Strategy::TalgMin,
            chosen: t,
            measured_count: 1,
            cache_hits: talg_hits,
        });
    }
    if let Some(w) = within_best {
        outcomes.push(StrategyOutcome {
            strategy: Strategy::Within10,
            chosen: w,
            measured_count: within.len(),
            cache_hits: within_hits,
        });
    }
    if let Some((e, n)) = exhaustive_best {
        outcomes.push(StrategyOutcome {
            strategy: Strategy::Exhaustive,
            chosen: e,
            measured_count: n,
            cache_hits: exhaustive_hits,
        });
    }

    if obs::enabled(obs::Level::Info) {
        for o in &outcomes {
            obs::event(
                obs::Level::Info,
                "opt.outcome",
                &[
                    ("strategy", o.strategy.name().into()),
                    ("measured_count", o.measured_count.into()),
                    ("cache_hits", o.cache_hits.into()),
                    ("predicted_s", o.chosen.predicted.into()),
                    // NaN renders as null in the JSONL export (no
                    // measurement: the configuration failed to launch).
                    ("measured_s", o.chosen.measured.unwrap_or(f64::NAN).into()),
                ],
            );
        }
    }

    Study {
        baseline,
        within,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::StencilDescriptor;

    #[test]
    fn baseline_set_has_85_tiles_and_850_points() {
        let d = DeviceConfig::gtx980();
        let tiles = baseline_tiles(&d, StencilDim::D2, &SpaceConfig::default());
        assert_eq!(tiles.len(), 85, "baseline tile count");
        let pts = baseline_points(&d, StencilDim::D2, &SpaceConfig::default());
        assert_eq!(pts.len(), 850);
    }

    #[test]
    fn study_produces_ordered_outcomes() {
        let device = DeviceConfig::gtx980();
        let workload = Workload::new(
            device.clone(),
            StencilDescriptor::jacobi2d(),
            ProblemSize::new_2d(512, 512, 128),
        )
        .unwrap();
        // Use *measured* parameters, as the real pipeline does — the
        // model's candidate set is only meaningful with a Citer that
        // came from the machine.
        let measured = microbench::measured_params_sampled(&device, &workload.stencil, 16, 3);
        let params = ModelParams::from_measured(&device, &measured);
        let space = SpaceConfig::default();
        let ctx = StrategyContext::new(&workload, &params, &space);
        let study = study(&ctx, false);

        assert!(study.outcomes.len() >= 4);
        let get = |s: Strategy| {
            study
                .outcomes
                .iter()
                .find(|o| o.strategy == s)
                .unwrap_or_else(|| panic!("missing {s:?}"))
        };
        let baseline = get(Strategy::Baseline);
        let within = get(Strategy::Within10);
        // Within10 can only improve on (or match) its own candidate set;
        // and the paper's headline: Within10 beats or matches Baseline.
        let wb = within.chosen.measured.unwrap();
        let bb = baseline.chosen.measured.unwrap();
        // At this small, boundary-dominated problem size the model-driven
        // set must at least be competitive; the paper-scale behaviour
        // (Within10 matching or beating Baseline) is validated by the
        // experiments crate at the paper's sizes.
        assert!(
            wb <= bb * 1.25,
            "within10 {wb:e} should be <= ~baseline {bb:e}"
        );
        // Within10 measures few points (paper: < 200).
        assert!(within.measured_count < 200);
        assert_eq!(baseline.measured_count, 850);
    }

    #[test]
    fn eval_cache_serves_repeats_identically() {
        let device = DeviceConfig::gtx980();
        let workload = Workload::new(
            device.clone(),
            StencilDescriptor::jacobi2d(),
            ProblemSize::new_2d(256, 256, 64),
        )
        .unwrap();
        let measured = microbench::measured_params_sampled(&device, &workload.stencil, 16, 3);
        let params = ModelParams::from_measured(&device, &measured);
        let space = SpaceConfig::default();
        let ctx = StrategyContext::new(&workload, &params, &space);
        let pts: Vec<DataPoint> = baseline_points(&device, workload.dim(), &space)
            .into_iter()
            .take(40)
            .collect();
        let cold = evaluate_points(&ctx, &pts);
        assert_eq!(ctx.cache.hits(), 0);
        assert_eq!(ctx.cache.len(), pts.len());
        let warm = evaluate_points(&ctx, &pts);
        assert_eq!(ctx.cache.hits() as usize, pts.len());
        assert_eq!(ctx.cache.lookups() as usize, 2 * pts.len());
        assert_eq!(cold, warm, "cache-served results must be identical");
        // A fresh context (cold cache) reproduces the same values:
        // evaluation is a pure function of the point.
        let ctx2 = StrategyContext::new(&workload, &params, &space);
        assert_eq!(evaluate_points(&ctx2, &pts), cold);
    }

    #[test]
    fn study_outcomes_unchanged_by_warm_cache() {
        let device = DeviceConfig::gtx980();
        let workload = Workload::new(
            device.clone(),
            StencilDescriptor::jacobi2d(),
            ProblemSize::new_2d(256, 256, 64),
        )
        .unwrap();
        let measured = microbench::measured_params_sampled(&device, &workload.stencil, 16, 3);
        let params = ModelParams::from_measured(&device, &measured);
        let space = SpaceConfig::default();
        let ctx = StrategyContext::new(&workload, &params, &space);
        let first = study(&ctx, false);
        let lookups_cold = ctx.cache.lookups();
        // Re-running the whole study against the now-warm cache must pick
        // the same configurations with the same numbers and the same
        // measured_count per strategy — memoization is observationally
        // neutral apart from `cache_hits`.
        let second = study(&ctx, false);
        assert_eq!(ctx.cache.lookups(), 2 * lookups_cold);
        assert_eq!(first.outcomes.len(), second.outcomes.len());
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(a.strategy, b.strategy);
            assert_eq!(a.chosen, b.chosen);
            assert_eq!(a.measured_count, b.measured_count);
            assert_eq!(
                b.cache_hits, b.measured_count,
                "{:?}: warm rerun should be all hits",
                b.strategy
            );
        }
    }

    #[test]
    fn best_measured_skips_failures() {
        let ok = Evaluated {
            point: DataPoint {
                tiles: TileSizes::new_2d(4, 8, 32),
                launch: LaunchConfig::new_2d(1, 128),
            },
            predicted: 1.0,
            measured: Some(2.0),
            gflops: Some(1.0),
        };
        let fail = Evaluated {
            measured: None,
            gflops: None,
            ..ok
        };
        assert_eq!(best_measured(&[fail, ok]).unwrap().measured, Some(2.0));
        assert!(best_measured(&[fail]).is_none());
    }

    #[test]
    fn baseline_tiles_are_all_feasible() {
        let d = DeviceConfig::gtx980();
        for dim in [StencilDim::D1, StencilDim::D2, StencilDim::D3] {
            for t in baseline_tiles(&d, dim, &SpaceConfig::default()) {
                assert!(
                    crate::space::is_feasible(&d, DimSpec::of(dim), &t),
                    "{dim:?} {t:?}"
                );
            }
        }
    }

    #[test]
    fn hhc_default_is_feasible_everywhere() {
        let d = DeviceConfig::gtx980();
        for dim in [StencilDim::D1, StencilDim::D2, StencilDim::D3] {
            let p = hhc_default(dim);
            assert!(
                crate::space::is_feasible(&d, DimSpec::of(dim), &p.tiles),
                "{dim:?}"
            );
        }
    }
}
