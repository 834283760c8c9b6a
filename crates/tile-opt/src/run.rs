//! Execute a candidate set on the parallel tiled executor.
//!
//! The paper's selection pipeline (Section 6.1) keeps every feasible
//! point within 10 % of the predicted `T_alg` minimum and *runs* that
//! set to pick the final tile sizes. This module is the running half:
//! [`run_candidates`] executes each candidate with
//! [`hhc_tiling::run_tiled_parallel_into`], sharing one [`ScratchPool`]
//! and one output grid across the whole set, so a sweep of dozens of
//! candidates costs one warm-up's worth of allocations.

use hhc_tiling::{run_tiled_parallel_into, ExecStats, ScratchPool, TileSizes};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use stencil_core::{Grid, ProblemSize, StencilSpec};

/// One executed candidate.
#[derive(Debug, Clone, Copy)]
pub struct CandidateRun {
    /// The tile sizes executed.
    pub tiles: TileSizes,
    /// Wall-clock execution time (s).
    pub wall_s: f64,
    /// The execution's stats (pool reuse, kernel coverage, ring depth).
    pub stats: ExecStats,
}

/// Why a candidate was not executed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkipReason {
    /// The tile sizes are invalid for the stencil's dimensionality
    /// (carries the validator's message).
    Infeasible(String),
    /// The caller's deadline expired before this candidate started.
    DeadlineExceeded,
}

impl SkipReason {
    /// Short machine-readable label (`"infeasible"` / `"deadline"`).
    pub fn label(&self) -> &'static str {
        match self {
            SkipReason::Infeasible(_) => "infeasible",
            SkipReason::DeadlineExceeded => "deadline",
        }
    }
}

/// A candidate that was not executed: its position in the input set,
/// the tile sizes, and why it was skipped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkippedCandidate {
    /// Index into the input candidate slice.
    pub index: usize,
    /// The candidate's tile sizes.
    pub tiles: TileSizes,
    /// Why it was skipped.
    pub reason: SkipReason,
}

/// Result of running a candidate set.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// Per-candidate timings, in input order. `runs` can be shorter than
    /// the input set; every missing candidate appears in `skipped`.
    pub runs: Vec<CandidateRun>,
    /// Index into `runs` of the fastest candidate (first of equals).
    pub best: Option<usize>,
    /// Candidates that were not executed (input index + reason) — a set
    /// of infeasible tile sizes or a deadline cut no longer vanishes
    /// silently from the report.
    pub skipped: Vec<SkippedCandidate>,
    /// Pool checkouts across the whole set.
    pub scratch_acquires: u64,
    /// Checkouts served without allocating.
    pub scratch_reuses: u64,
}

/// Execute every valid candidate on the parallel executor and time it.
///
/// All candidates share one pool and one output grid; the winner is the
/// first candidate achieving the minimal wall time, so the report is
/// deterministic for a fixed machine load. Infeasible candidates are
/// recorded in [`CandidateReport::skipped`] (and counted on the
/// `opt.candidates_skipped` counter), never silently dropped.
pub fn run_candidates(
    spec: &StencilSpec,
    size: &ProblemSize,
    init: &Grid,
    candidates: &[TileSizes],
) -> CandidateReport {
    run_candidates_until(spec, size, init, candidates, None)
}

/// [`run_candidates`] with an optional deadline: candidates whose
/// execution has not *started* by `deadline` are skipped with
/// [`SkipReason::DeadlineExceeded`] (a candidate already running is
/// allowed to finish — executions are not cancellable mid-kernel). The
/// advisor service uses this for graceful degradation under a per-query
/// timeout.
pub fn run_candidates_until(
    spec: &StencilSpec,
    size: &ProblemSize,
    init: &Grid,
    candidates: &[TileSizes],
    deadline: Option<Instant>,
) -> CandidateReport {
    let _span = obs::span("opt.run_candidates", "optimizer");
    let pool = ScratchPool::new();
    let mut out = Grid::zeros(size.space_extents());
    let mut runs = Vec::with_capacity(candidates.len());
    let mut skipped = Vec::new();
    for (index, &tiles) in candidates.iter().enumerate() {
        if let Err(msg) = tiles.validate(spec.dim) {
            skipped.push(SkippedCandidate {
                index,
                tiles,
                reason: SkipReason::Infeasible(msg),
            });
            continue;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            skipped.push(SkippedCandidate {
                index,
                tiles,
                reason: SkipReason::DeadlineExceeded,
            });
            continue;
        }
        let start = Instant::now();
        let stats = run_tiled_parallel_into(spec, size, tiles, init, &pool, &mut out);
        let wall_s = start.elapsed().as_secs_f64();
        runs.push(CandidateRun {
            tiles,
            wall_s,
            stats,
        });
    }
    let mut best: Option<usize> = None;
    for (i, r) in runs.iter().enumerate() {
        if best.is_none_or(|b| r.wall_s < runs[b].wall_s) {
            best = Some(i);
        }
    }
    if obs::active() {
        obs::counter("opt.candidate_runs", runs.len() as u64);
        obs::counter("opt.candidates_skipped", skipped.len() as u64);
    }
    CandidateReport {
        runs,
        best,
        skipped,
        scratch_acquires: pool.acquires(),
        scratch_reuses: pool.reuses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{init, reference, StencilDescriptor};

    #[test]
    fn candidate_sweep_reuses_pool_and_picks_a_winner() {
        let spec = StencilDescriptor::jacobi2d().spec();
        let size = ProblemSize::new_2d(33, 29, 8);
        let grid = init::random(size.space_extents(), 3);
        let candidates = [
            TileSizes::new_2d(4, 5, 6),
            TileSizes::new_2d(6, 4, 8),
            TileSizes::new_2d(2, 8, 8),
        ];
        let report = run_candidates(&spec, &size, &grid, &candidates);
        assert_eq!(report.runs.len(), candidates.len());
        assert!(report.skipped.is_empty());
        let best = report.best.expect("non-empty set has a winner");
        let min = report
            .runs
            .iter()
            .map(|r| r.wall_s)
            .fold(f64::MAX, f64::min);
        assert!(report.runs[best].wall_s <= min);
        // Later candidates run on recycled buffers.
        assert!(report.scratch_reuses > 0, "{report:?}");
        assert!(report.scratch_acquires > report.scratch_reuses);
        // And each run's result is still the exact stencil answer.
        let expect = reference::run(&spec, &size, &grid);
        let again = hhc_tiling::run_tiled_parallel(&spec, &size, candidates[0], &grid);
        assert_eq!(expect.max_abs_diff(&again), 0.0);
    }

    #[test]
    fn infeasible_candidates_are_recorded_as_skipped() {
        let spec = StencilDescriptor::jacobi1d().spec();
        let size = ProblemSize::new_1d(40, 6);
        let grid = init::random(size.space_extents(), 1);
        // Odd t_t is invalid for the hexagonal schedule.
        let candidates = [TileSizes::new_1d(3, 4), TileSizes::new_1d(4, 4)];
        let report = run_candidates(&spec, &size, &grid, &candidates);
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.runs[0].tiles, TileSizes::new_1d(4, 4));
        // The skip is visible, attributed to the right input slot, and
        // carries the validator's reason.
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].index, 0);
        assert_eq!(report.skipped[0].tiles, TileSizes::new_1d(3, 4));
        assert!(matches!(
            report.skipped[0].reason,
            SkipReason::Infeasible(_)
        ));
        assert_eq!(report.skipped[0].reason.label(), "infeasible");
    }

    #[test]
    fn expired_deadline_skips_every_remaining_candidate() {
        let spec = StencilDescriptor::jacobi1d().spec();
        let size = ProblemSize::new_1d(40, 6);
        let grid = init::random(size.space_extents(), 1);
        let candidates = [TileSizes::new_1d(4, 4), TileSizes::new_1d(2, 8)];
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let report = run_candidates_until(&spec, &size, &grid, &candidates, Some(past));
        assert!(report.runs.is_empty());
        assert!(report.best.is_none());
        assert_eq!(report.skipped.len(), 2);
        assert!(report
            .skipped
            .iter()
            .all(|s| s.reason == SkipReason::DeadlineExceeded));
        // A far-future deadline behaves like no deadline at all.
        let future = Instant::now() + std::time::Duration::from_secs(3600);
        let report = run_candidates_until(&spec, &size, &grid, &candidates, Some(future));
        assert_eq!(report.runs.len(), 2);
        assert!(report.skipped.is_empty());
    }

    #[test]
    fn skip_counter_reaches_the_recorder() {
        let _g = lock_obs();
        let rec = std::sync::Arc::new(obs::MemoryRecorder::new(obs::Level::Quiet));
        obs::install(rec.clone());
        let spec = StencilDescriptor::jacobi1d().spec();
        let size = ProblemSize::new_1d(40, 6);
        let grid = init::random(size.space_extents(), 1);
        let candidates = [TileSizes::new_1d(3, 4), TileSizes::new_1d(4, 4)];
        run_candidates(&spec, &size, &grid, &candidates);
        obs::uninstall();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("opt.candidates_skipped"), 1);
        assert_eq!(snap.counter("opt.candidate_runs"), 1);
    }

    fn lock_obs() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
