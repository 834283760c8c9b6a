//! # tile-opt
//!
//! Model-driven tile-size selection (paper Section 6).
//!
//! The optimization problem (Eqn 31) minimizes `T_alg` over tile sizes
//! subject to the shared-memory capacity constraints, even `t_T`, and a
//! warp-aligned innermost extent. It is non-linear, non-convex, and
//! integer — the paper found off-the-shelf solvers (Bonmin et al.)
//! disappointing and instead *exhaustively evaluates the analytical
//! model over the feasible space* (it is cheap), keeps every point
//! within 10 % of the predicted minimum (fewer than 200 points), and
//! measures only those. This crate implements that pipeline:
//!
//! * [`space`] — enumeration of the feasible space of Eqn 31;
//! * [`sweep`] — parallel (rayon) evaluation of `T_alg` over the space,
//!   the predicted minimum, and the within-δ candidate set;
//! * [`strategy`] — the tile-size selection strategies compared in the
//!   paper's Figure 6: HHC defaults, the footprint-maximizing *Baseline*
//!   of Section 5.1, the raw `T_alg min` point, *best within 10 % of
//!   `T_alg min`*, and exhaustive search.

pub mod run;
pub mod solver;
pub mod space;
pub mod strategy;
pub mod sweep;

pub use run::{
    run_candidates, run_candidates_until, CandidateReport, CandidateRun, SkipReason,
    SkippedCandidate,
};
pub use solver::{coordinate_descent, simulated_annealing, SolverResult};
pub use space::{coordinate_axes, feasible_space, feasible_tiles, is_feasible, SpaceConfig};
pub use strategy::{
    baseline_points, best_measured, evaluate_points, simulate_point, study, DataPoint, EvalCache,
    Evaluated, Strategy, StrategyContext, StrategyOutcome, Study,
};
pub use sweep::{model_sweep, model_sweep_spec, talg_min, within_fraction};
