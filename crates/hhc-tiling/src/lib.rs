//! # hhc-tiling
//!
//! A from-scratch implementation of **hybrid hexagonal / classical
//! tiling** (Grosser et al., CGO'14) — the tiling scheme of the HHC
//! compiler that the PPoPP'17 paper models. This crate is the
//! "compiler" substrate of the reproduction: given a stencil, a problem
//! size, and tile-size parameters it produces
//!
//! * the exact discrete tile geometry ([`hex`], [`inner`]) — hexagons on
//!   the outer `(t, s1)` dimensions, time-skewed box tiles on the inner
//!   space dimensions;
//! * an executable [`plan::TilingPlan`] — wavefronts (one GPU kernel
//!   launch each), thread-block tile classes with per-row iteration
//!   counts, and the global-memory/shared-memory footprints the paper's
//!   model reasons about (`m_i`, `m_o`, `M_tile`, `w_tile`, `N_w`);
//! * a functional tiled executor ([`exec`]) that runs the plan over a
//!   space-time array while *checking every dependence* — used to prove
//!   the geometry legal and the results identical to the reference
//!   executor;
//! * a register-pressure estimator ([`regs`]) standing in for the nvcc
//!   back-end allocation the paper explicitly cannot model.
//!
//! The hexagon partition implemented here is exact (property-tested: the
//! tiles partition the iteration space and all inter-tile dependences
//! point to earlier wavefronts). The paper's closed-form footprint
//! formulas (Eqns 4–7, 13, 18–19, 23–26) hold up to the ±1 slack the
//! paper itself acknowledges; the `time-model` crate implements the
//! formulas exactly as printed, while this crate provides the exact
//! counts.

pub mod analysis;
pub mod config;
pub mod exec;
pub mod hex;
pub mod inner;
pub mod plan;
pub mod regs;
pub mod wavefront;

pub use analysis::{analyze, PlanStats};
pub use config::{LaunchConfig, TileSizes};
pub use exec::{
    rolling_window_depth, run_tiled_checked, run_tiled_parallel, run_tiled_parallel_into,
    run_tiled_parallel_into_with, run_tiled_parallel_with_stats, run_tiled_unchecked,
    run_tiled_unchecked_with_stats, run_tiled_with, try_run_tiled, DispatchPolicy, ExecOptions,
    ExecStats, ScratchPool, MIN_BATCH_POINTS,
};
pub use hex::HexTiling;
pub use plan::{AxisClass, BlockClass, HexagonRows, PlanGeometry, TilingPlan, WavefrontPlan};
pub use wavefront::{SpaceBlock, WavefrontSchedule};
