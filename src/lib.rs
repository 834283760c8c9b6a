//! # hhc-stencil
//!
//! Umbrella crate for the PPoPP'17 reproduction of *"Simple, Accurate,
//! Analytical Time Modeling and Optimal Tile Size Selection for GPGPU
//! Stencils"* (Prajapati et al.).
//!
//! It re-exports every layer of the stack so examples and downstream
//! users need a single dependency:
//!
//! * [`core`] — stencil specs, grids, reference executors;
//! * [`tiling`] — hybrid hexagonal/classical tiling geometry and plans;
//! * [`sim`] — the deterministic GPU simulator (the "machine");
//! * [`model`] — the paper's analytical execution-time model `Talg`;
//! * [`microbench`] — measurement of `L`, `τ_sync`, `T_sync`, `Citer`;
//! * [`opt`] — feasible-space enumeration and tile-size selection;
//! * [`experiments`] — regeneration of every table/figure of the paper.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture
//! and the hardware-substitution rationale.

pub use experiments;
pub use gpu_sim as sim;
pub use hhc_tiling as tiling;
pub use microbench;
pub use stencil_core as core;
pub use tile_opt as opt;
pub use time_model as model;
