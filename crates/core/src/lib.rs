//! # stencil-core
//!
//! Stencil specifications, dense grids, and reference (sequential)
//! executors for the PPoPP'17 reproduction of *"Simple, Accurate,
//! Analytical Time Modeling and Optimal Tile Size Selection for GPGPU
//! Stencils"*.
//!
//! This crate defines the *problem* layer of the stack:
//!
//! * [`StencilDescriptor`] — the one way to name a stencil: rank, radius,
//!   star/box/custom footprint, coefficient table, constant and extra
//!   FLOPs. The paper's six benchmark stencils (four 2D: Jacobi, Heat,
//!   Laplacian, Gradient; two 3D: Heat, Laplacian), the Jacobi 1D and 3D
//!   stencils of its model exposition, and the zoo stencils are named
//!   rows of one preset table; arbitrary descriptors flow through the
//!   same executors, model, and advisor. Each is a convolutional stencil
//!   in the sense of the paper's Eqn (1):
//!
//!   ```text
//!   A_t(s) = ( Σ_{a ∈ N} w_a · A_{t-1}(s + a) ) + c
//!   ```
//!
//! * [`StencilSpec`] — a descriptor elaborated into its neighbor list,
//!   the form every executor, plan, simulator and model consumes; built
//!   only by [`StencilDescriptor::spec`].
//!
//! * [`Grid`] — a dense rectangular array of `f32` cells with Dirichlet
//!   (constant) boundary handling.
//!
//! * [`mod@reference`] — a trivially-correct sequential executor used as the
//!   ground truth that the tiled executors in `hhc-tiling`/`gpu-sim`
//!   must reproduce bit-for-bit (the arithmetic is identical and applied
//!   in a dependence-respecting order, so exact equality is required).
//!
//! * [`problem`] — problem-size descriptions (space extents + time steps)
//!   and the exact experiment grids of the paper's Section 5.
//!
//! * [`tiling`] / [`workload`] — the tile-size and launch parameters the
//!   model selects, and the [`Workload`] descriptor that carries one
//!   fully-described unit of work (device + stencil + size + tiles +
//!   launch) through every downstream crate. The per-dimension defaults
//!   (`hhc_default`, `candidates`, `empirical`) live here so dimension
//!   dispatch exists in exactly one place.

pub mod descriptor;
pub mod grid;
pub mod init;
pub mod ispace;
pub mod norms;
pub mod problem;
pub mod reference;
pub mod simd;
pub mod stencil;
pub mod tiling;
pub mod workload;

pub use descriptor::{Footprint, StencilDescriptor};
pub use grid::Grid;
pub use ispace::IterPoint;
pub use problem::ProblemSize;
pub use stencil::{Neighbor, RowKernel, StencilDim, StencilSpec};
pub use tiling::{LaunchConfig, TileSizes};
pub use workload::Workload;
