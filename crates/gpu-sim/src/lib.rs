//! # gpu-sim
//!
//! A deterministic, discrete-event GPU simulator — the "machine" of this
//! reproduction, substituting for the paper's NVIDIA GTX 980 and Titan X.
//!
//! The paper's analytical model abstracts a GPU into exactly the
//! resources of its Table 1: `n_SM` streaming multiprocessors with `n_V`
//! vector lanes, shared memory `M_SM`, a register file `R_SM`, a global
//! memory with a per-word cost `L`, barrier cost `τ_sync`, and a kernel
//! launch / host-synchronization cost `T_sync`. This simulator
//! implements the *same resource classes at a finer granularity*, plus
//! the effects the paper's model deliberately ignores and names as its
//! limitations (Section 7):
//!
//! * thread-count mismatch (`n_thr` rounds vs. vector width),
//! * partial warps / divergence when the innermost extent is not a
//!   multiple of the warp size,
//! * register pressure of the fully-unrolled tile body, with spills
//!   "only known after nvcc" — estimated and charged here,
//! * uncoalesced global accesses when the contiguous run is short,
//! * ragged boundary tiles and integer remainders in the block/SM
//!   assignment,
//! * imperfect load/compute overlap: each SM has one memory pipe and
//!   one compute pipe; the `k` co-resident blocks of a wave interleave
//!   on them event-by-event, so the paper's idealized
//!   `m' + c + (k−1)·max(m', c)` (Eqn 12) is an *optimistic bound* on
//!   what the engine produces.
//!
//! Because the model's constants (`L`, `τ_sync`, `T_sync`, `Citer`) are
//! *measured from this machine* by the `microbench` crate — the same
//! methodology the paper uses on hardware — the model-vs-machine error
//! profile (large over the whole space, small near the top) is an
//! emergent property, not a fit.
//!
//! Functional correctness of the schedule is established separately and
//! exactly by `hhc_tiling::exec` (bit-for-bit against the reference
//! executor); this crate consumes the same geometry through
//! [`hhc_tiling::TilingPlan`] and concerns itself with time.

pub mod cost;
pub mod device;
pub mod engine;
pub mod occupancy;
pub mod report;
pub mod trace;
pub mod workload;

pub use device::DeviceConfig;
pub use engine::{kernel_time, kernel_time_dealing, simulate, simulate_launches, KernelStats};
pub use occupancy::{occupancy, LaunchError, Occupancy, OccupancyLimit};
pub use report::SimReport;
pub use trace::{trace_kernel, KernelTrace, TraceEvent, TracePipe};
pub use workload::SimWorkload;

/// The workspace-wide workload descriptor, concretized with this crate's
/// [`DeviceConfig`]. `stencil-core` defines the generic shape; every
/// crate above the simulator passes this alias around instead of loose
/// `(device, stencil, size, tiles, launch)` tuples. Distinct from
/// [`SimWorkload`], the simulator's lowered input IR.
pub type Workload = stencil_core::Workload<DeviceConfig>;
