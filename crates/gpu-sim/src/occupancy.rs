//! Occupancy: how many thread blocks are co-resident on one SM.
//!
//! The paper's Eqn 11 bounds the "hyper-threading" factor `k` by the
//! register file and shared-memory capacity:
//!
//! ```text
//! 1 < k ≤ min( ⌊R_SM / R_tile⌋ , ⌊M_SM / M_tile⌋ )
//! ```
//!
//! The machine additionally enforces the architectural limits the paper
//! folds into its feasible-space constraints: the per-block shared-memory
//! cap (48 KB), the maximum resident blocks per SM (`MTB_SM`), and the
//! resident-thread cap.

use crate::cost::unrolled_regs_per_thread;
use crate::device::DeviceConfig;
use crate::workload::SimWorkload;
use serde::{Deserialize, Serialize};

/// Why a launch is impossible on the device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LaunchError {
    /// `M_tile` exceeds the per-block shared-memory limit.
    SharedMemPerBlock {
        /// Requested words.
        needed: u64,
        /// Per-block limit in words.
        limit: u64,
    },
    /// Block has more threads than the architecture allows.
    TooManyThreads {
        /// Requested threads per block.
        needed: usize,
        /// Architectural limit.
        limit: usize,
    },
    /// A single block's registers exceed the SM register file.
    RegisterFile {
        /// Requested registers for one block.
        needed: u64,
        /// Register file size.
        limit: u64,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::SharedMemPerBlock { needed, limit } => {
                write!(
                    f,
                    "tile needs {needed} shared words, per-block limit is {limit}"
                )
            }
            LaunchError::TooManyThreads { needed, limit } => {
                write!(f, "block has {needed} threads, limit is {limit}")
            }
            LaunchError::RegisterFile { needed, limit } => {
                write!(f, "block needs {needed} registers, SM has {limit}")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// Which resource capped `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OccupancyLimit {
    /// Shared-memory capacity `⌊M_SM / M_tile⌋`.
    SharedMemory,
    /// Register file `⌊R_SM / R_tile⌋`.
    Registers,
    /// Architectural max blocks per SM.
    MaxBlocks,
    /// Resident-thread cap.
    Threads,
}

/// The resolved occupancy of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Co-resident blocks per SM (the paper's `k`, ≥ 1).
    pub k: usize,
    /// The binding resource.
    pub limit: OccupancyLimit,
    /// Registers actually allocated per thread (after the architectural
    /// cap; the overflow spills — see [`crate::cost`]).
    pub regs_per_thread: u32,
}

/// Compute the occupancy of `wl` on `device`, or why it cannot launch.
pub fn occupancy(device: &DeviceConfig, wl: &SimWorkload) -> Result<Occupancy, LaunchError> {
    occupancy_for_demand(device, wl, unrolled_regs_per_thread(wl))
}

/// [`occupancy`] of a workload whose register demand per thread
/// ([`unrolled_regs_per_thread`]) is already known.
pub(crate) fn occupancy_for_demand(
    device: &DeviceConfig,
    wl: &SimWorkload,
    demand: u32,
) -> Result<Occupancy, LaunchError> {
    if wl.threads > device.max_threads_per_block {
        return Err(LaunchError::TooManyThreads {
            needed: wl.threads,
            limit: device.max_threads_per_block,
        });
    }
    if wl.mtile_words > device.shared_per_block_words {
        return Err(LaunchError::SharedMemPerBlock {
            needed: wl.mtile_words,
            limit: device.shared_per_block_words,
        });
    }
    // Register demand of the unrolled body, capped at the compiler's
    // allocation ceiling; the overflow becomes spill traffic, not a
    // launch failure (as with nvcc's local-memory spilling).
    let alloc = demand
        .min(device.reg_alloc_target)
        .min(device.max_regs_per_thread);
    let r_tile = alloc as u64 * wl.threads as u64;
    if r_tile > device.regs_per_sm {
        return Err(LaunchError::RegisterFile {
            needed: r_tile,
            limit: device.regs_per_sm,
        });
    }

    let candidates = [
        (
            device.shared_mem_words / wl.mtile_words.max(1),
            OccupancyLimit::SharedMemory,
        ),
        (
            device.regs_per_sm / r_tile.max(1),
            OccupancyLimit::Registers,
        ),
        (device.max_blocks_per_sm as u64, OccupancyLimit::MaxBlocks),
        (
            (device.max_threads_per_sm / wl.threads.max(1)) as u64,
            OccupancyLimit::Threads,
        ),
    ];
    let (k, limit) = candidates
        .into_iter()
        .min_by_key(|(k, _)| *k)
        .expect("non-empty candidate list");
    Ok(Occupancy {
        k: k.max(1) as usize,
        limit,
        regs_per_thread: alloc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(threads: usize, mtile: u64) -> SimWorkload {
        let mut w =
            SimWorkload::uniform(1, 16, 1, 64, 64, vec![[threads as u64, 1, 1]], threads, 32);
        w.mtile_words = mtile;
        w
    }

    #[test]
    fn shared_memory_caps_k() {
        let d = DeviceConfig::gtx980();
        // M_tile = 1/3 of M_SM → k = 3 (shared-memory-limited).
        let o = occupancy(&d, &wl(128, d.shared_mem_words / 3)).unwrap();
        assert_eq!(o.k, 3);
        assert_eq!(o.limit, OccupancyLimit::SharedMemory);
    }

    #[test]
    fn per_block_shared_limit_rejects() {
        let d = DeviceConfig::gtx980();
        let err = occupancy(&d, &wl(128, d.shared_per_block_words + 1)).unwrap_err();
        assert!(matches!(err, LaunchError::SharedMemPerBlock { .. }));
    }

    #[test]
    fn half_capacity_tile_gives_k2() {
        // The paper's Section 5.1: the 48 KB per-block limit means a
        // maximal tile still leaves room for hyperthreading factor 2.
        let d = DeviceConfig::gtx980();
        let o = occupancy(&d, &wl(128, d.shared_per_block_words)).unwrap();
        assert_eq!(o.k, 2);
    }

    #[test]
    fn thread_limit_rejects() {
        let d = DeviceConfig::gtx980();
        let err = occupancy(&d, &wl(2048, 256)).unwrap_err();
        assert!(matches!(err, LaunchError::TooManyThreads { .. }));
    }

    #[test]
    fn thread_cap_limits_k() {
        let d = DeviceConfig::gtx980();
        // Tiny tile, 1024-thread blocks → k = 2048/1024 = 2 (thread cap,
        // tied here with the register cap).
        let o = occupancy(&d, &wl(1024, 64)).unwrap();
        assert_eq!(o.k, 2);
        assert!(matches!(
            o.limit,
            OccupancyLimit::Threads | OccupancyLimit::Registers
        ));
    }

    #[test]
    fn max_blocks_limits_tiny_tiles() {
        let d = DeviceConfig::gtx980();
        let o = occupancy(&d, &wl(32, 8)).unwrap();
        assert!(o.k <= d.max_blocks_per_sm);
    }

    #[test]
    fn k_never_zero() {
        let d = DeviceConfig::gtx980();
        let o = occupancy(&d, &wl(128, d.shared_per_block_words)).unwrap();
        assert!(o.k >= 1);
    }
}
