//! The per-block cost model: lowering a block class to its memory and
//! compute segments, including the second-order effects the paper's
//! analytical model deliberately leaves out.
//!
//! A block executes its sub-tiles sequentially; each sub-tile is a
//! `load → compute → store` chain. The compute part runs the hexagon
//! rows bottom-to-top with a barrier per row (the `τ_sync` terms of the
//! paper's Eqns 9/15/27). All sub-tile quantities are *separable* across
//! the inner axes (see `hhc_tiling::plan`), so block totals are computed
//! in O(rows × axis classes) and the engine schedules a bounded chain of
//! uniform load/compute/store chunks whose totals are exact.
//!
//! Machine-level effects charged here:
//!
//! * **Per-dimension thread mapping**: the generated code assigns the
//!   thread-block axes to the tile axes, so a row of extents
//!   `(e1, e2, e3)` executed by `(n1, n2, n3)` threads takes
//!   `∏ ⌈e_d / n_d⌉` rounds — threads along `s2` cannot serve extra `s1`
//!   width. With an aligned launch this reduces to the model's `⌈I/n_V⌉`;
//!   mismatched thread shapes waste issue slots — the unmodeled `n_thr`
//!   effect of the paper's Section 7.
//! * **Warp divergence**: an innermost thread extent that is not a
//!   multiple of the warp size leaves lanes idle in every warp.
//! * **Register pressure of the unrolled body**: HHC fully unrolls the
//!   per-tile code, so live registers grow with the points each thread
//!   covers per row. Demand beyond the compiler's allocation ceiling
//!   spills to local memory and slows compute — the "only known after
//!   nvcc" effect (paper Section 6.1) and the machine-level reason the
//!   conventional maximize-the-footprint wisdom fails (Section 7).
//! * **Coalescing**: global transfers move 32-word transactions; short
//!   contiguous runs waste bandwidth.

use crate::device::DeviceConfig;
use crate::workload::SimWorkload;
use hhc_tiling::plan::{AxisClass, BlockClass};
use std::sync::Arc;

/// Which pipe a segment occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipe {
    /// Global-memory pipe of the SM.
    Mem,
    /// Arithmetic pipe (vector units).
    Comp,
}

/// One schedulable segment of a block: a pipe and a duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The pipe this segment occupies.
    pub pipe: Pipe,
    /// Duration in seconds.
    pub dur: f64,
}

/// A block class lowered to its periodic form: `chunks` identical
/// `load → compute → store` chunks (sub-tiles are grouped into at most
/// [`MAX_CHUNKS`] chunks; totals are exact), plus summary totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSegments {
    /// One chunk's segments in execution order; a phase whose block
    /// total is zero is omitted.
    chunk: [Segment; 3],
    /// Segments per chunk (0–3).
    phases: u8,
    /// Identical chunks the block executes, at least 1.
    pub chunks: u64,
    /// Total memory time (sum of `Mem` segments).
    pub mem_time: f64,
    /// Total compute time (sum of `Comp` segments).
    pub comp_time: f64,
}

impl BlockSegments {
    /// One chunk's segments in execution order.
    pub fn chunk(&self) -> &[Segment] {
        &self.chunk[..self.phases as usize]
    }

    /// Strictly sequential duration (no overlap) — what a `k = 1`
    /// residency costs.
    pub fn sequential(&self) -> f64 {
        self.mem_time + self.comp_time
    }

    /// What the wave scheduler sees of this block, bit for bit: the
    /// chunk count and each phase's pipe and duration bits. Blocks with
    /// equal keys schedule identically.
    pub(crate) fn key(&self) -> BlockKey {
        BlockKey {
            chunks: self.chunks,
            phases: self.phases,
            pipes: self.chunk.map(|s| s.pipe),
            durs: self.chunk.map(|s| s.dur.to_bits()),
        }
    }

    /// A block of `chunks` repetitions of `chunk` (at most three
    /// segments), for scheduler tests that need durations no lowering
    /// produces.
    #[cfg(test)]
    pub(crate) fn periodic(chunk: &[Segment], chunks: u64) -> BlockSegments {
        let mut padded = [Segment {
            pipe: Pipe::Mem,
            dur: 0.0,
        }; 3];
        padded[..chunk.len()].copy_from_slice(chunk);
        let total = |pipe| {
            chunk
                .iter()
                .filter(|s| s.pipe == pipe)
                .map(|s| s.dur)
                .sum::<f64>()
        };
        BlockSegments {
            chunk: padded,
            phases: chunk.len() as u8,
            chunks,
            mem_time: total(Pipe::Mem) * chunks as f64,
            comp_time: total(Pipe::Comp) * chunks as f64,
        }
    }
}

/// The schedule-relevant identity of a [`BlockSegments`] (see
/// [`BlockSegments::key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BlockKey {
    chunks: u64,
    phases: u8,
    pipes: [Pipe; 3],
    durs: [u64; 3],
}

/// Maximum load/compute/store chunks a block is scheduled as. Enough
/// alternations for faithful pipe interleaving, bounded so 3D blocks
/// with tens of thousands of sub-tiles stay cheap to schedule.
pub const MAX_CHUNKS: u64 = 64;

/// `⌈e/n⌉` rounds along one axis.
#[inline]
fn axis_rounds(extent: u64, threads: usize) -> u64 {
    extent.div_ceil(threads.max(1) as u64)
}

/// Count-weighted rounds sum of an axis at row `r`:
/// `Σ_classes count · ⌈width/n⌉` (zero-width rows contribute nothing).
#[inline]
fn axis_rounds_sum(axis: &[AxisClass], r: usize, threads: usize) -> u64 {
    axis.iter()
        .map(|c| c.count * axis_rounds(c.widths[r], threads))
        .sum()
}

/// Number of sub-tiles of an axis active (nonzero width) at row `r`.
#[inline]
fn axis_active(axis: &[AxisClass], r: usize) -> u64 {
    axis.iter()
        .filter(|c| c.widths[r] > 0)
        .map(|c| c.count)
        .sum()
}

/// Points each thread covers in the widest row of the workload — the
/// unroll depth of the generated body. Kernels sharing a class vector
/// (interior wavefronts share one `Arc`) are visited once.
pub fn points_per_thread(wl: &SimWorkload) -> u64 {
    let [n1, n2, n3] = wl.threads_dims;
    let mut seen = Vec::new();
    wl.kernels
        .iter()
        .filter(|k| {
            let key = Arc::as_ptr(&k.classes);
            let first = !seen.contains(&key);
            if first {
                seen.push(key);
            }
            first
        })
        .flat_map(|k| k.classes.iter())
        .map(|c| {
            (0..c.row_count())
                .map(|r| {
                    let m2 = c
                        .axis2
                        .iter()
                        .map(|a| axis_rounds(a.widths[r], n2))
                        .max()
                        .unwrap_or(0);
                    let m3 = c
                        .axis3
                        .iter()
                        .map(|a| axis_rounds(a.widths[r], n3))
                        .max()
                        .unwrap_or(0);
                    axis_rounds(c.s1_widths[r], n1) * m2 * m3
                })
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0)
}

/// Register demand per thread of the fully-unrolled tile body: the base
/// estimate plus live values per unrolled point.
pub fn unrolled_regs_per_thread(wl: &SimWorkload) -> u32 {
    let unroll = (4 * points_per_thread(wl)).min(4096) as u32;
    wl.regs_per_thread.saturating_add(unroll)
}

/// Compute slowdown factor from register spilling: 1.0 when the demand
/// fits the compiler's allocation ceiling, growing linearly with the
/// spilled fraction beyond it.
pub fn spill_factor(device: &DeviceConfig, wl: &SimWorkload) -> f64 {
    spill_for_demand(device, unrolled_regs_per_thread(wl))
}

/// [`spill_factor`] of a known register demand per thread. The engine
/// computes the demand once per simulation and lowers every block class
/// with the resulting factor.
pub(crate) fn spill_for_demand(device: &DeviceConfig, demand: u32) -> f64 {
    let demand = demand as f64;
    let cap = device.reg_alloc_target as f64;
    if demand <= cap {
        1.0
    } else {
        1.0 + device.spill_coeff * (demand - cap) / cap
    }
}

/// Warp-divergence factor ≥ 1: full warps cost 1.0; an innermost extent
/// of `inner` threads pads each warp group to a multiple of the warp
/// size.
pub fn divergence_factor(device: &DeviceConfig, inner_threads: usize) -> f64 {
    let w = device.warp_size;
    let inner = inner_threads.max(1);
    let padded = inner.div_ceil(w) * w;
    padded as f64 / inner as f64
}

/// Effective words charged for a transfer of `words` with contiguous
/// runs of `run` words: transactions are 32-word granular.
pub fn coalesced_words(device: &DeviceConfig, words: u64, run: usize) -> u64 {
    let seg = device.shared_banks as u64; // 32-word (128-byte) transactions
    let run = (run.max(1) as u64).min(words.max(1));
    let runs = words / run.max(1);
    let rem = words % run.max(1);
    let padded_run = run.div_ceil(seg) * seg;
    runs * padded_run + if rem > 0 { rem.div_ceil(seg) * seg } else { 0 }
}

/// Total transfer time for `words` words spread over `batches` sub-tile
/// transfers (each batch pays the non-hidden latency and a barrier).
pub fn transfer_time(device: &DeviceConfig, wl: &SimWorkload, words: u64, batches: u64) -> f64 {
    if words == 0 {
        return 0.0;
    }
    let eff = coalesced_words(device, words, wl.contiguous_run);
    eff as f64 * device.word_time + batches as f64 * (device.mem_latency + device.tau_sync)
}

/// Total compute time of one block of `class` (all its sub-tiles):
/// per row and sub-tile, thread rounds × issue groups × per-iteration
/// cost × penalty factors, plus a barrier per active (sub-tile, row).
pub fn block_compute_time(device: &DeviceConfig, wl: &SimWorkload, class: &BlockClass) -> f64 {
    block_compute_time_spilled(device, wl, class, spill_factor(device, wl))
}

/// [`block_compute_time`] with the workload's spill factor given.
pub(crate) fn block_compute_time_spilled(
    device: &DeviceConfig,
    wl: &SimWorkload,
    class: &BlockClass,
    spill: f64,
) -> f64 {
    let citer = device.iter_cost(wl.flops_per_iter, wl.shared_accesses_per_iter, wl.rank);
    let diverge = divergence_factor(device, wl.inner_threads);
    let warps = wl.threads.max(1).div_ceil(device.warp_size);
    let issue_groups = (warps * device.warp_size).div_ceil(device.n_v) as f64;
    let [n1, n2, n3] = wl.threads_dims;
    let mut rounds_total = 0u64;
    let mut barriers = 0u64;
    for r in 0..class.row_count() {
        if class.s1_widths[r] == 0 {
            continue;
        }
        let r1 = axis_rounds(class.s1_widths[r], n1);
        rounds_total +=
            r1 * axis_rounds_sum(&class.axis2, r, n2) * axis_rounds_sum(&class.axis3, r, n3);
        barriers += axis_active(&class.axis2, r) * axis_active(&class.axis3, r);
    }
    rounds_total as f64 * issue_groups * citer * diverge * spill + barriers as f64 * device.tau_sync
}

/// Lower a block class to its periodic segment chunk.
///
/// The block's exact totals (loads, stores, compute) are divided over
/// `min(sub-tiles, MAX_CHUNKS)` uniform `load → compute → store` chunks,
/// preserving both the totals and the alternation the two-pipe engine
/// interleaves across co-resident blocks.
pub fn lower_block(device: &DeviceConfig, wl: &SimWorkload, class: &BlockClass) -> BlockSegments {
    lower_block_spilled(device, wl, class, spill_factor(device, wl))
}

/// [`lower_block`] with the workload's spill factor given.
pub(crate) fn lower_block_spilled(
    device: &DeviceConfig,
    wl: &SimWorkload,
    class: &BlockClass,
    spill: f64,
) -> BlockSegments {
    let n_sub = class.subtiles_per_block();
    let load = transfer_time(device, wl, class.load_words_per_block(), n_sub.max(1));
    let store = transfer_time(device, wl, class.store_words_per_block(), n_sub.max(1));
    let comp = block_compute_time_spilled(device, wl, class, spill);
    let chunks = n_sub.clamp(1, MAX_CHUNKS);
    let c = chunks as f64;
    let mut chunk = [Segment {
        pipe: Pipe::Mem,
        dur: 0.0,
    }; 3];
    let mut phases = 0u8;
    for (pipe, total) in [(Pipe::Mem, load), (Pipe::Comp, comp), (Pipe::Mem, store)] {
        if total > 0.0 {
            chunk[phases as usize] = Segment {
                pipe,
                dur: total / c,
            };
            phases += 1;
        }
    }
    BlockSegments {
        chunk,
        phases,
        chunks,
        mem_time: load + store,
        comp_time: comp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SimWorkload;

    fn wl_with(rows: Vec<[u64; 3]>, threads_dims: [usize; 3], rank: usize) -> SimWorkload {
        let mut wl = SimWorkload::uniform(
            1,
            1,
            1,
            0,
            0,
            rows,
            threads_dims.iter().product(),
            *threads_dims.iter().rfind(|&&t| t > 1).unwrap_or(&32),
        );
        wl.threads_dims = threads_dims;
        wl.rank = rank;
        wl
    }

    fn only_class(wl: &SimWorkload) -> BlockClass {
        wl.kernels[0].classes[0].clone()
    }

    #[test]
    fn divergence_penalizes_partial_warps() {
        let d = DeviceConfig::gtx980();
        assert_eq!(divergence_factor(&d, 32), 1.0);
        assert_eq!(divergence_factor(&d, 64), 1.0);
        assert!((divergence_factor(&d, 48) - 64.0 / 48.0).abs() < 1e-12);
        assert_eq!(divergence_factor(&d, 1), 32.0);
    }

    #[test]
    fn coalescing_pads_short_runs() {
        let d = DeviceConfig::gtx980();
        assert_eq!(coalesced_words(&d, 1024, 32), 1024);
        assert_eq!(coalesced_words(&d, 1024, 8), 4096);
        assert_eq!(coalesced_words(&d, 96, 48), 128);
    }

    #[test]
    fn compute_matches_model_for_aligned_threads() {
        // Aligned launch (n2 = 128 = n_V threads along s2): per-row time
        // must be ⌈s1·s2/n_V⌉·citer + τsync — the paper's Eqn 15 term.
        let d = DeviceConfig::gtx980();
        let wl = wl_with(vec![[4, 128, 1], [7, 128, 1]], [1, 128, 1], 2);
        let class = only_class(&wl);
        let citer = d.iter_cost(wl.flops_per_iter, wl.shared_accesses_per_iter, wl.rank);
        let expect = (4.0 + 7.0) * citer + 2.0 * d.tau_sync;
        let got = block_compute_time(&d, &wl, &class);
        assert!(
            (got - expect).abs() < 1e-15,
            "got {got:e}, expect {expect:e}"
        );
    }

    #[test]
    fn threads_on_wrong_axis_are_wasted() {
        // 384 threads along s2 for a 128-wide s2 extent: 3 issue groups,
        // only one useful → 3× the aligned time.
        let d = DeviceConfig::gtx980();
        let mk = |n2: usize| {
            let mut wl = wl_with(vec![[16, 128, 1]], [1, n2, 1], 2);
            wl.inner_threads = 128.min(n2);
            block_compute_time(&d, &wl, &only_class(&wl))
        };
        let aligned = mk(128);
        let oversub = mk(384);
        assert!(
            (oversub / aligned - 3.0).abs() < 0.05,
            "oversubscribed {oversub:e} vs aligned {aligned:e}"
        );
    }

    #[test]
    fn fewer_threads_than_nv_wastes_lanes() {
        let d = DeviceConfig::gtx980();
        let mk = |n: usize| {
            let wl = wl_with(vec![[1024, 1, 1]], [n, 1, 1], 1);
            block_compute_time(&d, &wl, &only_class(&wl))
        };
        let good = mk(128);
        let bad = mk(64);
        assert!(
            bad > 1.8 * good,
            "64 threads: {bad:e}, 128 threads: {good:e}"
        );
    }

    #[test]
    fn spills_trigger_on_deep_unroll() {
        let d = DeviceConfig::gtx980();
        // 128 threads along s2, 60-wide s1 rows → 60 points per thread →
        // 4·60 + base regs far beyond the 128-register ceiling.
        let wl = wl_with(vec![[60, 128, 1]], [1, 128, 1], 2);
        assert!(
            spill_factor(&d, &wl) > 1.2,
            "factor = {}",
            spill_factor(&d, &wl)
        );
        // Narrow rows: no spills.
        let wl2 = wl_with(vec![[8, 128, 1]], [1, 128, 1], 2);
        assert_eq!(spill_factor(&d, &wl2), 1.0);
    }

    #[test]
    fn extra_threads_do_not_reduce_unroll_on_other_axes() {
        // Adding threads along s2 cannot shrink the per-thread s1 work.
        let d = DeviceConfig::gtx980();
        let narrow = wl_with(vec![[60, 128, 1]], [1, 128, 1], 2);
        let wide = wl_with(vec![[60, 128, 1]], [1, 384, 1], 2);
        assert_eq!(
            spill_factor(&d, &narrow),
            spill_factor(&d, &wide),
            "spill demand must be launch-shape invariant along s2"
        );
    }

    #[test]
    fn lower_block_preserves_totals() {
        let d = DeviceConfig::gtx980();
        let mut wl = SimWorkload::uniform(1, 1, 3, 128, 128, vec![[256, 1, 1]], 128, 32);
        wl.threads_dims = [128, 1, 1];
        let class = only_class(&wl);
        let b = lower_block(&d, &wl, &class);
        let sum: f64 = b.chunk().iter().map(|s| s.dur).sum::<f64>() * b.chunks as f64;
        assert!((sum - b.sequential()).abs() < 1e-15);
        assert!(b.mem_time > 0.0 && b.comp_time > 0.0);
        // 3 sub-tiles → 3 chunks of (load, comp, store).
        assert_eq!(b.chunks, 3);
        let pipes: Vec<Pipe> = b.chunk().iter().map(|s| s.pipe).collect();
        assert_eq!(pipes, [Pipe::Mem, Pipe::Comp, Pipe::Mem]);
        assert_eq!(b.chunks * b.chunk().len() as u64, 9);
    }

    #[test]
    fn lower_block_bounds_chunks() {
        let d = DeviceConfig::gtx980();
        let mut wl = SimWorkload::uniform(1, 1, 100_000, 64, 64, vec![[128, 1, 1]], 128, 32);
        wl.threads_dims = [128, 1, 1];
        let class = only_class(&wl);
        let b = lower_block(&d, &wl, &class);
        assert!(b.chunks * b.chunk().len() as u64 <= 3 * MAX_CHUNKS);
    }

    #[test]
    fn transfer_time_zero_for_zero_words() {
        let d = DeviceConfig::gtx980();
        let wl = wl_with(vec![[128, 1, 1]], [128, 1, 1], 1);
        assert_eq!(transfer_time(&d, &wl, 0, 1), 0.0);
        assert!(transfer_time(&d, &wl, 1, 1) > 0.0);
    }
}
