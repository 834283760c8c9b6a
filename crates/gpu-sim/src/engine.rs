//! The discrete-event execution engine.
//!
//! A kernel launch dispatches its thread blocks round-robin over the
//! `n_SM` SMs. Each SM hosts up to `k` co-resident blocks (a *wave*);
//! within a wave the blocks' memory and compute segments interleave on
//! the SM's **memory pipe** and **compute pipe** under greedy
//! earliest-start list scheduling — loads of one block overlap compute
//! of another, exactly the mechanism the paper's Eqn 12 idealizes.
//! Waves on one SM run back-to-back; the kernel completes when its
//! slowest SM drains; the next wavefront's kernel then launches after a
//! host synchronization (`T_sync`), matching the structure of the
//! paper's Eqn 2.
//!
//! Everything is deterministic: ties break on block index, and identical
//! kernels (interior wavefronts share their class vectors via `Arc`) are
//! computed once and reused. Blocks enter the scheduler in their periodic
//! form (one chunk of segments repeated `chunks` times, see
//! [`cost::lower_block`]); [`schedule_wave`] is the one two-pipe
//! scheduler, shared with [`crate::trace`] through an observer. Each
//! distinct wave (sequence of lowered blocks) is scheduled once per
//! wave-cost table, and [`simulate_launches`] shares one table among a
//! tile's launches.
//!
//! Scheduling is closed-form where possible: round-robin dealing of
//! class runs is periodic, so [`kernel_time`] derives each SM's wave
//! sequence directly from the class prefix sums in O(distinct classes)
//! ([`schedule_steady`]) and only falls back to materializing the full
//! dispatch order ([`kernel_time_dealing`]) when a wave mixes more
//! classes than the inline composition can hold. Both paths intern wave
//! compositions and fold per-SM finish times in the same order, so they
//! agree to exact `f64` bit equality.

use crate::cost::{self, BlockSegments, Pipe, Segment};
use crate::device::DeviceConfig;
use crate::occupancy::{occupancy_for_demand, LaunchError};
use crate::report::SimReport;
use crate::workload::SimWorkload;
use hhc_tiling::plan::BlockClass;
use hhc_tiling::{LaunchConfig, PlanGeometry};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Simulate `wl` on `device`, returning the machine's measured time.
///
/// ```
/// use gpu_sim::{simulate, DeviceConfig, SimWorkload};
/// use hhc_tiling::{LaunchConfig, TileSizes, TilingPlan};
/// use stencil_core::{ProblemSize, StencilDescriptor};
///
/// let spec = StencilDescriptor::jacobi2d().spec();
/// let size = ProblemSize::new_2d(1024, 1024, 128);
/// let plan = TilingPlan::build(&spec, &size, TileSizes::new_2d(8, 8, 128),
///                              LaunchConfig::new_2d(1, 128)).unwrap();
/// let report = simulate(&DeviceConfig::gtx980(), &SimWorkload::from_plan(&plan)).unwrap();
/// assert!(report.total_time > 0.0);
/// assert_eq!(report.kernel_launches, plan.kernel_count());
/// ```
pub fn simulate(device: &DeviceConfig, wl: &SimWorkload) -> Result<SimReport, LaunchError> {
    simulate_core(device, wl, &mut WaveCostTable::default(), false).map(|(report, _)| report)
}

/// Simulate one tile's plan geometry under each of `launches`: one report
/// per launch, in order, `None` where the launch is malformed for the
/// stencil or cannot run on the device. Every report is bit-identical to
/// [`simulate`] of the same launch's [`SimWorkload::from_plan`].
///
/// The launches share one wave-cost table, created here and dropped on
/// return: a wave whose block sequence an earlier launch of the tile has
/// already scheduled is not scheduled again.
///
/// ```
/// use gpu_sim::{simulate, simulate_launches, DeviceConfig, SimWorkload};
/// use hhc_tiling::{LaunchConfig, PlanGeometry, TileSizes, TilingPlan};
/// use stencil_core::{ProblemSize, StencilDescriptor};
///
/// let spec = StencilDescriptor::jacobi2d().spec();
/// let size = ProblemSize::new_2d(1024, 1024, 128);
/// let tiles = TileSizes::new_2d(8, 8, 128);
/// let geometry = PlanGeometry::build(&spec, &size, tiles).unwrap();
/// let launches = [LaunchConfig::new_2d(1, 128), LaunchConfig::new_2d(2, 64)];
/// let device = DeviceConfig::gtx980();
/// let reports = simulate_launches(&device, &geometry, &launches);
/// for (report, &launch) in reports.iter().zip(&launches) {
///     let plan = TilingPlan::build(&spec, &size, tiles, launch).unwrap();
///     let alone = simulate(&device, &SimWorkload::from_plan(&plan)).unwrap();
///     assert_eq!(report.as_ref(), Some(&alone));
/// }
/// ```
pub fn simulate_launches(
    device: &DeviceConfig,
    geometry: &PlanGeometry,
    launches: &[LaunchConfig],
) -> Vec<Option<SimReport>> {
    let mut table = WaveCostTable::default();
    launches
        .iter()
        .map(|&launch| {
            let wl = SimWorkload::from_geometry(geometry, launch).ok()?;
            simulate_core(device, &wl, &mut table, false)
                .ok()
                .map(|(report, _)| report)
        })
        .collect()
}

/// Simulate and additionally return the per-kernel timeline — for
/// inspection, examples, and tests; [`simulate`] is the cheap path.
pub fn simulate_detailed(
    device: &DeviceConfig,
    wl: &SimWorkload,
) -> Result<(SimReport, Vec<KernelBreakdown>), LaunchError> {
    simulate_core(device, wl, &mut WaveCostTable::default(), true)
}

/// Shared core of [`simulate`], [`simulate_launches`] and
/// [`simulate_detailed`]: one occupancy query, one kernel-stats cache,
/// one telemetry pass, wave costs drawn from `table`. The detailed
/// variant only additionally records a [`KernelBreakdown`] per launch, so
/// they can never drift.
fn simulate_core(
    device: &DeviceConfig,
    wl: &SimWorkload,
    table: &mut WaveCostTable,
    detailed: bool,
) -> Result<(SimReport, Vec<KernelBreakdown>), LaunchError> {
    // The register demand, and with it the spill factor every block class
    // is lowered with, is a property of the whole workload: compute it
    // once per simulation.
    let demand = cost::unrolled_regs_per_thread(wl);
    let occ = occupancy_for_demand(device, wl, demand)?;
    let spill = cost::spill_for_demand(device, demand);
    // One schedule per distinct class vector. A plan has a handful (the
    // interior wavefronts share one `Arc`), so a linear scan finds them.
    let mut distinct: Vec<(*const Vec<BlockClass>, KernelStats)> = Vec::new();
    let (placed_before, shared_before) = (table.segments, table.shared);
    let mut total = 0.0f64;
    let mut mem_busy = 0.0f64;
    let mut comp_busy = 0.0f64;
    // One relaxed atomic load; all telemetry below is skipped when no
    // recorder is installed.
    let telemetry = obs::active();
    let mut blocks_total = 0u64;
    let mut waves_total = 0u64;
    let mut kernels = Vec::with_capacity(if detailed { wl.kernels.len() } else { 0 });
    for (index, kernel) in wl.kernels.iter().enumerate() {
        let key = Arc::as_ptr(&kernel.classes);
        let at = distinct
            .iter()
            .position(|(seen, _)| *seen == key)
            .unwrap_or_else(|| {
                let stats = kernel_time_spilled(device, wl, &kernel.classes, occ.k, spill, table);
                distinct.push((key, stats));
                distinct.len() - 1
            });
        let stats = &distinct[at].1;
        total += stats.makespan + device.t_launch;
        mem_busy += stats.mem_busy;
        comp_busy += stats.comp_busy;
        if detailed {
            kernels.push(KernelBreakdown {
                index,
                blocks: kernel.block_count(),
                makespan: stats.makespan,
                mem_busy: stats.mem_busy,
                comp_busy: stats.comp_busy,
            });
        }
        if telemetry {
            blocks_total += stats.blocks;
            waves_total += stats.waves;
            obs::event(
                obs::Level::Debug,
                "sim.kernel",
                &[
                    ("index", index.into()),
                    ("blocks", stats.blocks.into()),
                    ("waves", stats.waves.into()),
                    ("makespan_s", stats.makespan.into()),
                ],
            );
        }
    }
    if telemetry {
        obs::counter("sim.runs", 1);
        obs::counter("sim.kernel_launches", wl.kernels.len() as u64);
        obs::counter("sim.blocks", blocks_total);
        obs::counter("sim.waves", waves_total);
        obs::counter("sim.wave_segments", table.segments - placed_before);
        obs::counter("sim.wave_costs_shared", table.shared - shared_before);
        obs::histogram("sim.total_time_s", total);
        obs::histogram("sim.pipe_mem_busy_s", mem_busy);
        obs::histogram("sim.pipe_comp_busy_s", comp_busy);
        // Utilization is a property of each distinct kernel schedule, so
        // sample once per distinct kernel rather than once per launch.
        let (mut util_sum, mut util_n) = (0.0f64, 0u64);
        for (_, stats) in &distinct {
            if stats.makespan > 0.0 {
                for &finish in &stats.sm_finish {
                    let u = finish / stats.makespan;
                    obs::histogram("sim.sm_utilization", u);
                    util_sum += u;
                    util_n += 1;
                }
            }
        }
        if util_n > 0 {
            obs::gauge("sim.sm_utilization_mean", util_sum / util_n as f64);
        }
    }
    let launch_overhead = wl.kernels.len() as f64 * device.t_launch;
    let report = SimReport {
        total_time: total,
        kernel_launches: wl.kernels.len(),
        occupancy: occ,
        mem_busy,
        comp_busy,
        launch_overhead,
        spill_factor: spill,
        divergence_factor: cost::divergence_factor(device, wl.inner_threads),
    };
    Ok((report, kernels))
}

/// Timing summary of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Completion time of the slowest SM.
    pub makespan: f64,
    /// Aggregate memory-pipe busy time across SMs.
    pub mem_busy: f64,
    /// Aggregate compute-pipe busy time across SMs.
    pub comp_busy: f64,
    /// Thread blocks in the launch.
    pub blocks: u64,
    /// Waves scheduled across all SMs.
    pub waves: u64,
    /// Per-SM drain time (the makespan is their max).
    pub sm_finish: Vec<f64>,
}

/// Per-kernel timing of a detailed simulation (see [`simulate_detailed`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelBreakdown {
    /// Kernel index in launch order.
    pub index: usize,
    /// Thread blocks launched.
    pub blocks: u64,
    /// Makespan of the kernel (excluding the launch overhead).
    pub makespan: f64,
    /// Aggregate memory-pipe busy time across SMs.
    pub mem_busy: f64,
    /// Aggregate compute-pipe busy time across SMs.
    pub comp_busy: f64,
}

/// Lower every class once (with the workload's `spill` factor) and
/// compute the launch-wide aggregates that both scheduling paths share.
/// The pipe-busy sums iterate the classes in declaration order so both
/// paths fold identically.
pub(crate) fn lower_classes(
    device: &DeviceConfig,
    wl: &SimWorkload,
    classes: &[BlockClass],
    spill: f64,
) -> (Vec<(u64, BlockSegments)>, u64, f64, f64) {
    let lowered: Vec<(u64, BlockSegments)> = classes
        .iter()
        .map(|c| (c.count, cost::lower_block_spilled(device, wl, c, spill)))
        .collect();
    let total_blocks: u64 = lowered.iter().map(|(c, _)| c).sum();
    let mem_busy: f64 = lowered.iter().map(|(c, b)| *c as f64 * b.mem_time).sum();
    let comp_busy: f64 = lowered.iter().map(|(c, b)| *c as f64 * b.comp_time).sum();
    (lowered, total_blocks, mem_busy, comp_busy)
}

/// Makespan of one kernel: distribute blocks over SMs, schedule each
/// SM's waves, take the slowest SM.
///
/// Uses the O(distinct classes) steady-state schedule; falls back to the
/// exact dealing loop when a wave's composition overflows
/// [`MAX_WAVE_RUNS`] runs. The two paths are bit-identical (see
/// `sched_properties.rs`).
pub fn kernel_time(
    device: &DeviceConfig,
    wl: &SimWorkload,
    classes: &[BlockClass],
    k: usize,
) -> KernelStats {
    let spill = cost::spill_factor(device, wl);
    kernel_time_spilled(device, wl, classes, k, spill, &mut WaveCostTable::default())
}

/// The stats of a launch without blocks.
fn empty_kernel() -> KernelStats {
    KernelStats {
        makespan: 0.0,
        mem_busy: 0.0,
        comp_busy: 0.0,
        blocks: 0,
        waves: 0,
        sm_finish: Vec::new(),
    }
}

/// [`kernel_time`] with the workload's spill factor given ([`simulate`]
/// computes it once, not once per kernel) and wave costs drawn from
/// `table`.
fn kernel_time_spilled(
    device: &DeviceConfig,
    wl: &SimWorkload,
    classes: &[BlockClass],
    k: usize,
    spill: f64,
    table: &mut WaveCostTable,
) -> KernelStats {
    let (lowered, total_blocks, mem_busy, comp_busy) = lower_classes(device, wl, classes, spill);
    if total_blocks == 0 {
        return empty_kernel();
    }
    let n_sm = device.n_sm;
    let k = k.max(1);
    let ids = table.begin_kernel(&lowered);
    let (schedule, steady) = match schedule_steady(n_sm, k, total_blocks, &lowered, &ids, table) {
        Some(s) => (s, true),
        None => (schedule_dealing(n_sm, k, &lowered, &ids, table), false),
    };
    if obs::active() {
        obs::counter(
            if steady {
                "sim.sched_steady"
            } else {
                "sim.sched_fallback"
            },
            1,
        );
    }
    KernelStats {
        makespan: schedule.makespan,
        mem_busy,
        comp_busy,
        blocks: total_blocks,
        waves: schedule.waves,
        sm_finish: schedule.sm_finish,
    }
}

/// Reference oracle: [`kernel_time`] computed by materializing the full
/// dispatch order and dealing it block by block. Always exact; used by
/// tests to pin the steady-state schedule bit-for-bit.
pub fn kernel_time_dealing(
    device: &DeviceConfig,
    wl: &SimWorkload,
    classes: &[BlockClass],
    k: usize,
) -> KernelStats {
    let spill = cost::spill_factor(device, wl);
    let (lowered, total_blocks, mem_busy, comp_busy) = lower_classes(device, wl, classes, spill);
    if total_blocks == 0 {
        return empty_kernel();
    }
    let mut table = WaveCostTable::default();
    let ids = table.begin_kernel(&lowered);
    let schedule = schedule_dealing(device.n_sm, k.max(1), &lowered, &ids, &mut table);
    KernelStats {
        makespan: schedule.makespan,
        mem_busy,
        comp_busy,
        blocks: total_blocks,
        waves: schedule.waves,
        sm_finish: schedule.sm_finish,
    }
}

/// Maximum distinct block runs in one wave's inline composition. Real
/// plans have 1–3 classes, so one wave mixing more than six runs is
/// vanishingly rare; such kernels take the exact dealing fallback.
const MAX_WAVE_RUNS: usize = 6;

/// A wave's composition as a run-length-encoded sequence of interned
/// blocks (ids into [`WaveCostTable`]'s block list): the wave executes
/// `runs[0].1` blocks `runs[0].0`, then `runs[1].1` blocks `runs[1].0`,
/// and so on. Adjacent equal blocks always merge into one run, so the
/// encoding is canonical: two waves compare equal exactly when they
/// schedule the same block sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct WaveComp {
    runs: [(u32, u32); MAX_WAVE_RUNS],
    len: u8,
}

impl Hash for WaveComp {
    /// One word per used run; unused runs are always zero.
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &(block, count) in &self.runs[..self.len as usize] {
            state.write_u64(u64::from(block) << 32 | u64::from(count));
        }
    }
}

impl WaveComp {
    fn new() -> Self {
        Self::default()
    }

    /// A full wave of `count` copies of one block — the steady state
    /// that dominates every regular launch.
    fn pure(block: u32, count: u32) -> Self {
        let mut c = Self::new();
        c.runs[0] = (block, count);
        c.len = 1;
        c
    }

    /// Append a run; returns `false` on overflow (caller falls back).
    fn push(&mut self, block: u32, count: u32) -> bool {
        if count == 0 {
            return true;
        }
        if self.len > 0 && self.runs[self.len as usize - 1].0 == block {
            self.runs[self.len as usize - 1].1 += count;
            return true;
        }
        if (self.len as usize) == MAX_WAVE_RUNS {
            return false;
        }
        self.runs[self.len as usize] = (block, count);
        self.len += 1;
        true
    }

    /// The wave's blocks in dispatch order.
    fn blocks<'a>(
        &'a self,
        blocks: &'a [BlockSegments],
    ) -> impl Iterator<Item = &'a BlockSegments> {
        self.runs[..self.len as usize]
            .iter()
            .flat_map(move |&(b, n)| std::iter::repeat_n(&blocks[b as usize], n as usize))
    }
}

/// Multiply-rotate hashing of the table's keys, which are a few machine
/// words each; the standard SipHash set-up costs more than the lookup.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, w: u8) {
        self.write_u64(u64::from(w));
    }

    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Wave costs keyed by the wave's block sequence, shared by every kernel
/// schedule that draws from one table: [`simulate_launches`] creates one
/// per tile sweep, and every other entry point one per call. Lowered
/// blocks are interned by their schedule-relevant bits
/// ([`BlockSegments::key`]), so kernels and launches whose waves run the
/// same blocks share those waves' costs whatever their class indices.
/// Each distinct wave is scheduled once.
#[derive(Default)]
struct WaveCostTable {
    /// Interned lowered blocks, by id.
    blocks: Vec<BlockSegments>,
    block_ids: WordMap<cost::BlockKey, u32>,
    /// Interned wave compositions, by id.
    wave_ids: WordMap<WaveComp, u32>,
    /// Each wave's cost and the kernel schedule that last used it.
    costs: Vec<(f64, u64)>,
    /// The current kernel schedule (see [`Self::begin_kernel`]).
    kernel: u64,
    /// Segments placed by the scheduler so far.
    segments: u64,
    /// Wave costs a kernel schedule found already scheduled by an
    /// earlier one: counted once per (kernel schedule, wave).
    shared: u64,
}

impl WaveCostTable {
    /// Start a kernel schedule: intern its lowered classes and return
    /// each class's block id.
    fn begin_kernel(&mut self, lowered: &[(u64, BlockSegments)]) -> Vec<u32> {
        self.kernel += 1;
        lowered
            .iter()
            .map(|(_, b)| {
                let next = self.blocks.len() as u32;
                let id = *self.block_ids.entry(b.key()).or_insert(next);
                if id == next {
                    self.blocks.push(*b);
                }
                id
            })
            .collect()
    }

    /// The id of `comp`'s cost, scheduling the wave the first time any
    /// kernel schedule drawing from this table needs it.
    fn id_of(&mut self, comp: WaveComp) -> u32 {
        let next = self.costs.len() as u32;
        match self.wave_ids.entry(comp) {
            Entry::Occupied(e) => {
                let id = *e.get();
                let last = &mut self.costs[id as usize].1;
                if *last != self.kernel {
                    *last = self.kernel;
                    self.shared += 1;
                }
                id
            }
            Entry::Vacant(e) => {
                e.insert(next);
                let placed = &mut self.segments;
                let cost = schedule_wave(comp.blocks(&self.blocks), |_, _, _, _| *placed += 1);
                self.costs.push((cost, self.kernel));
                next
            }
        }
    }

    /// Schedule one wave outside the table, counting the segments it
    /// places.
    fn schedule<'a>(&mut self, blocks: impl Iterator<Item = &'a BlockSegments>) -> f64 {
        let placed = &mut self.segments;
        schedule_wave(blocks, |_, _, _, _| *placed += 1)
    }

    fn cost(&self, id: u32) -> f64 {
        self.costs[id as usize].0
    }
}

/// One kernel's schedule across all SMs.
struct Schedule {
    makespan: f64,
    waves: u64,
    sm_finish: Vec<f64>,
}

/// Append `rep` waves of composition `id` to an SM signature, merging
/// adjacent identical runs (pure merging keeps the fold order intact —
/// the same cost is added the same number of times either way).
fn push_sig(sig: &mut Vec<(u32, u64)>, id: u32, rep: u64) {
    if let Some(last) = sig.last_mut() {
        if last.0 == id {
            last.1 += rep;
            return;
        }
    }
    sig.push((id, rep));
}

/// Closed-form steady-state schedule.
///
/// Round-robin dealing sends global dispatch position `p` to SM
/// `p % n_sm` at local index `p / n_sm`, so SM `s` holds local index `l`
/// ⇔ position `p = s + l·n_sm`, and with class prefix sums (class `c`
/// occupies positions `[prefix[c], prefix[c+1])`) every wave's
/// composition is computable without materializing the order. Runs of
/// full single-class waves — the steady state — collapse into one
/// `(composition, repeat)` signature entry; irregular waves at class
/// boundaries and the tail are composed run by run (`ids` maps each
/// class to its interned block). Per-SM finish times fold wave costs in
/// the exact order the dealing loop does, and SMs with identical
/// signatures share one fold, so results are bit-equal to
/// [`schedule_dealing`].
///
/// Returns `None` when a wave mixes more than [`MAX_WAVE_RUNS`] block
/// runs; the caller then takes the dealing fallback.
fn schedule_steady(
    n_sm: usize,
    k: usize,
    total: u64,
    lowered: &[(u64, BlockSegments)],
    ids: &[u32],
    table: &mut WaveCostTable,
) -> Option<Schedule> {
    let nsm = n_sm as u64;
    let ku = k as u64;
    let kw = u32::try_from(ku).ok()?;
    // prefix[c] = blocks dispatched before class c.
    let mut prefix = Vec::with_capacity(lowered.len() + 1);
    let mut acc = 0u64;
    prefix.push(0);
    for (count, _) in lowered {
        acc += count;
        prefix.push(acc);
    }
    let mut sm_finish = vec![0.0f64; n_sm];
    let mut makespan = 0.0f64;
    let mut waves_total = 0u64;
    // SMs with identical wave signatures share one finish-time fold.
    let mut memo: Vec<(Vec<(u32, u64)>, f64)> = Vec::new();
    let mut sig: Vec<(u32, u64)> = Vec::new();
    for (s, finish_slot) in sm_finish.iter_mut().enumerate() {
        let su = s as u64;
        if su >= total {
            break; // the remaining SMs receive no blocks
        }
        let n_s = (total - su).div_ceil(nsm);
        let n_waves = n_s.div_ceil(ku);
        waves_total += n_waves;
        sig.clear();
        let mut w = 0u64;
        let mut cls = 0usize;
        while w < n_waves {
            let first = w * ku;
            let in_wave = ku.min(n_s - first);
            let p0 = su + first * nsm;
            while prefix[cls + 1] <= p0 {
                cls += 1;
            }
            if in_wave == ku {
                // Largest local index of class `cls` on this SM
                // (prefix[cls+1] > p0 ≥ su, so the subtraction is safe).
                let l_max = (prefix[cls + 1] - 1 - su) / nsm;
                if l_max >= first + ku - 1 {
                    // This wave is full and single-class; extend the run
                    // to the last wave that is both.
                    let w_pure = (l_max - (ku - 1)) / ku;
                    let w_full = (n_s - ku) / ku;
                    let w_end = w_pure.min(w_full);
                    debug_assert!(w_end >= w);
                    let id = table.id_of(WaveComp::pure(ids[cls], kw));
                    push_sig(&mut sig, id, w_end - w + 1);
                    w = w_end + 1;
                    continue;
                }
            }
            // Irregular wave (class boundary or short tail): compose it
            // run by run.
            let mut comp = WaveComp::new();
            let mut i = 0u64;
            let mut c = cls;
            while i < in_wave {
                let p = p0 + i * nsm;
                while prefix[c + 1] <= p {
                    c += 1;
                }
                let upto = (prefix[c + 1] - p0).div_ceil(nsm);
                let n = upto.min(in_wave) - i;
                if !comp.push(ids[c], n as u32) {
                    return None;
                }
                i += n;
            }
            let id = table.id_of(comp);
            push_sig(&mut sig, id, 1);
            w += 1;
        }
        let mut hit: Option<f64> = None;
        for (seen, finish) in &memo {
            if seen == &sig {
                hit = Some(*finish);
                break;
            }
        }
        let finish = match hit {
            Some(f) => f,
            None => {
                // Fold in dealing order: one addition per wave.
                let mut t = 0.0f64;
                for &(id, rep) in &sig {
                    let cost = table.cost(id);
                    for _ in 0..rep {
                        t += cost;
                    }
                }
                memo.push((sig.clone(), t));
                t
            }
        };
        *finish_slot = finish;
        makespan = makespan.max(finish);
    }
    Some(Schedule {
        makespan,
        waves: waves_total,
        sm_finish,
    })
}

/// Run-length encode one dealt wave slice (class indices, mapped to
/// their interned blocks by `ids`); `None` if it needs more than
/// [`MAX_WAVE_RUNS`] runs.
fn comp_of_slice(wave: &[u16], ids: &[u32]) -> Option<WaveComp> {
    let mut comp = WaveComp::new();
    for &c in wave {
        if !comp.push(ids[c as usize], 1) {
            return None;
        }
    }
    Some(comp)
}

/// Expand the dispatch order (class after class) and deal it round-robin
/// to `n_sm` SMs, as the hardware's block scheduler does for a grid: the
/// class index of every block, per SM, in dispatch order.
pub(crate) fn deal(n_sm: usize, lowered: &[(u64, BlockSegments)]) -> Vec<Vec<u16>> {
    let mut per_sm: Vec<Vec<u16>> = vec![Vec::new(); n_sm];
    let order = lowered
        .iter()
        .enumerate()
        .flat_map(|(idx, (count, _))| std::iter::repeat_n(idx as u16, *count as usize));
    for (pos, cls) in order.enumerate() {
        per_sm[pos % n_sm].push(cls);
    }
    per_sm
}

/// Exact reference schedule over the [`deal`]t dispatch order. Wave costs
/// are still interned by composition — virtually all waves are identical
/// — and scheduled uncached for the rare composition that overflows the
/// inline encoding.
fn schedule_dealing(
    n_sm: usize,
    k: usize,
    lowered: &[(u64, BlockSegments)],
    ids: &[u32],
    table: &mut WaveCostTable,
) -> Schedule {
    let per_sm = deal(n_sm, lowered);
    let mut makespan = 0.0f64;
    let mut waves = 0u64;
    let mut sm_finish = vec![0.0f64; n_sm];
    for (sm_idx, sm) in per_sm.iter().enumerate() {
        let mut t = 0.0;
        for wave in sm.chunks(k) {
            waves += 1;
            let cost = match comp_of_slice(wave, ids) {
                Some(comp) => {
                    let id = table.id_of(comp);
                    table.cost(id)
                }
                None => table.schedule(wave.iter().map(|&c| &lowered[c as usize].1)),
            };
            t += cost;
        }
        sm_finish[sm_idx] = t;
        makespan = makespan.max(t);
    }
    Schedule {
        makespan,
        waves,
        sm_finish,
    }
}

/// A block's position in its chain: `left` chunks to go, at `phase`
/// within the current one, whose segment `next` can start once the
/// previous segment ends at `ready`.
struct Live<'a> {
    block: usize,
    chunk: &'a [Segment],
    phase: usize,
    left: u64,
    next: Segment,
    ready: f64,
}

impl<'a> Live<'a> {
    /// Block `block` at the start of its chain; `None` if it has no
    /// segments.
    fn start(block: usize, b: &'a BlockSegments) -> Option<Self> {
        let chunk = b.chunk();
        Some(Live {
            block,
            chunk,
            phase: 0,
            left: b.chunks,
            next: *chunk.first()?,
            ready: 0.0,
        })
    }

    /// Record that `next` ended at `end` and step to the following
    /// segment; `false` once the chain is done.
    #[inline]
    fn advance(&mut self, end: f64) -> bool {
        self.ready = end;
        self.phase += 1;
        if self.phase == self.chunk.len() {
            self.phase = 0;
            self.left -= 1;
            if self.left == 0 {
                return false;
            }
        }
        self.next = self.chunk[self.phase];
        true
    }

    /// Place `next` at `start` on its pipe; returns its end.
    #[inline]
    fn place(
        &mut self,
        start: f64,
        free: &mut FreeAt,
        on_segment: &mut impl FnMut(usize, Pipe, f64, f64),
    ) -> f64 {
        let end = start + self.next.dur;
        free.set(self.next.pipe, end);
        on_segment(self.block, self.next.pipe, start, end);
        end
    }

    /// When `next` can start: once its predecessor ends and its pipe is
    /// free.
    #[inline]
    fn start_on(&self, free: &FreeAt) -> f64 {
        self.ready.max(free.get(self.next.pipe))
    }
}

/// When each pipe is next free.
#[derive(Clone, Copy, Default)]
struct FreeAt {
    mem: f64,
    comp: f64,
}

impl FreeAt {
    #[inline]
    fn get(&self, pipe: Pipe) -> f64 {
        match pipe {
            Pipe::Mem => self.mem,
            Pipe::Comp => self.comp,
        }
    }

    #[inline]
    fn set(&mut self, pipe: Pipe, at: f64) {
        match pipe {
            Pipe::Mem => self.mem = at,
            Pipe::Comp => self.comp = at,
        }
    }
}

/// Two-pipe greedy list schedule of the co-resident blocks of one wave,
/// from time 0.
///
/// Each block is a chain of `chunks` repetitions of its chunk's segments;
/// the memory pipe and the compute pipe each execute one segment at a
/// time. At every step the block whose next segment can start earliest
/// (ties: lowest block index) is placed, and `on_segment(block, pipe,
/// start, end)` observes the placement: the engine counts placements,
/// the tracer records them. Returns the completion time of the last
/// segment.
///
/// Waves of one and two blocks (with segments) take straight-line paths
/// that perform the same `f64` operations in the same order as the
/// general loop, and so report the same placements bit for bit.
pub(crate) fn schedule_wave<'a>(
    blocks: impl Iterator<Item = &'a BlockSegments>,
    mut on_segment: impl FnMut(usize, Pipe, f64, f64),
) -> f64 {
    let mut live = blocks
        .enumerate()
        .filter_map(|(block, b)| Live::start(block, b));
    let Some(a) = live.next() else {
        return 0.0;
    };
    let Some(b) = live.next() else {
        return one_block(&a, &mut on_segment);
    };
    let Some(c) = live.next() else {
        return two_blocks(a, b, &mut on_segment);
    };
    let all: Vec<Live<'a>> = [a, b, c].into_iter().chain(live).collect();
    any_blocks(all, &mut on_segment)
}

/// A block alone on the SM. Nothing else uses its pipes, and durations
/// are ≥ 0, so each segment starts the moment its predecessor ends
/// (`ready.max(free[pipe]) == ready`), and the wave's cost is the chained
/// sum of the segment durations.
fn one_block(b: &Live<'_>, on_segment: &mut impl FnMut(usize, Pipe, f64, f64)) -> f64 {
    let mut t = 0.0f64;
    for _ in 0..b.left {
        for s in b.chunk {
            let end = t + s.dur;
            on_segment(b.block, s.pipe, t, end);
            t = end;
        }
    }
    t
}

/// Two co-resident blocks, both blocks' positions and both pipes' free
/// times held in locals. Once one chain is done the other runs on alone,
/// still waiting for whatever its partner left on the pipes.
fn two_blocks<'a>(
    mut a: Live<'a>,
    mut b: Live<'a>,
    on_segment: &mut impl FnMut(usize, Pipe, f64, f64),
) -> f64 {
    let mut free = FreeAt::default();
    let mut finish = 0.0f64;
    loop {
        let (sa, sb) = (a.start_on(&free), b.start_on(&free));
        // Ties go to the lower block index, `a`.
        if sb < sa {
            let end = b.place(sb, &mut free, on_segment);
            finish = finish.max(end);
            if !b.advance(end) {
                return run_alone(a, free, finish, on_segment);
            }
        } else {
            let end = a.place(sa, &mut free, on_segment);
            finish = finish.max(end);
            if !a.advance(end) {
                return run_alone(b, free, finish, on_segment);
            }
        }
    }
}

/// The rest of block `b`'s chain once its partner is done: it still
/// waits for whatever the partner left on the pipes.
fn run_alone(
    mut b: Live<'_>,
    mut free: FreeAt,
    mut finish: f64,
    on_segment: &mut impl FnMut(usize, Pipe, f64, f64),
) -> f64 {
    loop {
        let end = b.place(b.start_on(&free), &mut free, on_segment);
        finish = finish.max(end);
        if !b.advance(end) {
            return finish;
        }
    }
}

/// The general loop, for any number of blocks: each step scans the live
/// blocks for the earliest start. Finished blocks leave `live`, which
/// stays in block order.
fn any_blocks(mut live: Vec<Live<'_>>, on_segment: &mut impl FnMut(usize, Pipe, f64, f64)) -> f64 {
    let mut free = FreeAt::default();
    let mut finish = 0.0f64;
    while let Some(first) = live.first() {
        // Find the runnable segment with the earliest possible start.
        let (mut i, mut start) = (0, first.start_on(&free));
        for (j, b) in live.iter().enumerate().skip(1) {
            let s = b.start_on(&free);
            if s < start {
                (i, start) = (j, s);
            }
        }
        let end = live[i].place(start, &mut free, on_segment);
        finish = finish.max(end);
        if !live[i].advance(end) {
            live.remove(i);
        }
    }
    finish
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SimWorkload;

    fn tiny_device(n_sm: usize) -> DeviceConfig {
        // Allow a block to own the whole shared memory so tests can
        // force k = 1 (real devices cap blocks at half — which is why
        // the paper's Section 5.1 always sees k ≥ 2).
        let mut d = DeviceConfig::gtx980();
        d.n_sm = n_sm;
        d.shared_per_block_words = d.shared_mem_words;
        d
    }

    /// SimWorkload of one kernel with `blocks` identical blocks.
    fn wl_blocks(blocks: u64, subtiles: u64, mtile: u64) -> SimWorkload {
        let mut wl = SimWorkload::uniform(
            1,
            blocks,
            subtiles,
            2048,
            2048,
            vec![[1024, 1, 1], [1024, 1, 1]],
            128,
            32,
        );
        wl.mtile_words = mtile;
        wl
    }

    #[test]
    fn single_block_is_sequential_plus_launch() {
        let d = tiny_device(1);
        let wl = wl_blocks(1, 4, d.shared_mem_words); // k = 1
        let r = simulate(&d, &wl).unwrap();
        assert_eq!(r.occupancy.k, 1);
        // Sequential chain: total = Σ segments + launch.
        let classes = &wl.kernels[0].classes;
        let b = cost::lower_block(&d, &wl, &classes[0]);
        let expect = b.sequential() + d.t_launch;
        assert!(
            (r.total_time - expect).abs() < 1e-12,
            "{} vs {}",
            r.total_time,
            expect
        );
    }

    #[test]
    fn k1_blocks_serialize_on_one_sm() {
        let d = tiny_device(1);
        let wl1 = wl_blocks(1, 4, d.shared_mem_words);
        let wl3 = wl_blocks(3, 4, d.shared_mem_words);
        let t1 = simulate(&d, &wl1).unwrap().total_time - d.t_launch;
        let t3 = simulate(&d, &wl3).unwrap().total_time - d.t_launch;
        assert!((t3 - 3.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn hyperthreading_overlaps_memory_and_compute() {
        let d = tiny_device(1);
        // M_tile = half the SM → k = 2.
        let wl = wl_blocks(2, 8, d.shared_mem_words / 2);
        let r = simulate(&d, &wl).unwrap();
        assert_eq!(r.occupancy.k, 2);
        let b = cost::lower_block(&d, &wl, &wl.kernels[0].classes[0]);
        let seq2 = 2.0 * b.sequential();
        let lower_bound = (2.0 * b.mem_time).max(2.0 * b.comp_time);
        let t = r.total_time - d.t_launch;
        assert!(t < seq2, "no overlap achieved: {t} vs {seq2}");
        assert!(
            t >= lower_bound - 1e-15,
            "beat the pipe bound: {t} vs {lower_bound}"
        );
    }

    #[test]
    fn blocks_spread_over_sms() {
        let d1 = tiny_device(1);
        let d4 = tiny_device(4);
        let wl = wl_blocks(8, 4, d1.shared_mem_words); // k = 1
        let t1 = simulate(&d1, &wl).unwrap().total_time;
        let t4 = simulate(&d4, &wl).unwrap().total_time;
        assert!(t4 < t1 / 3.0, "4 SMs not ~4x faster: {t4} vs {t1}");
    }

    #[test]
    fn launch_overhead_charged_per_kernel() {
        let d = tiny_device(2);
        let one = SimWorkload::uniform(1, 1, 1, 64, 64, vec![[128, 1, 1]], 128, 32);
        let ten = SimWorkload::uniform(10, 1, 1, 64, 64, vec![[128, 1, 1]], 128, 32);
        let r1 = simulate(&d, &one).unwrap();
        let r10 = simulate(&d, &ten).unwrap();
        assert!((r10.total_time - 10.0 * r1.total_time).abs() < 1e-12);
        assert!((r10.launch_overhead - 10.0 * d.t_launch).abs() < 1e-18);
    }

    #[test]
    fn deterministic() {
        let d = DeviceConfig::gtx980();
        let wl = wl_blocks(37, 5, d.shared_mem_words / 3);
        let a = simulate(&d, &wl).unwrap();
        let b = simulate(&d, &wl).unwrap();
        assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
    }

    #[test]
    fn remainder_blocks_create_tail() {
        // 17 blocks on 16 SMs: one SM runs two waves → ~2x the makespan
        // of 16 blocks.
        let d = tiny_device(16);
        let w16 = wl_blocks(16, 4, d.shared_mem_words);
        let w17 = wl_blocks(17, 4, d.shared_mem_words);
        let t16 = simulate(&d, &w16).unwrap().total_time - d.t_launch;
        let t17 = simulate(&d, &w17).unwrap().total_time - d.t_launch;
        assert!(
            (t17 - 2.0 * t16).abs() < 1e-12,
            "tail effect missing: {t17} vs {t16}"
        );
    }

    #[test]
    fn detailed_matches_summary() {
        let d = DeviceConfig::gtx980();
        let wl = wl_blocks(24, 5, d.shared_mem_words / 3);
        let summary = simulate(&d, &wl).unwrap();
        let (report, kernels) = simulate_detailed(&d, &wl).unwrap();
        assert_eq!(report.total_time.to_bits(), summary.total_time.to_bits());
        assert_eq!(kernels.len(), wl.kernels.len());
        let sum: f64 = kernels.iter().map(|k| k.makespan).sum();
        let expect = report.total_time - report.launch_overhead;
        assert!((sum - expect).abs() < 1e-15, "{sum} vs {expect}");
        assert!(kernels.iter().all(|k| k.blocks == 24));
    }

    #[test]
    fn heterogeneous_classes_deal_round_robin() {
        // Two classes of very different cost: the makespan must reflect
        // the SM that received the expensive block, not an average.
        use hhc_tiling::plan::{BlockClass, WavefrontPlan};
        use std::sync::Arc;
        let d = tiny_device(2);
        let cheap = BlockClass {
            count: 3,
            s1_widths: vec![128],
            mi_rows: vec![64],
            mo_rows: vec![64],
            axis2: BlockClass::unit_axis(1),
            axis3: BlockClass::unit_axis(1),
        };
        let expensive = BlockClass {
            count: 1,
            s1_widths: vec![128 * 64],
            mi_rows: vec![64],
            mo_rows: vec![64],
            axis2: BlockClass::unit_axis(1),
            axis3: BlockClass::unit_axis(1),
        };
        let mk = |classes: Vec<BlockClass>| {
            let mut wl = SimWorkload::uniform(1, 0, 0, 0, 0, vec![], 128, 32);
            wl.kernels = vec![WavefrontPlan {
                classes: Arc::new(classes),
            }];
            wl.mtile_words = d.shared_mem_words; // k = 1
            wl
        };
        let hetero = simulate(&d, &mk(vec![expensive.clone(), cheap.clone()])).unwrap();
        let only_cheap = simulate(&d, &mk(vec![cheap])).unwrap();
        let only_exp = simulate(&d, &mk(vec![expensive])).unwrap();
        // Compare kernel makespans (the launch overhead is a constant).
        let kt = |r: &crate::report::SimReport| r.total_time - r.launch_overhead;
        assert!(kt(&hetero) >= kt(&only_exp) - 1e-15);
        assert!(kt(&hetero) > 2.0 * kt(&only_cheap));
    }

    #[test]
    fn memory_only_blocks_serialize_on_the_mem_pipe() {
        let d = tiny_device(1);
        d.n_sm.checked_mul(1).unwrap();
        // k large but all work is memory: co-residency cannot help.
        let wl = SimWorkload::uniform(1, 4, 4, 4096, 4096, vec![], 128, 32);
        let r = simulate(&d, &wl).unwrap();
        assert!(r.occupancy.k > 1);
        let t = r.total_time - d.t_launch;
        assert!(
            (t - r.mem_busy).abs() / r.mem_busy < 0.01,
            "mem-only kernel should be pipe-bound: {t} vs busy {}",
            r.mem_busy
        );
    }

    #[test]
    fn empty_kernel_costs_launch_only() {
        let d = DeviceConfig::gtx980();
        let wl = SimWorkload::uniform(1, 0, 0, 0, 0, vec![], 128, 32);
        let r = simulate(&d, &wl).unwrap();
        assert!((r.total_time - d.t_launch).abs() < 1e-18);
    }

    /// A wave's cost and its `(block, pipe, start, end)` placements, as
    /// raw bits.
    type Placements = (u64, Vec<(usize, Pipe, u64, u64)>);

    /// What `schedule_wave` reports for `wave`, and what the general
    /// loop reports for the same blocks.
    fn placements(wave: &[&BlockSegments]) -> [Placements; 2] {
        let mut fast = Vec::new();
        let t_fast = schedule_wave(wave.iter().copied(), |b, p, s, e| {
            fast.push((b, p, s.to_bits(), e.to_bits()))
        });
        let live = wave
            .iter()
            .enumerate()
            .filter_map(|(i, b)| Live::start(i, b))
            .collect();
        let mut general = Vec::new();
        let t_general = any_blocks(live, &mut |b, p, s, e| {
            general.push((b, p, s.to_bits(), e.to_bits()))
        });
        [(t_fast.to_bits(), fast), (t_general.to_bits(), general)]
    }

    /// The straight-line one- and two-block paths observe the same
    /// `(block, pipe, start, end)` stream as the general loop, bit for
    /// bit: chunks of one, two and three phases, single-chunk blocks, a
    /// zero-duration segment, a block without segments, and durations
    /// that are not exact binary fractions.
    #[test]
    fn straight_line_paths_match_the_general_loop() {
        let seg = |pipe, dur| Segment { pipe, dur };
        let (m, c) = (Pipe::Mem, Pipe::Comp);
        let mut blocks = vec![
            BlockSegments::periodic(&[seg(c, 3.0e-6)], 4),
            BlockSegments::periodic(&[seg(m, 1.5e-6), seg(c, 2.0e-6)], 3),
            BlockSegments::periodic(&[seg(m, 1.0e-6), seg(c, 0.7e-6), seg(m, 0.4e-6)], 5),
            BlockSegments::periodic(&[seg(m, 2.5e-6), seg(c, 1.0e-6), seg(m, 0.5e-6)], 1),
            BlockSegments::periodic(&[seg(m, 1.0e-6), seg(c, 0.0), seg(m, 0.3e-6)], 2),
            BlockSegments::periodic(&[seg(m, 0.1), seg(c, 0.2), seg(m, 0.3)], 7),
            BlockSegments::periodic(&[], 1),
        ];
        // Pseudo-random three-phase chunks, some with a tied duration.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut draw = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f64 * 1.0e-9 / 3.0
        };
        for chunks in [1u64, 2, 9, 64] {
            let (load, comp) = (draw(), draw());
            blocks.push(BlockSegments::periodic(
                &[seg(m, load), seg(c, comp), seg(m, load)],
                chunks,
            ));
        }
        for a in &blocks {
            let [fast, general] = placements(&[a]);
            assert_eq!(fast, general);
            for b in &blocks {
                let [fast, general] = placements(&[a, b]);
                assert_eq!(fast, general);
            }
        }
    }

    /// The steady-state schedule must reproduce the dealing loop exactly
    /// — including `sm_finish`, wave counts, and every bit of the fp
    /// fold — across class mixes, SM counts, and occupancies.
    #[test]
    fn steady_matches_dealing_bitwise() {
        use hhc_tiling::plan::{BlockClass, WavefrontPlan};
        use std::sync::Arc;
        let cls = |count: u64, width: u64| BlockClass {
            count,
            s1_widths: vec![width],
            mi_rows: vec![64],
            mo_rows: vec![64],
            axis2: BlockClass::unit_axis(1),
            axis3: BlockClass::unit_axis(1),
        };
        let cases: Vec<Vec<BlockClass>> = vec![
            vec![cls(1, 128)],
            vec![cls(97, 128)],
            vec![cls(3, 128), cls(1, 4096)],
            vec![cls(16, 64), cls(0, 32), cls(17, 256)],
            vec![cls(5, 64), cls(5, 128), cls(5, 256), cls(5, 512)],
            // Many single-block classes: with large k a wave mixes > 6
            // runs, forcing the dealing fallback on a 1-SM device.
            (0..10).map(|i| cls(1, 64 + 8 * i)).collect(),
        ];
        for n_sm in [1usize, 2, 3, 7, 16] {
            let mut d = DeviceConfig::gtx980();
            d.n_sm = n_sm;
            for classes in &cases {
                let mut wl = SimWorkload::uniform(1, 0, 0, 0, 0, vec![], 128, 32);
                wl.kernels = vec![WavefrontPlan {
                    classes: Arc::new(classes.clone()),
                }];
                for k in [1usize, 2, 3, 5, 8, 13] {
                    let steady = kernel_time(&d, &wl, classes, k);
                    let dealing = kernel_time_dealing(&d, &wl, classes, k);
                    assert_eq!(steady.makespan.to_bits(), dealing.makespan.to_bits());
                    assert_eq!(steady.mem_busy.to_bits(), dealing.mem_busy.to_bits());
                    assert_eq!(steady.comp_busy.to_bits(), dealing.comp_busy.to_bits());
                    assert_eq!(steady.blocks, dealing.blocks);
                    assert_eq!(steady.waves, dealing.waves);
                    assert_eq!(steady.sm_finish.len(), dealing.sm_finish.len());
                    for (a, b) in steady.sm_finish.iter().zip(&dealing.sm_finish) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }
    }
}
