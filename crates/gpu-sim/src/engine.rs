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
//! computed once and reused. A workload's distinct class vectors and
//! their launch-independent lowering parts are found once per tile sweep
//! (`cost::TileClasses`); each launch adds one row pass per class, shared
//! by the sweep's launches whose thread shapes agree once clamped to the
//! tile's widest extents.
//! Blocks enter the scheduler in their periodic form (one chunk of
//! segments repeated `chunks` times, see [`cost::lower_block`]);
//! `schedule_wave` is the one two-pipe scheduler, shared with
//! [`crate::trace`] through an observer. Each distinct wave (sequence of
//! lowered blocks) is scheduled once per wave-cost table, and
//! [`simulate_launches`] shares one table among a tile's launches.
//!
//! Within a wave, the lowest block index wins every tie, so the two
//! lowest-index live blocks (the *active pair*) take almost every step
//! between them while the others sit *parked*. The scheduler keeps the
//! pair in locals and stands for all parked blocks by one guard, the
//! earliest start any of them could take: the pair places while its start
//! is at most the guard, and only otherwise is a parked block (the
//! earliest, lowest index on ties) looked up. Each step thus costs what a
//! two-block step costs, whatever the wave's size, and still places the
//! globally earliest start (`active_pair`).
//!
//! Scheduling is closed-form: round-robin dealing of class runs is
//! periodic, so every kernel schedule derives each SM's wave sequence
//! directly from the class prefix sums in O(distinct classes)
//! (`schedule_steady`), once per group of SMs that receive the same
//! blocks, whatever the mix of blocks in a wave. The one loop that deals
//! blocks one by one is the tracer's replay ([`crate::trace`]); it
//! schedules every wave afresh, and [`kernel_time_dealing`] times a
//! kernel through it as the steady schedule's oracle. Both fold per-SM
//! finish times in the same order, so they agree to exact `f64` bit
//! equality.

use crate::cost::{self, BlockSegments, ComputeRate, Pipe, Segment, TileClasses};
use crate::device::DeviceConfig;
use crate::occupancy::LaunchError;
use crate::report::SimReport;
use crate::workload::SimWorkload;
use hhc_tiling::plan::BlockClass;
use hhc_tiling::{LaunchConfig, PlanGeometry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
    let mut tile = TileClasses::new(device, wl);
    simulate_tile(device, wl, &mut tile, &mut WaveCostTable::default())
}

/// Simulate one tile's plan geometry under each of `launches`: one report
/// per launch, in order, `None` where the launch is malformed for the
/// stencil or cannot run on the device. Every report is bit-identical to
/// [`simulate`] of the same launch's [`SimWorkload::from_plan`].
///
/// The sweep lowers the tile's classes once: it finds the distinct class
/// vectors and computes each class's launch-independent parts (transfer
/// times, barriers, chunks) here, and each launch only adds its thread
/// rounds, from a row pass it shares with every launch of the same thread
/// shape once each axis is clamped to the tile's widest extent on it. The
/// launches share one wave-cost table, so a wave whose block sequence an
/// earlier launch of the tile has already scheduled is not scheduled
/// again, and its kernel schedules reuse one set of buffers. All of it is
/// dropped on return.
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
    let Some(&first) = launches.first() else {
        return Vec::new();
    };
    // One workload for the sweep, re-launched at each launch: its kernels
    // and footprint are the geometry's whatever the launch.
    let mut wl = SimWorkload::lower(
        &geometry.spec,
        geometry.tiles,
        first,
        geometry.wavefronts.clone(),
        geometry.mtile_words,
        geometry.regs_per_thread,
    );
    let mut tile = TileClasses::new(device, &wl);
    let mut table = WaveCostTable::default();
    launches
        .iter()
        .map(|&launch| {
            launch.validate(geometry.spec.dim).ok()?;
            wl.set_launch(launch);
            simulate_tile(device, &wl, &mut tile, &mut table).ok()
        })
        .collect()
}

/// Shared core of [`simulate`] and [`simulate_launches`]: `wl`'s launch
/// of the tile's lowered classes, one kernel schedule per distinct class
/// vector with wave costs drawn from `table`, the `N_w` kernel totals
/// folded in launch order, one telemetry pass.
fn simulate_tile(
    device: &DeviceConfig,
    wl: &SimWorkload,
    tile: &mut TileClasses,
    table: &mut WaveCostTable,
) -> Result<SimReport, LaunchError> {
    let launch = tile.lower(device, wl)?;
    let k = launch.occupancy.k;
    let before = (table.segments, table.shared, table.parked);
    let distinct: Vec<KernelStats> = launch
        .vectors
        .iter()
        .map(|lowered| kernel_stats(device.n_sm, k, lowered, table))
        .collect();
    let mut total = 0.0f64;
    let mut mem_busy = 0.0f64;
    let mut comp_busy = 0.0f64;
    // One relaxed atomic load; all telemetry below is skipped when no
    // recorder is installed.
    let telemetry = obs::active();
    let mut blocks_total = 0u64;
    let mut waves_total = 0u64;
    let launches = tile.kernel_vector.len();
    for (index, &vector) in tile.kernel_vector.iter().enumerate() {
        let stats = &distinct[vector];
        total += stats.makespan + device.t_launch;
        mem_busy += stats.mem_busy;
        comp_busy += stats.comp_busy;
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
        obs::counter("sim.kernel_launches", launches as u64);
        obs::counter("sim.blocks", blocks_total);
        obs::counter("sim.waves", waves_total);
        obs::counter("sim.wave_segments", table.segments - before.0);
        obs::counter("sim.wave_costs_shared", table.shared - before.1);
        obs::counter("sim.wave_parked_placements", table.parked - before.2);
        obs::histogram("sim.total_time_s", total);
        obs::histogram("sim.pipe_mem_busy_s", mem_busy);
        obs::histogram("sim.pipe_comp_busy_s", comp_busy);
        // Utilization is a property of each distinct kernel schedule, so
        // sample once per distinct kernel rather than once per launch.
        let (mut util_sum, mut util_n) = (0.0f64, 0u64);
        for stats in &distinct {
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
    let launch_overhead = launches as f64 * device.t_launch;
    Ok(SimReport {
        total_time: total,
        kernel_launches: launches,
        occupancy: launch.occupancy,
        mem_busy,
        comp_busy,
        launch_overhead,
        spill_factor: launch.spill,
        divergence_factor: cost::divergence_factor(device, wl.inner_threads),
    })
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

impl KernelStats {
    /// The stats of a schedule of `lowered` classes whose SMs drain at
    /// `sm_finish` after `waves` waves. Pipe-busy sums iterate the
    /// classes in declaration order, so every schedule folds identically.
    fn new(lowered: &[(u64, BlockSegments)], sm_finish: Vec<f64>, waves: u64) -> Self {
        let blocks: u64 = lowered.iter().map(|(c, _)| c).sum();
        if blocks == 0 {
            return KernelStats {
                makespan: 0.0,
                mem_busy: 0.0,
                comp_busy: 0.0,
                blocks: 0,
                waves: 0,
                sm_finish: Vec::new(),
            };
        }
        KernelStats {
            makespan: sm_finish.iter().copied().fold(0.0, f64::max),
            mem_busy: lowered.iter().map(|(c, b)| *c as f64 * b.mem_time).sum(),
            comp_busy: lowered.iter().map(|(c, b)| *c as f64 * b.comp_time).sum(),
            blocks,
            waves,
            sm_finish,
        }
    }
}

/// Makespan of one kernel: distribute blocks over SMs, schedule each
/// SM's waves, take the slowest SM. `classes` are lowered under `wl`'s
/// launch, with the spill factor of `wl`'s own kernels.
pub fn kernel_time(
    device: &DeviceConfig,
    wl: &SimWorkload,
    classes: &[BlockClass],
    k: usize,
) -> KernelStats {
    let lowered = lower_classes(device, wl, classes);
    kernel_stats(device.n_sm, k, &lowered, &mut WaveCostTable::default())
}

/// Reference oracle: [`kernel_time`] computed by the tracer's replay,
/// which deals the blocks one by one and schedules every wave afresh,
/// sharing no wave interning with the steady-state schedule. Used by
/// tests to pin that schedule bit for bit.
pub fn kernel_time_dealing(
    device: &DeviceConfig,
    wl: &SimWorkload,
    classes: &[BlockClass],
    k: usize,
) -> KernelStats {
    let lowered = lower_classes(device, wl, classes);
    let (sm_finish, waves) = crate::trace::replay(device.n_sm, k, &lowered, |_, _, _, _, _, _| {});
    KernelStats::new(&lowered, sm_finish, waves)
}

/// One class vector lowered under `wl`'s launch, as (block count,
/// segments) per class.
fn lower_classes(
    device: &DeviceConfig,
    wl: &SimWorkload,
    classes: &[BlockClass],
) -> Vec<(u64, BlockSegments)> {
    let rate = ComputeRate::new(device, wl, cost::spill_factor(device, wl));
    classes
        .iter()
        .map(|c| (c.count, cost::lower_block_at(device, wl, c, &rate)))
        .collect()
}

/// The stats of one kernel schedule of `lowered` classes at occupancy
/// `k`, wave costs drawn from `table`.
fn kernel_stats(
    n_sm: usize,
    k: usize,
    lowered: &[(u64, BlockSegments)],
    table: &mut WaveCostTable,
) -> KernelStats {
    let total_blocks: u64 = lowered.iter().map(|(c, _)| c).sum();
    if total_blocks == 0 {
        return KernelStats::new(lowered, Vec::new(), 0);
    }
    let mut scratch = std::mem::take(&mut table.scratch);
    table.begin_kernel(lowered, &mut scratch.ids);
    let schedule = schedule_steady(n_sm, k.max(1), total_blocks, lowered, table, &mut scratch);
    table.scratch = scratch;
    if obs::active() {
        obs::counter("sim.sched_steady", 1);
        obs::counter("sim.sm_groups", schedule.sm_groups);
    }
    KernelStats::new(lowered, schedule.sm_finish, schedule.waves)
}

/// One run of a wave composition: `count` copies of interned block
/// `block`, packed as `block << 32 | count`.
fn run(block: u32, count: u64) -> u64 {
    debug_assert!(count >> 32 == 0, "a wave of {count} blocks");
    u64::from(block) << 32 | count
}

/// Multiply-rotate hashing of the table's keys, which are a few machine
/// words each; the standard SipHash set-up costs more than the lookup.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// One round per 8-byte word (a `[u64]` key arrives as one byte
    /// slice), the last word zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().unwrap()));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(w));
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
    /// Interned wave compositions, by id: the wave's blocks as runs of
    /// one interned block (see [`run`]) in dispatch order, adjacent equal
    /// blocks merged into one run, so two waves compare equal exactly
    /// when they schedule the same block sequence.
    wave_ids: WordMap<Box<[u64]>, u32>,
    /// Each wave's cost and the kernel schedule that last used it.
    costs: Vec<(f64, u64)>,
    /// The current kernel schedule (see [`Self::begin_kernel`]).
    kernel: u64,
    /// Segments placed by the scheduler so far.
    segments: u64,
    /// Of those, segments a parked block placed (see [`active_pair`]).
    parked: u64,
    /// Wave costs a kernel schedule found already scheduled by an
    /// earlier one: counted once per (kernel schedule, wave).
    shared: u64,
    /// Buffers every kernel schedule drawing from this table reuses.
    scratch: KernelScratch,
}

/// A kernel schedule's working buffers (see [`schedule_steady`]).
#[derive(Default)]
struct KernelScratch {
    /// Each class's interned block id.
    ids: Vec<u32>,
    /// Blocks dispatched before each class, and the total.
    prefix: Vec<u64>,
    /// The first SM of each group of SMs that receive the same blocks.
    starts: Vec<usize>,
    /// One SM group's waves as `(wave id, repeat)`.
    sig: Vec<(u32, u64)>,
    /// The wave being composed, as runs (see [`run`]).
    runs: Vec<u64>,
}

impl WaveCostTable {
    /// Start a kernel schedule: intern its lowered classes and set `ids`
    /// to each class's block id.
    fn begin_kernel(&mut self, lowered: &[(u64, BlockSegments)], ids: &mut Vec<u32>) {
        self.kernel += 1;
        ids.clear();
        ids.extend(lowered.iter().map(|(_, b)| {
            let next = self.blocks.len() as u32;
            let id = *self.block_ids.entry(b.key()).or_insert(next);
            if id == next {
                self.blocks.push(*b);
            }
            id
        }));
    }

    /// The id of the wave of `runs`' cost, scheduling the wave the first
    /// time any kernel schedule drawing from this table needs it.
    fn id_of(&mut self, runs: &[u64]) -> u32 {
        if let Some(&id) = self.wave_ids.get(runs) {
            let last = &mut self.costs[id as usize].1;
            if *last != self.kernel {
                *last = self.kernel;
                self.shared += 1;
            }
            return id;
        }
        let blocks = &self.blocks;
        let wave = runs
            .iter()
            .flat_map(|&r| std::iter::repeat_n(&blocks[(r >> 32) as usize], r as u32 as usize));
        let placed = &mut self.segments;
        let (cost, parked) = schedule_wave(wave, |_, _, _, _| *placed += 1);
        self.parked += parked;
        let id = self.costs.len() as u32;
        self.costs.push((cost, self.kernel));
        self.wave_ids.insert(runs.into(), id);
        id
    }

    fn cost(&self, id: u32) -> f64 {
        self.costs[id as usize].0
    }
}

/// One kernel's schedule across all SMs.
struct Schedule {
    waves: u64,
    sm_finish: Vec<f64>,
    /// SM groups whose signature the schedule built and folded.
    sm_groups: u64,
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
/// boundaries and the tail are composed run by run in one reused buffer,
/// however many runs they mix (`ids` maps each class to its interned
/// block).
///
/// A class boundary at prefix position `a` separates SM `s − 1` from SM
/// `s` only when `s ≡ a (mod n_sm)`, and the block count drops there only
/// when `s ≡ total`. The residues of every prefix sum (0 and the total
/// included) therefore cut the SMs into groups that receive the same
/// class sequence: each group's first SM builds the signature and folds
/// it, and the group's SMs share the finish time. Wave costs are folded
/// in the exact order a dealing loop adds them, so results are bit-equal
/// to the tracer's replay ([`kernel_time_dealing`]), and waves are
/// interned in the order a dealing loop first meets them. `scratch.ids`
/// holds each class's interned block; the other buffers are overwritten.
fn schedule_steady(
    n_sm: usize,
    k: usize,
    total: u64,
    lowered: &[(u64, BlockSegments)],
    table: &mut WaveCostTable,
    scratch: &mut KernelScratch,
) -> Schedule {
    let KernelScratch {
        ids,
        prefix,
        starts,
        sig,
        runs,
    } = scratch;
    let nsm = n_sm as u64;
    // No SM receives more than `total` blocks, so a larger `k` schedules
    // the same waves.
    let ku = (k as u64).min(total);
    // prefix[c] = blocks dispatched before class c.
    prefix.clear();
    let mut acc = 0u64;
    prefix.push(0);
    for (count, _) in lowered {
        acc += count;
        prefix.push(acc);
    }
    // The first SM of each group, ascending.
    starts.clear();
    starts.extend(prefix.iter().map(|&p| (p % nsm) as usize));
    starts.sort_unstable();
    starts.dedup();
    let mut sm_finish = vec![0.0f64; n_sm];
    let mut waves_total = 0u64;
    let mut sm_groups = 0u64;
    for (g, &s) in starts.iter().enumerate() {
        let su = s as u64;
        if su >= total {
            break; // this group and the later ones receive no blocks
        }
        let group = s..starts.get(g + 1).copied().unwrap_or(n_sm);
        let n_s = (total - su).div_ceil(nsm);
        let n_waves = n_s.div_ceil(ku);
        waves_total += n_waves * group.len() as u64;
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
                    let id = table.id_of(&[run(ids[cls], ku)]);
                    push_sig(sig, id, w_end - w + 1);
                    w = w_end + 1;
                    continue;
                }
            }
            // Irregular wave (class boundary or short tail): compose it
            // run by run.
            runs.clear();
            let mut i = 0u64;
            let mut c = cls;
            while i < in_wave {
                let p = p0 + i * nsm;
                while prefix[c + 1] <= p {
                    c += 1;
                }
                let upto = (prefix[c + 1] - p0).div_ceil(nsm);
                let n = upto.min(in_wave) - i;
                match runs.last_mut() {
                    Some(last) if (*last >> 32) as u32 == ids[c] => *last += n,
                    _ => runs.push(run(ids[c], n)),
                }
                i += n;
            }
            let id = table.id_of(runs);
            push_sig(sig, id, 1);
            w += 1;
        }
        // Fold in dealing order: one addition per wave.
        let mut finish = 0.0f64;
        for &(id, rep) in sig.iter() {
            let cost = table.cost(id);
            for _ in 0..rep {
                finish += cost;
            }
        }
        sm_finish[group].fill(finish);
        sm_groups += 1;
    }
    Schedule {
        waves: waves_total,
        sm_finish,
        sm_groups,
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
        free: &mut PipeTimes,
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
    fn start_on(&self, free: &PipeTimes) -> f64 {
        later(self.ready, free.get(self.next.pipe))
    }
}

/// A time per pipe: when each is next free, or when the earliest parked
/// block waiting on it is ready.
#[derive(Clone, Copy, Default)]
struct PipeTimes {
    mem: f64,
    comp: f64,
}

impl PipeTimes {
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
/// segment, and the steps at which a parked block started first.
///
/// Because ties go to the lowest index, the two lowest-index live blocks
/// (the *active pair*) take almost every step between them, and the rest
/// sit *parked*. A wave of one block runs as a straight chain; any larger
/// wave runs in [`active_pair`], which consults the parked blocks through
/// one guard per step, so every step costs what a two-block step costs.
/// Both compute each start and end exactly as a scan of all live blocks
/// would, and so report its placements bit for bit.
pub(crate) fn schedule_wave<'a>(
    blocks: impl Iterator<Item = &'a BlockSegments>,
    mut on_segment: impl FnMut(usize, Pipe, f64, f64),
) -> (f64, u64) {
    let mut live = blocks
        .enumerate()
        .filter_map(|(block, b)| Live::start(block, b));
    let Some(a) = live.next() else {
        return (0.0, 0);
    };
    let Some(b) = live.next() else {
        return (one_block(&a, &mut on_segment), 0);
    };
    active_pair(a, b, live.collect(), &mut on_segment)
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

/// Two or more co-resident blocks: the active pair `a` < `b` in locals,
/// every other live block `parked`, in block order.
///
/// One guard per step stands for all parked blocks: the earliest start
/// any of them could take, `min over pipes P of max(min ready of the
/// blocks parked on P, free_P)`. The pair places while its start is ≤ the
/// guard; it wins ties, as both its indices are below every parked index.
/// Otherwise the parked block with the earliest start (ties: lowest index)
/// places and the guard's ready times are recomputed. When a pair block
/// finishes, the lowest-index parked block joins the pair. With nothing
/// parked the guard is +∞: the plain two-block schedule. Returns the
/// wave's completion time and the steps a parked block placed.
///
/// No placement starts before its pipe is free and durations are ≥ 0,
/// so each pipe's free time only grows and ends as the latest end on it:
/// the completion time is the later of the two, with no per-step maximum.
fn active_pair<'a>(
    mut a: Live<'a>,
    mut b: Live<'a>,
    mut parked: Vec<Live<'a>>,
    on_segment: &mut impl FnMut(usize, Pipe, f64, f64),
) -> (f64, u64) {
    let mut free = PipeTimes::default();
    let mut ready = parked_ready(&parked);
    let mut parked_first = 0u64;
    loop {
        let (mem, comp) = (later(ready.mem, free.mem), later(ready.comp, free.comp));
        let guard = if comp < mem { comp } else { mem };
        let (sa, sb) = (a.start_on(&free), b.start_on(&free));
        // Ties go to the lower block index, `a`.
        if sb < sa {
            if sb <= guard {
                let end = b.place(sb, &mut free, on_segment);
                if !b.advance(end) {
                    if parked.is_empty() {
                        return (run_alone(a, free, on_segment), parked_first);
                    }
                    b = parked.remove(0);
                    ready = parked_ready(&parked);
                }
                continue;
            }
        } else if sa <= guard {
            let end = a.place(sa, &mut free, on_segment);
            if !a.advance(end) {
                if parked.is_empty() {
                    return (run_alone(b, free, on_segment), parked_first);
                }
                a = std::mem::replace(&mut b, parked.remove(0));
                ready = parked_ready(&parked);
            }
            continue;
        }
        // A parked block starts first.
        let (mut i, mut start) = (0, parked[0].start_on(&free));
        for (j, p) in parked.iter().enumerate().skip(1) {
            let s = p.start_on(&free);
            if s < start {
                (i, start) = (j, s);
            }
        }
        let end = parked[i].place(start, &mut free, on_segment);
        if !parked[i].advance(end) {
            parked.remove(i);
        }
        ready = parked_ready(&parked);
        parked_first += 1;
    }
}

/// The later of two times. Durations are finite and ≥ 0, so every time
/// here is, and a compare-and-select is exactly `f64::max` (and the
/// mirrored select exactly `f64::min`) without the NaN handling that
/// would put a blend on every step's critical path.
#[inline]
fn later(x: f64, y: f64) -> f64 {
    if x < y {
        y
    } else {
        x
    }
}

/// The earliest ready time of the `parked` blocks whose next segment is
/// on each pipe; +∞ where no parked block waits.
fn parked_ready(parked: &[Live<'_>]) -> PipeTimes {
    let mut ready = PipeTimes {
        mem: f64::INFINITY,
        comp: f64::INFINITY,
    };
    for p in parked {
        ready.set(p.next.pipe, ready.get(p.next.pipe).min(p.ready));
    }
    ready
}

/// The rest of block `b`'s chain once its partner is done: it still
/// waits for whatever the partner left on the pipes. Returns the wave's
/// completion time, the later pipe's free time (see [`active_pair`]).
fn run_alone(
    mut b: Live<'_>,
    mut free: PipeTimes,
    on_segment: &mut impl FnMut(usize, Pipe, f64, f64),
) -> f64 {
    loop {
        let end = b.place(b.start_on(&free), &mut free, on_segment);
        if !b.advance(end) {
            return later(free.mem, free.comp);
        }
    }
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

    /// The greedy rule itself, the reference for [`schedule_wave`]: each
    /// step scans every live block for the earliest start (ties: lowest
    /// index). Finished blocks leave `live`, which stays in block order.
    fn reference_scan(
        wave: &[&BlockSegments],
        on_segment: &mut impl FnMut(usize, Pipe, f64, f64),
    ) -> f64 {
        let mut live: Vec<Live<'_>> = wave
            .iter()
            .enumerate()
            .filter_map(|(i, b)| Live::start(i, b))
            .collect();
        let mut free = PipeTimes::default();
        let mut finish = 0.0f64;
        while let Some(first) = live.first() {
            let start_of = |b: &Live<'_>| b.ready.max(free.get(b.next.pipe));
            let (mut i, mut start) = (0, start_of(first));
            for (j, b) in live.iter().enumerate().skip(1) {
                let s = start_of(b);
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

    /// A wave's cost, its parked steps and its `(block, pipe, start, end)`
    /// placements, as raw bits.
    type Placements = (u64, u64, Vec<(usize, Pipe, u64, u64)>);

    /// What `schedule_wave` reports for `wave`, and what the reference
    /// scan reports for the same blocks (its parked steps counted from its
    /// placements).
    fn placements(wave: &[&BlockSegments]) -> [Placements; 2] {
        let mut fast = Vec::new();
        let (t_fast, parked) = schedule_wave(wave.iter().copied(), |b, p, s, e| {
            fast.push((b, p, s.to_bits(), e.to_bits()))
        });
        let mut reference = Vec::new();
        let t_reference = reference_scan(wave, &mut |b, p, s, e| {
            reference.push((b, p, s.to_bits(), e.to_bits()))
        });
        let reference_parked = parked_steps(wave, &reference);
        [
            (t_fast.to_bits(), parked, fast),
            (t_reference.to_bits(), reference_parked, reference),
        ]
    }

    /// `schedule_wave` observes the same `(block, pipe, start, end)` stream
    /// as the reference scan, bit for bit, on every wave of one and two
    /// blocks and on waves of 3–6 drawn from one list: chunks of one, two
    /// and three phases, single-chunk blocks, a zero-duration segment, a
    /// block without segments, and durations that are not exact binary
    /// fractions.
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
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for chunks in [1u64, 2, 9, 64] {
            let (load, comp) = (next() % 1000, next() % 1000);
            let (load, comp) = (load as f64 * 1.0e-9 / 3.0, comp as f64 * 1.0e-9 / 3.0);
            blocks.push(BlockSegments::periodic(
                &[seg(m, load), seg(c, comp), seg(m, load)],
                chunks,
            ));
        }
        for a in &blocks {
            let [fast, reference] = placements(&[a]);
            assert_eq!(fast, reference);
            for b in &blocks {
                let [fast, reference] = placements(&[a, b]);
                assert_eq!(fast, reference);
            }
        }
        for k in 3..=6 {
            for _ in 0..400 {
                let wave: Vec<&BlockSegments> = (0..k)
                    .map(|_| &blocks[(next() % blocks.len() as u64) as usize])
                    .collect();
                let [fast, reference] = placements(&wave);
                assert_eq!(fast, reference);
            }
        }
    }

    /// A block of `chunks` chunks of `phases` segments whose pipes are the
    /// low bits of `pipes` (set: compute) and whose durations are drawn
    /// from a few values, zero included, so that starts often tie.
    fn drawn_block(phases: usize, chunks: u64, pipes: u8, durs: [u32; 3]) -> BlockSegments {
        let chunk: Vec<Segment> = (0..phases)
            .map(|i| Segment {
                pipe: if pipes >> i & 1 == 1 {
                    Pipe::Comp
                } else {
                    Pipe::Mem
                },
                dur: durs[i] as f64 * 1.0e-8 / 3.0,
            })
            .collect();
        BlockSegments::periodic(&chunk, chunks)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random waves of 3–33 blocks: `schedule_wave` places exactly what
        /// the reference scan places, and counts its parked steps.
        #[test]
        fn random_waves_match_the_reference_scan(
            drawn in proptest::collection::vec(
                (0usize..4, 1u64..65, 0u8..8, (0u32..6, 0u32..6, 0u32..6)),
                3..34,
            ),
        ) {
            let blocks: Vec<BlockSegments> = drawn
                .iter()
                .map(|&(phases, chunks, pipes, (d0, d1, d2))| {
                    drawn_block(phases, chunks, pipes, [d0, d1, d2])
                })
                .collect();
            let wave: Vec<&BlockSegments> = blocks.iter().collect();
            let [fast, reference] = placements(&wave);
            proptest::prop_assert_eq!(fast, reference);
        }
    }

    /// A fixture wave's blocks: whitespace-separated `[N*]C:seg,…` tokens,
    /// each `N` (default 1) copies of a block of `C` chunks whose chunk is
    /// the listed segments, `m` (memory pipe) or `c` (compute pipe)
    /// followed by the duration in seconds. `C:` alone is a block without
    /// segments.
    fn parse_wave(tokens: &[&str]) -> Vec<BlockSegments> {
        let mut wave = Vec::new();
        for token in tokens {
            let (copies, block) = token.split_once('*').unwrap_or(("1", token));
            let (chunks, segs) = block.split_once(':').expect("C:segments");
            let chunk: Vec<Segment> = segs
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| Segment {
                    pipe: if s.starts_with('m') {
                        Pipe::Mem
                    } else {
                        Pipe::Comp
                    },
                    dur: s[1..].parse().expect("duration"),
                })
                .collect();
            let b = BlockSegments::periodic(&chunk, chunks.parse().expect("chunk count"));
            wave.extend(std::iter::repeat_n(b, copies.parse().expect("copies")));
        }
        wave
    }

    /// FNV-1a (64-bit) of a placement stream: per placement the block
    /// index as a `u64`, the pipe as one byte (0 memory, 1 compute), and
    /// the start and end bits, all little-endian.
    fn fnv64(placements: &[(usize, Pipe, u64, u64)]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(block, pipe, start, end) in placements {
            let bytes = (block as u64)
                .to_le_bytes()
                .into_iter()
                .chain([u8::from(pipe == Pipe::Comp)])
                .chain(start.to_le_bytes())
                .chain(end.to_le_bytes());
            for byte in bytes {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Steps of a placement stream at which a block other than the two
    /// lowest-index blocks with segments left started first.
    fn parked_steps(wave: &[&BlockSegments], placements: &[(usize, Pipe, u64, u64)]) -> u64 {
        let mut left: Vec<u64> = wave
            .iter()
            .map(|b| b.chunks * b.chunk().len() as u64)
            .collect();
        let mut parked = 0;
        for &(block, ..) in placements {
            parked += u64::from(left[..block].iter().filter(|&&l| l > 0).count() >= 2);
            left[block] -= 1;
        }
        parked
    }

    /// A fixture line: the wave's name and blocks, then `schedule_wave`'s
    /// cost bits, its parked steps, and the FNV-64 of its placements.
    fn render_wave(name_and_blocks: &[&str]) -> String {
        let blocks = parse_wave(&name_and_blocks[1..]);
        let wave: Vec<&BlockSegments> = blocks.iter().collect();
        let mut stream = Vec::new();
        let (cost, _) = schedule_wave(wave.iter().copied(), |b, p, s, e| {
            stream.push((b, p, s.to_bits(), e.to_bits()))
        });
        format!(
            "{} cost={:016x} parked={} fnv={:016x}",
            name_and_blocks.join(" "),
            cost.to_bits(),
            parked_steps(&wave, &stream),
            fnv64(&stream),
        )
    }

    /// Waves of 3–32 blocks against `tests/fixtures/wave_placements.txt`,
    /// generated with the linear-scan loop that [`reference_scan`] keeps:
    /// every placement's block, pipe, start and end bits, and the wave's
    /// cost.
    #[test]
    fn wave_placements_match_the_fixture() {
        let fixture = include_str!("../tests/fixtures/wave_placements.txt");
        let mut waves = 0;
        for line in fixture.lines().filter(|l| !l.starts_with('#')) {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let blocks = tokens.iter().take_while(|t| !t.contains('=')).count();
            assert_eq!(render_wave(&tokens[..blocks]), line);
            waves += 1;
        }
        assert!(waves >= 40, "{waves} fixture waves");
    }

    /// The steady-state schedule must reproduce the tracer's replay exactly
    /// — including `sm_finish`, wave counts, and every bit of the fp
    /// fold — across class mixes, SM counts (Titan X's 24 included), and
    /// occupancies: class boundaries at SM residue 0, zero-count classes
    /// at either end, and launches with fewer blocks than SMs.
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
        for n_sm in [1usize, 2, 3, 7, 16, 24] {
            let n = n_sm as u64;
            let cases: Vec<Vec<BlockClass>> = vec![
                vec![cls(1, 128)],
                vec![cls(97, 128)],
                vec![cls(3, 128), cls(1, 4096)],
                vec![cls(16, 64), cls(0, 32), cls(17, 256)],
                vec![cls(5, 64), cls(5, 128), cls(5, 256), cls(5, 512)],
                // Ten single-block classes. Widths 64–128 lower to one
                // block and 136 to another, so equal blocks merge and a
                // wave holds at most two runs; `sched_properties.rs`
                // covers waves of many runs.
                (0..10).map(|i| cls(1, 64 + 8 * i)).collect(),
                // Every boundary at residue 0.
                vec![cls(3 * n, 64), cls(n, 4096), cls(2 * n, 256)],
                // Zero-count classes first and last.
                vec![cls(0, 32), cls(2 * n + 5, 128), cls(7, 512), cls(0, 96)],
                // Fewer blocks than SMs (when there are several).
                vec![cls(n / 2, 128), cls(n.div_ceil(4), 4096)],
            ];
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
