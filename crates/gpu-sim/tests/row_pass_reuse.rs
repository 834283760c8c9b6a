//! Row passes shared across a tile's launches.
//!
//! A launch's row pass (thread rounds and unroll depth per block class)
//! depends on its thread shape only up to the tile's widest extent on
//! each axis: `⌈w/n⌉ = 1` for every `0 < w ≤ n`. A tile sweep therefore
//! computes one row pass per clamped shape and reuses it for every later
//! launch of that shape. The reports must stay bit-equal to per-launch
//! simulation, and the reuse is counted in `sim.row_passes_shared`.

use gpu_sim::{simulate, simulate_launches, DeviceConfig, SimReport, SimWorkload};
use hhc_tiling::{LaunchConfig, PlanGeometry, TileSizes, TilingPlan};
use std::sync::{Arc, Mutex, MutexGuard};
use stencil_core::{ProblemSize, StencilDescriptor};

/// The obs recorder is process-global; the tests here serialize on it.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn record<T>(f: impl FnOnce() -> T) -> (T, obs::Snapshot) {
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Info));
    obs::install(rec.clone());
    let out = f();
    obs::uninstall();
    (out, rec.snapshot())
}

/// Every field of a report as raw bits.
fn bits(r: &SimReport) -> Vec<u64> {
    let o = &r.occupancy;
    vec![
        r.total_time.to_bits(),
        r.kernel_launches as u64,
        o.k as u64,
        o.limit as u64,
        u64::from(o.regs_per_thread),
        r.mem_busy.to_bits(),
        r.comp_busy.to_bits(),
        r.launch_overhead.to_bits(),
        r.spill_factor.to_bits(),
        r.divergence_factor.to_bits(),
    ]
}

/// Sweep `tiles` over the stencil's ten candidate launches on both paper
/// devices; every report must equal per-launch simulation bit for bit.
/// Returns the row passes shared per sweep.
fn sweep_shares(stencil: StencilDescriptor, size: ProblemSize, tiles: TileSizes) -> u64 {
    let _g = obs_lock();
    let spec = stencil.spec();
    let geometry = PlanGeometry::build(&spec, &size, tiles).expect("tile lowers");
    let launches = LaunchConfig::candidates(spec.dim);
    let mut shared = Vec::new();
    for device in [DeviceConfig::gtx980(), DeviceConfig::titan_x()] {
        let (swept, snap) = record(|| simulate_launches(&device, &geometry, &launches));
        for (report, &launch) in swept.iter().zip(&launches) {
            let plan = TilingPlan::build(&spec, &size, tiles, launch).expect("candidate builds");
            let alone = simulate(&device, &SimWorkload::from_plan(&plan)).ok();
            assert_eq!(
                report.as_ref().map(bits),
                alone.as_ref().map(bits),
                "{launch:?} on {}",
                device.name
            );
        }
        // A lone simulation computes its own row pass.
        let plan = TilingPlan::build(&spec, &size, tiles, launches[1]).expect("candidate builds");
        let (_, lone) = record(|| simulate(&device, &SimWorkload::from_plan(&plan)));
        assert_eq!(lone.counter("sim.row_passes_shared"), 0);
        shared.push(snap.counter("sim.row_passes_shared"));
    }
    // The row passes are launch-shape arithmetic: the device changes none.
    assert_eq!(shared[0], shared[1]);
    shared[0]
}

/// A 2D tile whose sub-tiles are at most 64 wide: every candidate launch
/// has one thread along `s1`, so the nine launches of 64 to 1024 threads
/// along `s2` all clamp to `(1, 64)` and share the first one's row pass;
/// the 32-thread launch has its own.
#[test]
fn launches_wider_than_the_widest_sub_tile_share_one_row_pass() {
    let shared = sweep_shares(
        StencilDescriptor::heat2d(),
        ProblemSize::new_2d(512, 512, 32),
        TileSizes::new_2d(8, 16, 64),
    );
    assert_eq!(shared, 8);
}

/// A 3D tile of 4 × 32 sub-tiles: the ten candidates clamp to three
/// shapes, `(1, 1, 32)`, `(1, 2, 32)` and `(1, 4, 32)`, so seven launches
/// reuse a row pass.
#[test]
fn three_dimensional_launches_clamp_on_both_inner_axes() {
    let shared = sweep_shares(
        StencilDescriptor::heat3d(),
        ProblemSize::new_3d(48, 40, 64, 10),
        TileSizes::new_3d(4, 4, 4, 32),
    );
    assert_eq!(shared, 7);
}
