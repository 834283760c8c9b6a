//! # microbench
//!
//! Micro-benchmarks that *measure* the model's timing parameters from
//! the simulated machine — the reproduction of the paper's Section 5.2.
//!
//! The paper cannot read `L`, `τ_sync`, `T_sync`, or `Citer` off a
//! datasheet; it measures them with micro-kernels "implemented such that
//! the execution time is dominated by the operation of interest". This
//! crate does the same against `gpu-sim`:
//!
//! * [`measure_memory_params`] — a streaming-copy workload at two sizes;
//!   the slope of time vs. words is `L` (reported in s/GB like Table 3).
//!   A barrier-ladder pair isolates `τ_sync`; a train of empty kernels
//!   isolates `T_sync`.
//! * [`measure_citer`] — per (stencil, device): strip the
//!   global-memory transfers out of real tiled plans ("we remove all
//!   global⇔shared memory data transfers", §5.2), run the compute-only
//!   kernels over `samples` randomly drawn problem/tile sizes, and
//!   average `time · n_V / iterations` — Table 4.
//!
//! Measuring (rather than copying the machine's internal constants)
//! keeps the model honest: any disagreement between model and machine is
//! then a property of the *model's structure*, exactly as on hardware.

use gpu_sim::{simulate, DeviceConfig, SimWorkload};
use hhc_tiling::plan::{BlockClass, TilingPlan};
use hhc_tiling::{LaunchConfig, TileSizes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use stencil_core::{ProblemSize, StencilDescriptor};
use time_model::MeasuredParams;

/// The machine-independent timing parameters of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryParams {
    /// Global-memory time per 4-byte word (s).
    pub l_word: f64,
    /// The same in the paper's Table 3 unit (s/GB).
    pub l_s_per_gb: f64,
    /// Barrier cost `τ_sync` (s).
    pub tau_sync: f64,
    /// Kernel launch cost `T_sync` (s).
    pub t_sync: f64,
}

/// Measure `L`, `τ_sync`, and `T_sync` on a device (Table 3).
pub fn measure_memory_params(device: &DeviceConfig) -> MemoryParams {
    let l_word = measure_l_word(device);
    let tau_sync = measure_tau_sync(device);
    let t_sync = measure_t_sync(device);
    MemoryParams {
        l_word,
        l_s_per_gb: l_word * 1e9 / 4.0,
        tau_sync,
        t_sync,
    }
}

/// `L`: streaming-copy kernels at two transfer sizes; the slope of time
/// against *device-wide* words moved cancels every fixed overhead.
///
/// All SMs stream concurrently (one block each), so the measured value
/// is the device-level bandwidth — the number the paper's Table 3 lists
/// and its model plugs in per tile.
fn measure_l_word(device: &DeviceConfig) -> f64 {
    let time_for = |words: u64| -> f64 {
        // One block per SM, many sub-tiles, loads only, fully coalesced.
        let wl = SimWorkload::uniform(1, device.n_sm as u64, 64, words, 0, vec![], 128, 32);
        simulate(device, &wl)
            .expect("copy kernel launches")
            .total_time
    };
    let (w1, w2) = (1u64 << 12, 1u64 << 16);
    let (t1, t2) = (time_for(w1), time_for(w2));
    // Slope per block-word; all n_SM SMs moved that many words in
    // parallel, so the device-level cost per word is the share.
    (t2 - t1) / (64.0 * (w2 - w1) as f64) / device.n_sm as f64
}

/// `τ_sync`: two compute ladders with identical total iterations but a
/// 2:1 ratio of barrier counts; the time difference is pure barriers.
fn measure_tau_sync(device: &DeviceConfig) -> f64 {
    let rows = 4096usize;
    let threads = 128u64;
    let time_for = |rows_v: Vec<[u64; 3]>| -> f64 {
        let wl = SimWorkload::uniform(1, 1, 1, 0, 0, rows_v, threads as usize, 32);
        simulate(device, &wl)
            .expect("sync ladder launches")
            .total_time
    };
    // A: 2R rows of one thread-round; B: R rows of two thread-rounds.
    let a = time_for(vec![[threads, 1, 1]; rows]);
    let b = time_for(vec![[2 * threads, 1, 1]; rows / 2]);
    (a - b) / (rows as f64 / 2.0)
}

/// `T_sync`: a train of empty kernel launches.
fn measure_t_sync(device: &DeviceConfig) -> f64 {
    let n = 256usize;
    let wl = SimWorkload::uniform(n, 0, 0, 0, 0, vec![], 128, 32);
    simulate(device, &wl)
        .expect("empty kernels launch")
        .total_time
        / n as f64
}

/// Measure `Citer` for one stencil on one device (one cell of Table 4).
///
/// Draws `samples` random (problem size, tile size) instances — the
/// paper uses 70 — builds the real HHC plan, strips all global-memory
/// transfers, simulates the compute-only kernel of one representative
/// interior block, and averages `time · n_V / iterations`.
///
/// The RNG stream is `seed ^ stencil.rng_stream()`: for the paper
/// stencils `rng_stream()` is their preset-table row, so seeded
/// measurements keep the sequences Table 3/4 values were measured with
/// (pinned by tests); zoo descriptors get their own content-derived
/// streams.
pub fn measure_citer(
    device: &DeviceConfig,
    stencil: &StencilDescriptor,
    samples: usize,
    seed: u64,
) -> f64 {
    let spec = stencil.spec();
    let mut rng = StdRng::seed_from_u64(seed ^ stencil.rng_stream());
    let mut acc = 0.0f64;
    let mut n = 0usize;
    // Larger-radius descriptors can draw tile shapes their (steeper)
    // hexagonal plans reject; cap the attempts so a degenerate
    // descriptor cannot spin forever. Radius-1 draws virtually never
    // reject, so for the paper presets the loop runs exactly as the
    // historical `while n < samples` did.
    let mut attempts = samples.saturating_mul(200);
    while n < samples && attempts > 0 {
        attempts -= 1;
        let (size, tiles) = random_instance(&mut rng, stencil);
        // An aligned launch (threads shaped to the tile, a multiple of
        // the vector width overall) so the measurement reflects the
        // steady per-iteration cost rather than lane under-fill — the
        // paper's micro-kernels are tuned the same way.
        let launch = LaunchConfig::microbench(spec.dim, &tiles);
        let Ok(plan) = TilingPlan::build(&spec, &size, tiles, launch) else {
            continue;
        };
        let Some(block) = representative_block(&plan) else {
            continue;
        };
        let iters: u64 = block.iterations_per_block();
        if iters == 0 {
            continue;
        }
        let mut wl = SimWorkload::from_plan(&plan);
        wl.kernels = vec![hhc_tiling::plan::WavefrontPlan {
            classes: std::sync::Arc::new(vec![block]),
        }];
        wl.mtile_words = wl.mtile_words.min(device.shared_per_block_words);
        let Ok(report) = simulate(device, &wl) else {
            continue;
        };
        let compute = report.total_time - report.launch_overhead;
        acc += compute * device.n_v as f64 / iters as f64;
        n += 1;
    }
    // When every sample landed (the invariable radius-1 case) this is
    // bit-identical to the historical `acc / samples`.
    acc / n.max(1) as f64
}

/// One space-tile axis of the `Citer` sampling distribution: either a
/// scaled random draw (`scale * gen_range(lo..=hi)`) or a fixed extent
/// (no RNG draw — fixed axes must not perturb the draw sequence).
enum CiterAxis {
    Draw { lo: usize, hi: usize, scale: usize },
    Fixed(usize),
}

/// The per-rank sampling distribution of the `Citer` benchmark, indexed
/// by `rank - 1`. The draw order is: `t_T` (in the caller), problem
/// extent, time steps, then each space-tile axis in order — identical to
/// the historical per-dimension arms, so seeded measurements are
/// bit-stable.
struct CiterSpace {
    /// Cubic problem extent range.
    s: (usize, usize),
    /// Time-step range.
    t: (usize, usize),
    /// Cap on the drawn `t_T` (hexagon cross-sections shallow enough
    /// that the unrolled body does not spill; the paper's compute-only
    /// micro-kernels are similarly well-behaved).
    t_t_cap: usize,
    /// Space-tile axes `[t_S1, …]`; the innermost draw is scaled to a
    /// multiple of the vector width so the aligned launch fills the
    /// lanes exactly.
    axes: &'static [CiterAxis],
}

static CITER_SPACES: [CiterSpace; 3] = [
    CiterSpace {
        s: (512, 4096),
        t: (16, 64),
        t_t_cap: usize::MAX,
        axes: &[CiterAxis::Draw {
            lo: 256,
            hi: 1024,
            scale: 1,
        }],
    },
    CiterSpace {
        s: (512, 1024),
        t: (8, 32),
        t_t_cap: 8,
        axes: &[
            CiterAxis::Draw {
                lo: 2,
                hi: 16,
                scale: 1,
            },
            CiterAxis::Draw {
                lo: 1,
                hi: 4,
                scale: 128,
            },
        ],
    },
    CiterSpace {
        s: (96, 192),
        t: (4, 16),
        t_t_cap: 8,
        axes: &[
            CiterAxis::Draw {
                lo: 2,
                hi: 8,
                scale: 1,
            },
            CiterAxis::Draw {
                lo: 2,
                hi: 4,
                scale: 2,
            },
            CiterAxis::Fixed(32),
        ],
    },
];

/// Draw a random valid problem/tile instance for the `Citer` benchmark.
///
/// The draw table is indexed by the descriptor's rank; its radius only
/// *post-processes* the drawn coordinates (widening space tiles so the
/// steeper hexagon slopes still carve non-degenerate rows), never the
/// draw sequence itself — radius-1 descriptors therefore reproduce the
/// historical per-dimension sequences bit-for-bit.
fn random_instance(rng: &mut StdRng, stencil: &StencilDescriptor) -> (ProblemSize, TileSizes) {
    let dim = stencil.dim;
    let t_t = 2 * rng.gen_range(1..=8usize);
    let cfg = &CITER_SPACES[dim.rank() - 1];
    let s = rng.gen_range(cfg.s.0..=cfg.s.1);
    let t = rng.gen_range(cfg.t.0..=cfg.t.1);
    let mut coords = Vec::with_capacity(dim.rank() + 1);
    coords.push(t_t.min(cfg.t_t_cap));
    for axis in cfg.axes {
        coords.push(match *axis {
            CiterAxis::Draw { lo, hi, scale } => scale * rng.gen_range(lo..=hi),
            CiterAxis::Fixed(v) => v,
        });
    }
    let r = stencil.radius.max(1) as usize;
    if r > 1 {
        // Steeper slopes eat `radius` cells per hexagon row per time
        // step: scale the drawn tile up so interior rows stay positive.
        coords[0] = coords[0].min(8);
        for c in coords.iter_mut().skip(1) {
            *c = (*c).max(4 * r) * r;
        }
    }
    let size = ProblemSize::from_extents(&vec![s; dim.rank()], t).expect("rank is 1-3");
    let tiles = TileSizes::from_coords(dim, &coords).expect("one coordinate per axis");
    (size, tiles)
}

/// A steady-state interior block of the plan, with its global transfers
/// stripped (count normalized to 1).
fn representative_block(plan: &TilingPlan) -> Option<BlockClass> {
    // Middle wavefront, most-populous class = interior geometry.
    let wf = plan.wavefronts.get(plan.wavefronts.len() / 2)?;
    let class = wf.classes.iter().max_by_key(|c| c.count)?;
    // Only the interior (steady-state) sub-tile classes along each inner
    // axis: boundary sub-tiles execute partial widths in full thread
    // rounds, which would bias the per-iteration estimate upward — the
    // paper's compute-only micro-kernels likewise measure the steady
    // state.
    let axis2 = BlockClass::interior_axis(&class.axis2)?.clone();
    let axis3 = BlockClass::interior_axis(&class.axis3)?.clone();
    Some(BlockClass {
        count: 1,
        s1_widths: class.s1_widths.clone(),
        mi_rows: vec![0; class.s1_widths.len()],
        mo_rows: vec![0; class.s1_widths.len()],
        axis2: vec![axis2],
        axis3: vec![axis3],
    })
}

/// Measure everything the model needs for one (device, stencil) pair.
pub fn measured_params(device: &DeviceConfig, stencil: &StencilDescriptor) -> MeasuredParams {
    measured_params_sampled(device, stencil, 70, 0x5EED)
}

/// As [`measured_params`] with explicit sample count and seed.
pub fn measured_params_sampled(
    device: &DeviceConfig,
    stencil: &StencilDescriptor,
    samples: usize,
    seed: u64,
) -> MeasuredParams {
    let mem = measure_memory_params(device);
    MeasuredParams {
        l_word: mem.l_word,
        tau_sync: mem.tau_sync,
        t_sync: mem.t_sync,
        citer: measure_citer(device, stencil, samples, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l_recovers_device_bandwidth() {
        // The streaming benchmark must recover the machine's device-level
        // word cost exactly (the slope construction cancels latency and
        // barriers; the per-SM pipe cost is n_SM× the device share).
        let d = DeviceConfig::gtx980();
        let l = measure_l_word(&d);
        let device_level = d.word_time / d.n_sm as f64;
        assert!(
            (l - device_level).abs() / device_level < 0.01,
            "measured {l:e} vs device-level {device_level:e}"
        );
    }

    #[test]
    fn table3_scale_and_ordering() {
        let g = measure_memory_params(&DeviceConfig::gtx980());
        let t = measure_memory_params(&DeviceConfig::titan_x());
        // Paper Table 3: L = 7.36e-3 vs 5.42e-3 s/GB; Titan X is faster.
        assert!(
            (g.l_s_per_gb - 7.36e-3).abs() / 7.36e-3 < 0.05,
            "{}",
            g.l_s_per_gb
        );
        assert!(t.l_s_per_gb < g.l_s_per_gb);
        // T_sync ≈ 9.2e-7 s.
        assert!((g.t_sync - 9.24e-7).abs() / 9.24e-7 < 0.05, "{}", g.t_sync);
    }

    #[test]
    fn tau_sync_recovered() {
        let d = DeviceConfig::gtx980();
        let tau = measure_tau_sync(&d);
        assert!(
            (tau - d.tau_sync).abs() / d.tau_sync < 0.05,
            "measured {tau:e} vs machine {:e}",
            d.tau_sync
        );
    }

    #[test]
    fn citer_scale_and_stencil_ordering() {
        let d = DeviceConfig::gtx980();
        let j = measure_citer(&d, &StencilDescriptor::jacobi2d(), 12, 1);
        let g = measure_citer(&d, &StencilDescriptor::gradient2d(), 12, 1);
        let h3 = measure_citer(&d, &StencilDescriptor::heat3d(), 8, 1);
        // Table 4 orderings: Gradient ≈ 2× Jacobi; 3D ≫ 2D.
        assert!(g > 1.5 * j, "gradient {g:e} vs jacobi {j:e}");
        assert!(h3 > 2.0 * j, "heat3d {h3:e} vs jacobi {j:e}");
        // Scale: tens of nanoseconds (paper: 3.39e-8).
        assert!((1e-8..3e-7).contains(&j), "j = {j:e}");
    }

    #[test]
    fn tau_recovery_tracks_the_machine() {
        // Change the machine's barrier cost: the micro-benchmark follows.
        let mut d = DeviceConfig::gtx980();
        d.tau_sync *= 3.0;
        let tau = measure_memory_params(&d).tau_sync;
        assert!(
            (tau - d.tau_sync).abs() / d.tau_sync < 0.05,
            "{tau:e} vs {:e}",
            d.tau_sync
        );
    }

    #[test]
    fn tsync_recovery_tracks_the_machine() {
        let mut d = DeviceConfig::titan_x();
        d.t_launch = 2.5e-6;
        let t = measure_memory_params(&d).t_sync;
        assert!((t - d.t_launch).abs() / d.t_launch < 0.02, "{t:e}");
    }

    #[test]
    fn l_recovery_tracks_bandwidth_changes() {
        let mut d = DeviceConfig::gtx980();
        d.word_time *= 2.0;
        let m = measure_memory_params(&d);
        let expect = d.word_time / d.n_sm as f64;
        assert!((m.l_word - expect).abs() / expect < 0.01);
    }

    #[test]
    fn citer_deterministic_for_seed() {
        let d = DeviceConfig::gtx980();
        let a = measure_citer(&d, &StencilDescriptor::heat2d(), 6, 7);
        let b = measure_citer(&d, &StencilDescriptor::heat2d(), 6, 7);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    /// The paper kernels' draws must not move: the drawn (problem,
    /// tile) sequence is a pure function of `seed ^ rng_stream()` and
    /// the rank draw table, exactly as the historical per-stencil
    /// `random_instance` arms produced it. The streams themselves are
    /// pinned by `stencil-core`'s preset fixture.
    #[test]
    fn preset_draw_sequence_matches_legacy_streams() {
        for d in StencilDescriptor::named()
            .into_iter()
            .filter(|d| d.radius == 1)
        {
            // Replay the legacy draw loop by hand for this stream…
            let mut legacy = StdRng::seed_from_u64(7 ^ d.rng_stream());
            let dim = d.dim;
            let cfg = &CITER_SPACES[dim.rank() - 1];
            let mut expect = Vec::new();
            for _ in 0..4 {
                let t_t = 2 * legacy.gen_range(1..=8usize);
                let s = legacy.gen_range(cfg.s.0..=cfg.s.1);
                let t = legacy.gen_range(cfg.t.0..=cfg.t.1);
                let mut coords = vec![t_t.min(cfg.t_t_cap)];
                for axis in cfg.axes {
                    coords.push(match *axis {
                        CiterAxis::Draw { lo, hi, scale } => scale * legacy.gen_range(lo..=hi),
                        CiterAxis::Fixed(v) => v,
                    });
                }
                expect.push((s, t, coords));
            }
            // …and require the descriptor path to reproduce it.
            let mut rng = StdRng::seed_from_u64(7 ^ d.rng_stream());
            for (s, t, coords) in expect {
                let (size, tiles) = random_instance(&mut rng, &d);
                assert_eq!(
                    size,
                    ProblemSize::from_extents(&vec![s; dim.rank()], t).unwrap()
                );
                assert_eq!(tiles, TileSizes::from_coords(dim, &coords).unwrap(), "{d}");
            }
        }
    }

    /// Zoo descriptors measure without exhausting the attempt cap and
    /// use a stream disjoint from every preset.
    #[test]
    fn zoo_descriptors_measure() {
        let d = DeviceConfig::gtx980();
        for z in StencilDescriptor::zoo() {
            assert!(z.rng_stream() > u8::MAX as u64, "{}", z.name);
            let c = measure_citer(&d, &z, 4, 3);
            assert!(c.is_finite() && c > 0.0, "{} citer = {c:e}", z.name);
        }
    }
}
