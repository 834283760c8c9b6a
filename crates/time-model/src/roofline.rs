//! A roofline self-model for the CPU tiled executor — eating our own
//! dog food.
//!
//! The paper's thesis is that a simple analytical model predicts stencil
//! execution time well enough to act on. This module applies the same
//! discipline to *our own executor* (in the spirit of Ernst et al.,
//! *Analytical Performance Estimation during Code Generation on Modern
//! GPUs*): predict achievable points/sec from two self-calibrated
//! ceilings and gate CI on the measured throughput staying within a
//! tolerance band of the prediction, so a silent executor regression
//! (or a model gone stale) fails loudly.
//!
//! ```text
//! pps_pred = min( compute ceiling,  stream bandwidth / bytes-per-point )
//! ```
//!
//! * **Compute ceiling** — the measured in-cache throughput of the very
//!   [`stencil_core::RowKernel`] the executor sweeps rows with (per stencil): how fast
//!   the arithmetic can go when memory is free.
//! * **Memory ceiling** — measured stream bandwidth over a
//!   larger-than-LLC buffer, divided by the executor's streaming lower
//!   bound of 8 bytes/point (each output point reads its row of the
//!   previous plane once — neighbor reads hit cache — and writes once).
//!
//! Both ceilings are optimistic by construction (like the paper's
//! `T_alg`), so `measured/predicted ≤ 1` up to timing noise; tiling
//! overhead (halo writes, wavefront sweeps, ring bookkeeping) sets the
//! practically reachable floor. [`RATIO_BAND`] encodes both.

use serde::{Deserialize, Serialize};
use std::time::Instant;
use stencil_core::StencilSpec;

/// Tolerance band for `measured_pps / predicted_pps`, the CI gate.
///
/// Lower edge: half the smallest ratio the executor measured on the
/// reduced and smoke benchmarks (Heat3D at 0.32, 2-vCPU x86-64 VM with
/// AVX2), rounded down to a multiple of 0.05 — below that something
/// real broke (a kernel fell off its fast path, a staging copy went
/// quadratic; either costs 5–10×, far below the edge even with CI
/// timing noise on top). Upper edge: measured throughput
/// may not exceed the optimistic ceiling by more than timing noise —
/// above that the *model* is broken (mis-measured ceilings, wrong byte
/// count).
pub const RATIO_BAND: (f64, f64) = (0.15, 1.10);

/// Streaming traffic lower bound per output point: one 4-byte read of
/// the previous plane plus one 4-byte write of the next. Neighbor reads
/// within the row window are cache hits and not charged — optimistic,
/// like every ceiling here.
pub const BYTES_PER_POINT: f64 = 8.0;

/// One measured ceiling pair and the prediction they combine into.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RooflinePrediction {
    /// Predicted achievable throughput (points/sec): the roofline min.
    pub pps: f64,
    /// In-cache row-kernel throughput (points/sec).
    pub compute_pps: f64,
    /// Stream-bandwidth-limited throughput (points/sec).
    pub memory_pps: f64,
    /// Which ceiling binds (`"compute"` or `"memory"`).
    pub bound: &'static str,
}

/// Self-calibration of the machine's two ceilings.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RooflineCalibration {
    /// Measured stream bandwidth (bytes/sec, read + write counted).
    pub stream_bw_bytes_per_sec: f64,
}

/// Measure stream bandwidth with a best-of-3 large-buffer copy sweep.
///
/// The buffers (32 MiB each) exceed any L2 this code will meet and most
/// LLC slices, so the timing is dominated by memory streams; `read +
/// write` bytes are both counted, matching how [`BYTES_PER_POINT`]
/// charges the executor.
pub fn measure_stream_bandwidth() -> RooflineCalibration {
    const WORDS: usize = 8 * 1024 * 1024; // 32 MiB per buffer
    let src = vec![1.0f32; WORDS];
    let mut dst = vec![0.0f32; WORDS];
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        dst.copy_from_slice(&src);
        let dt = t0.elapsed().as_secs_f64();
        // Defeat dead-copy elimination.
        assert_eq!(dst[WORDS / 2], 1.0);
        best = best.min(dt);
    }
    RooflineCalibration {
        stream_bw_bytes_per_sec: (2 * WORDS * std::mem::size_of::<f32>()) as f64 / best.max(1e-12),
    }
}

/// Measure the in-cache compute ceiling of `spec`'s row kernel
/// (points/sec): repeated [`stencil_core::RowKernel::apply_span`] sweeps over a
/// buffer that fits in L1, timed over enough repetitions to swamp timer
/// granularity. This is the *actual* executor kernel — same dispatch,
/// same SIMD path — so the ceiling tracks the code, not a proxy.
pub fn measure_compute_ceiling(spec: &StencilSpec) -> f64 {
    // A 3D-shaped dummy extent keeps every flat tap offset small enough
    // that an interior span exists inside an L1-resident buffer.
    const N: usize = 32;
    let sizes = match spec.dim.rank() {
        1 => [N * N, 1, 1],
        2 => [N, N, 1],
        _ => [N, N, N],
    };
    let cells = sizes[0] * sizes[1] * sizes[2];
    let kernel = spec.row_kernel(sizes);
    let src: Vec<f32> = (0..cells).map(|i| (i % 97) as f32 * 0.01).collect();
    let mut dst = vec![0.0f32; cells];
    // Sweep one interior row span per repetition; spans sit away from
    // the buffer ends by the flat reach of the taps,
    // `Σ_d max(|off_min_d|, off_max_d) · stride_d`, so every tap stays in
    // range (never less than one unit step per axis, the radius-1 reach).
    let strides = [sizes[1] * sizes[2], sizes[2], 1];
    let (off_min, off_max) = (kernel.off_min(), kernel.off_max());
    let reach: usize = (0..3)
        .map(|d| off_min[d].unsigned_abs().max(off_max[d].unsigned_abs()) as usize * strides[d])
        .sum();
    let margin = reach.max(strides.iter().sum());
    let (lo, hi) = (margin, cells - margin - 1);
    assert!(lo < hi, "calibration buffer too small for stencil reach");
    let span = (hi - lo + 1) as u64;
    // Warm up (page in, settle turbo) and size the repetition count for
    // ~50 ms of measurement — enough to swamp timer granularity in
    // release builds without making debug-mode tests crawl.
    let w0 = Instant::now();
    kernel.apply_span(&src, &mut dst, lo, hi);
    let once = w0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.05 / once) as u64).clamp(10, 100_000);
    let t0 = Instant::now();
    for _ in 0..reps {
        kernel.apply_span(&src, &mut dst, lo, hi);
    }
    let dt = t0.elapsed().as_secs_f64();
    assert!(dst[lo].is_finite());
    (reps * span) as f64 / dt.max(1e-12)
}

/// Combine the two ceilings into the roofline prediction for one
/// stencil's executor run.
pub fn predict(cal: &RooflineCalibration, compute_pps: f64) -> RooflinePrediction {
    let memory_pps = cal.stream_bw_bytes_per_sec / BYTES_PER_POINT;
    let (pps, bound) = if compute_pps <= memory_pps {
        (compute_pps, "compute")
    } else {
        (memory_pps, "memory")
    };
    RooflinePrediction {
        pps,
        compute_pps,
        memory_pps,
        bound,
    }
}

/// The effective tolerance band: [`RATIO_BAND`] unless the
/// `HHC_ROOFLINE_BAND` environment variable overrides it with a
/// `"lo,hi"` pair. The override exists for CI fault injection — forcing
/// the gate out of band exercises the failure path (nonzero exit,
/// flight-recorder dump) without breaking the executor.
pub fn ratio_band() -> (f64, f64) {
    let parsed = std::env::var("HHC_ROOFLINE_BAND").ok().and_then(|s| {
        let (lo, hi) = s.split_once(',')?;
        let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
        (lo <= hi).then_some((lo, hi))
    });
    parsed.unwrap_or(RATIO_BAND)
}

/// Whether a measured/predicted ratio sits inside [`ratio_band`].
pub fn within_band(ratio: f64) -> bool {
    let (lo, hi) = ratio_band();
    ratio.is_finite() && ratio >= lo && ratio <= hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::StencilDescriptor;

    #[test]
    fn bandwidth_and_ceilings_are_positive() {
        let cal = measure_stream_bandwidth();
        assert!(cal.stream_bw_bytes_per_sec > 1e8, "{cal:?}"); // > 100 MB/s
        let c = measure_compute_ceiling(&StencilDescriptor::jacobi2d().spec());
        assert!(c > 1e6, "compute ceiling {c}"); // > 1 Mpts/s
        let p = predict(&cal, c);
        assert!(p.pps > 0.0 && p.pps <= p.compute_pps && p.pps <= p.memory_pps);
        assert!(["compute", "memory"].contains(&p.bound));
    }

    #[test]
    fn prediction_takes_the_min_ceiling() {
        let cal = RooflineCalibration {
            stream_bw_bytes_per_sec: 8e9, // → 1e9 pts/s memory ceiling
        };
        let c = predict(&cal, 5e8);
        assert_eq!(c.bound, "compute");
        assert_eq!(c.pps, 5e8);
        let m = predict(&cal, 5e9);
        assert_eq!(m.bound, "memory");
        assert_eq!(m.pps, 1e9);
    }

    #[test]
    fn band_accepts_reasonable_and_rejects_broken() {
        assert!(within_band(0.5));
        assert!(within_band(1.0));
        assert!(!within_band(0.01));
        assert!(!within_band(2.0));
        assert!(!within_band(f64::NAN));
    }

    #[test]
    fn env_override_parses_or_falls_back() {
        // Parse-only checks (no env mutation: tests run in parallel and
        // `set_var` is process-global). The default band applies when
        // the variable is absent.
        assert_eq!(ratio_band(), RATIO_BAND);
        let parse = |s: &str| -> Option<(f64, f64)> {
            let (lo, hi) = s.split_once(',')?;
            let (lo, hi): (f64, f64) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
            (lo <= hi).then_some((lo, hi))
        };
        assert_eq!(parse("0.5, 0.9"), Some((0.5, 0.9)));
        assert_eq!(parse("2.0,1.0"), None, "inverted band rejected");
        assert_eq!(parse("nope"), None);
    }

    #[test]
    fn wide_stencils_measure_in_range() {
        // Radius 2 reaches 2·32 + 2 flat cells on the 32×32 calibration
        // buffer, radius 3 (3D) reaches 3·1024 + 3·32 + 3.
        let lap4 = StencilDescriptor::lap4_2d().spec();
        assert!(measure_compute_ceiling(&lap4) > 1e6);
        let mut offsets = vec![[0i64; 3]];
        for d in 0..3 {
            for r in [-3i64, -1, 2, 3] {
                let mut o = [0i64; 3];
                o[d] = r;
                offsets.push(o);
            }
        }
        let wide = StencilDescriptor::new(
            "wide3d_r3",
            stencil_core::StencilDim::D3,
            3,
            stencil_core::Footprint::Custom(offsets),
            vec![0.1; 13],
            0.0,
            0,
        )
        .expect("valid radius-3 descriptor");
        let spec = wide.spec();
        assert_eq!(spec.order(), 3);
        assert!(measure_compute_ceiling(&spec) > 1e6);
    }

    #[test]
    fn ceilings_exist_for_every_benchmark_stencil() {
        for stencil in StencilDescriptor::named() {
            let c = measure_compute_ceiling(&stencil.spec());
            assert!(c > 1e6, "{} ceiling {c}", stencil.name);
        }
    }
}
