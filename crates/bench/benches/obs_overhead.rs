//! Telemetry overhead guard: the obs layer must be free when disabled.
//!
//! Two comparisons back the claim in `crates/obs`'s crate docs:
//!
//! * the executor hot path (`run_tiled_with`, the workspace's most
//!   instrumented inner loop) with **no recorder installed** vs with a
//!   quiet `ShardedRecorder` — the disabled run must sit within noise of
//!   the pre-telemetry baseline, because every call site guards on one
//!   relaxed atomic load;
//! * the raw disabled call-site cost, measured directly (1000 counter
//!   calls with no recorder — nanoseconds per call, not microseconds).
//!
//! Run with `cargo bench -p hhc-bench --bench obs_overhead` and compare
//! the first two numbers; Criterion's change detection flags a
//! regression when the disabled path drifts.

use criterion::{criterion_group, criterion_main, Criterion};
use hhc_tiling::{run_tiled_with, ExecMode, ScratchPool, TileSizes};
use std::hint::black_box;
use std::sync::Arc;
use stencil_core::{init, ProblemSize, StencilDescriptor};

fn bench_exec_with_and_without_telemetry(c: &mut Criterion) {
    let spec = StencilDescriptor::jacobi2d().spec();
    let size = ProblemSize::new_2d(256, 256, 32);
    let tiles = TileSizes::new_2d(8, 32, 128);
    let grid = init::random(size.space_extents(), 0x42);

    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);

    // Disabled: the default process state — every obs call site is one
    // relaxed atomic load. This must match the pre-telemetry executor.
    obs::uninstall();
    g.bench_function("exec_fast_telemetry_disabled", |b| {
        b.iter(|| {
            let pool = ScratchPool::new();
            let (out, _) =
                run_tiled_with(&spec, &size, tiles, &grid, ExecMode::Fast, &pool).unwrap();
            black_box(out.len())
        })
    });

    // Enabled: a quiet recorder (counters/histograms recorded, events
    // gated off) — the driver's `--log-level quiet` configuration.
    obs::install(Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet)));
    g.bench_function("exec_fast_telemetry_recording", |b| {
        b.iter(|| {
            let pool = ScratchPool::new();
            let (out, _) =
                run_tiled_with(&spec, &size, tiles, &grid, ExecMode::Fast, &pool).unwrap();
            black_box(out.len())
        })
    });
    obs::uninstall();
    g.finish();
}

fn bench_disabled_callsite(c: &mut Criterion) {
    obs::uninstall();
    let mut g = c.benchmark_group("obs_callsite");
    // 1000 disabled counter updates per iteration: the per-call cost is
    // the reported time / 1000 (expected: ~1 ns, the atomic load).
    g.bench_function("disabled_counter_x1000", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                obs::counter("bench.noop", black_box(i) & 1);
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_exec_with_and_without_telemetry,
    bench_disabled_callsite
);
criterion_main!(benches);
