//! Bench for paper Figure 3 / Section 5.3: one full 850-point validation
//! experiment (model sweep + machine measurement + RMSE bands), printed
//! like the paper's summary.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::figures::validate_one;
use std::hint::black_box;
use stencil_core::{ProblemSize, StencilDescriptor};
use tile_opt::SpaceConfig;

fn bench(c: &mut Criterion) {
    let lab = hhc_bench::bench_lab();
    let device = lab.devices[0].clone();
    let size = ProblemSize::new_2d(1024, 1024, 256);
    let space = SpaceConfig::default();
    let r = validate_one(&lab, &device, &StencilDescriptor::jacobi2d(), &size, &space);
    println!(
        "[fig3] {} {} {}: RMSE(all) = {:.1}%, top-20%: n = {}, RMSE = {:.1}%",
        r.device,
        r.benchmark,
        r.size,
        100.0 * r.rmse_all.unwrap_or(f64::NAN),
        r.top_points,
        100.0 * r.rmse_top20.unwrap_or(f64::NAN)
    );
    let mut g = c.benchmark_group("fig3_validation");
    g.sample_size(10);
    g.bench_function("validate_850_points_jacobi2d_1024", |b| {
        b.iter(|| {
            black_box(
                validate_one(&lab, &device, &StencilDescriptor::jacobi2d(), &size, &space)
                    .rmse_top20,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
