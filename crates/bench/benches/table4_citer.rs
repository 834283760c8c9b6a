//! Bench for paper Table 4: the Citer micro-benchmark per stencil.
//! Prints the measured table rows alongside the paper's values.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::DeviceConfig;
use std::hint::black_box;
use stencil_core::StencilDescriptor;

fn bench(c: &mut Criterion) {
    let lab = hhc_bench::bench_lab();
    for row in experiments::tables::table4(&lab) {
        println!(
            "[table4] {:12} {:10} measured = {:.3e} s, paper = {:.3e} s",
            row.benchmark,
            row.device,
            row.citer,
            row.paper_citer.unwrap_or(f64::NAN)
        );
    }
    let device = DeviceConfig::gtx980();
    let mut g = c.benchmark_group("table4_citer");
    g.sample_size(10);
    g.bench_function("measure_citer_jacobi2d_8samples", |b| {
        b.iter(|| {
            black_box(microbench::measure_citer(
                &device,
                &StencilDescriptor::jacobi2d(),
                8,
                1,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
