//! 3D slab walk-through: dissect the hybrid hexagonal/classical schedule
//! of a 3D stencil and verify it functionally against the reference.
//!
//! ```sh
//! cargo run --release --example jacobi3d_slab
//! ```
//!
//! Shows the structure the paper's Section 4.3 models: hexagonal tiles
//! on `(t, s1)` become slabs along `(s2, s3)`, cut into skewed sub-slabs
//! that one thread block walks sequentially; and demonstrates that the
//! whole schedule computes exactly what the naive executor computes.

use hhc_stencil::core::{reference, Grid, ProblemSize, StencilDescriptor};
use hhc_stencil::sim::{simulate, DeviceConfig, SimWorkload};
use hhc_stencil::tiling::{exec, LaunchConfig, TileSizes};
use hhc_tiling::TilingPlan;

fn main() {
    let stencil = StencilDescriptor::jacobi3d();
    let spec = stencil.spec();

    // -- Part 1: functional validation on a small box --------------------
    let small = ProblemSize::new_3d(20, 18, 16, 10);
    let tiles = TileSizes::new_3d(4, 3, 4, 6);
    let init = Grid::from_fn(small.space_extents(), |a, b, c| {
        ((a * 7 + b * 3 + c) % 11) as f32 / 11.0
    });
    println!(
        "functional check: {} on {} with tiles (tT={}, tS=({}, {}, {}))",
        stencil.name,
        small.label(),
        tiles.t_t,
        tiles.t_s[0],
        tiles.t_s[1],
        tiles.t_s[2]
    );
    let expect = reference::run(&spec, &small, &init);
    let got = exec::run_tiled_checked(&spec, &small, tiles, &init);
    assert_eq!(expect.max_abs_diff(&got), 0.0);
    println!("  tiled schedule == reference executor, bit for bit; every dependence checked\n");

    // -- Part 2: the schedule structure at an evaluation size ------------
    let size = ProblemSize::new_3d(384, 384, 384, 128);
    let tiles = TileSizes::new_3d(8, 4, 2, 32);
    let launch = LaunchConfig::new_3d(1, 2, 32);
    let plan = TilingPlan::build(&spec, &size, tiles, launch).expect("valid configuration");
    println!("schedule for {}:", size.label());
    println!(
        "  kernel launches (wavefronts, N_w)    : {}",
        plan.kernel_count()
    );
    println!(
        "  blocks in the widest wavefront (w)   : {}",
        plan.max_blocks_per_wavefront()
    );
    let wf = &plan.wavefronts[plan.wavefronts.len() / 2];
    let block = wf
        .classes
        .iter()
        .max_by_key(|c| c.count)
        .expect("interior block");
    println!(
        "  sub-slabs walked per block           : {}",
        block.subtiles_per_block()
    );
    println!(
        "  interior sub-slab m_i / m_o          : {} / {} words (paper Eqn 24: {})",
        block.interior_subtile_load_words(),
        block.interior_subtile_store_words(),
        tiles.t_s[1] * tiles.t_s[2] * (tiles.t_s[0] + 2 * tiles.t_t)
    );
    println!(
        "  shared memory per block (M_tile)     : {} words",
        plan.mtile_words
    );
    println!(
        "  total iterations (== T*S1*S2*S3)     : {}",
        plan.total_iterations()
    );
    assert_eq!(plan.total_iterations(), size.iter_points());

    // -- Part 3: simulate on both devices ---------------------------------
    println!("\nsimulated execution:");
    for device in DeviceConfig::paper_devices() {
        let report = simulate(&device, &SimWorkload::from_plan(&plan)).expect("launches");
        println!(
            "  {:10}  T_exec = {:.3} s  ({:.1} GFLOPS/s, k = {}, {} kernels)",
            device.name,
            report.total_time,
            report.gflops(reference::total_flops(&spec, &size)),
            report.occupancy.k,
            report.kernel_launches
        );
    }
}
