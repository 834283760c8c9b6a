//! Every `SimReport` field, bit for bit, against a committed fixture.
//!
//! The fixture `fixtures/sim_reports.txt` holds the reports of real
//! multi-wavefront plans (radius 1 and 2, 2D and 3D, with and without
//! register spills) and of the 256-kernel `T_sync` train the
//! micro-benchmarks simulate, as computed when the spill factor was still
//! evaluated separately for every lowered block class. The simulator now
//! computes the register demand once per run; these pins show the
//! reports did not move by a single bit.

use gpu_sim::{simulate, DeviceConfig, SimReport, SimWorkload};
use hhc_tiling::{LaunchConfig, TileSizes, TilingPlan};
use stencil_core::{ProblemSize, StencilDescriptor, StencilSpec};

fn plan(
    spec: StencilSpec,
    size: ProblemSize,
    tiles: TileSizes,
    launch: LaunchConfig,
) -> SimWorkload {
    let plan = TilingPlan::build(&spec, &size, tiles, launch).expect("fixture plans build");
    assert!(
        plan.kernel_count() > 1,
        "fixture plans span several wavefronts"
    );
    SimWorkload::from_plan(&plan)
}

/// The fixture's workloads, by name.
fn cases() -> Vec<(&'static str, SimWorkload)> {
    let mut spill_train = SimWorkload::uniform(256, 3, 2, 64, 64, vec![[60, 128, 1]], 128, 32);
    spill_train.threads_dims = [1, 128, 1];
    vec![
        (
            "jacobi2d_512_t128",
            plan(
                StencilDescriptor::jacobi2d().spec(),
                ProblemSize::new_2d(512, 512, 128),
                TileSizes::new_2d(8, 32, 128),
                LaunchConfig::new_2d(4, 32),
            ),
        ),
        (
            "jacobi2d_spilling",
            plan(
                StencilDescriptor::jacobi2d().spec(),
                ProblemSize::new_2d(512, 512, 64),
                TileSizes::new_2d(8, 64, 64),
                LaunchConfig::new_2d(1, 32),
            ),
        ),
        (
            "heat2d_many_wavefronts",
            plan(
                StencilDescriptor::heat2d().spec(),
                ProblemSize::new_2d(1024, 1024, 256),
                TileSizes::new_2d(2, 16, 64),
                LaunchConfig::new_2d(1, 64),
            ),
        ),
        (
            "lap4_2d_radius2",
            plan(
                StencilDescriptor::lap4_2d().spec(),
                ProblemSize::new_2d(256, 256, 64),
                TileSizes::new_2d(4, 16, 64),
                LaunchConfig::new_2d(2, 32),
            ),
        ),
        (
            "heat3d_64_t16",
            plan(
                StencilDescriptor::heat3d().spec(),
                ProblemSize::new_3d(64, 64, 64, 16),
                TileSizes::new_3d(4, 4, 8, 32),
                LaunchConfig::new_3d(1, 4, 32),
            ),
        ),
        (
            "advect3d_48_t12",
            plan(
                StencilDescriptor::advect3d().spec(),
                ProblemSize::new_3d(48, 48, 48, 12),
                TileSizes::new_3d(2, 8, 4, 32),
                LaunchConfig::new_3d(2, 2, 32),
            ),
        ),
        (
            "tsync_train",
            SimWorkload::uniform(256, 0, 0, 0, 0, vec![], 128, 32),
        ),
        ("tsync_train_spilling", spill_train),
    ]
}

/// One fixture line: every field of the report, floats as raw bits.
fn render(device: &str, case: &str, r: &SimReport) -> String {
    format!(
        "{device} {case} total={:016x} launches={} k={} limit={:?} regs={} mem={:016x} comp={:016x} launch={:016x} spill={:016x} diverge={:016x}",
        r.total_time.to_bits(),
        r.kernel_launches,
        r.occupancy.k,
        r.occupancy.limit,
        r.occupancy.regs_per_thread,
        r.mem_busy.to_bits(),
        r.comp_busy.to_bits(),
        r.launch_overhead.to_bits(),
        r.spill_factor.to_bits(),
        r.divergence_factor.to_bits(),
    )
}

#[test]
fn reports_match_the_fixture_bit_for_bit() {
    let fixture = include_str!("fixtures/sim_reports.txt");
    let want: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let mut got = Vec::new();
    for device in [DeviceConfig::gtx980(), DeviceConfig::titan_x()] {
        let tag = device.name.replace(' ', "_");
        for (case, wl) in cases() {
            let report = simulate(&device, &wl).expect("fixture workloads launch");
            got.push(render(&tag, case, &report));
        }
    }
    assert_eq!(got.len(), want.len(), "one fixture line per (device, case)");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
    // The fixture must exercise the spill path, or it pins nothing.
    assert!(want.iter().any(|l| !l.contains("spill=3ff0000000000000")));
}
