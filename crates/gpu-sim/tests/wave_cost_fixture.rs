//! The two-pipe wave scheduler, bit for bit, against a committed fixture.
//!
//! `fixtures/wave_costs.txt` holds the makespan and pipe-busy times of
//! synthetic kernels across occupancies `k = 1…12` and three SM counts:
//! pure and mixed waves, blocks with a zero load, compute or store phase
//! (one- to three-segment chunks), classes with exactly tied durations,
//! blocks of 1 and 64 chunks, and a nine-class mix whose waves mix up to
//! nine block runs. Both public entry points, [`kernel_time`] and
//! [`kernel_time_dealing`], must reproduce every line.

use gpu_sim::{kernel_time, kernel_time_dealing, DeviceConfig, KernelStats, SimWorkload};
use hhc_tiling::plan::{AxisClass, BlockClass, WavefrontPlan};
use std::sync::Arc;

/// A one-row class: `count` blocks of `subtiles` sub-tiles, each loading
/// `load` words, computing an `s1`-wide row, and storing `store` words.
fn cls(count: u64, s1: u64, load: u64, store: u64, subtiles: u64) -> BlockClass {
    BlockClass {
        count,
        s1_widths: vec![s1],
        mi_rows: vec![load],
        mo_rows: vec![store],
        axis2: vec![AxisClass {
            count: subtiles,
            widths: vec![1],
        }],
        axis3: BlockClass::unit_axis(1),
    }
}

/// The fixture's kernels, by name.
fn cases() -> Vec<(&'static str, Vec<BlockClass>)> {
    vec![
        ("balanced", vec![cls(40, 256, 512, 512, 4)]),
        (
            "mem_and_comp_heavy_mix",
            vec![cls(7, 64, 4096, 2048, 3), cls(9, 2048, 256, 128, 3)],
        ),
        ("zero_load", vec![cls(20, 512, 0, 512, 4)]),
        ("zero_store", vec![cls(20, 512, 512, 0, 4)]),
        ("zero_compute", vec![cls(20, 0, 512, 512, 4)]),
        ("compute_only", vec![cls(20, 512, 0, 0, 4)]),
        ("load_only", vec![cls(20, 0, 512, 0, 4)]),
        ("empty_blocks", vec![cls(5, 0, 0, 0, 1)]),
        (
            "tied_classes",
            vec![cls(5, 256, 512, 512, 2), cls(6, 256, 512, 512, 2)],
        ),
        ("one_chunk", vec![cls(13, 1024, 2048, 1024, 1)]),
        ("sixty_four_chunks", vec![cls(13, 128, 64, 64, 64)]),
        ("clamped_chunks", vec![cls(11, 128, 64, 32, 1000)]),
        ("spilling", vec![cls(10, 6000, 512, 256, 8)]),
        (
            "four_class_mix",
            vec![
                cls(3, 96, 1024, 512, 2),
                cls(0, 4096, 64, 64, 2),
                cls(17, 512, 128, 2048, 5),
                cls(5, 2048, 0, 256, 3),
            ],
        ),
        (
            "overflowing_mix",
            (0..9)
                .map(|i| cls(1, 64 + 96 * i, 256 * (i % 3), 128 + 64 * i, 1 + i % 4))
                .collect(),
        ),
    ]
}

fn wl_of(classes: &[BlockClass]) -> SimWorkload {
    let mut wl = SimWorkload::uniform(1, 0, 0, 0, 0, vec![], 128, 32);
    wl.kernels = vec![WavefrontPlan {
        classes: Arc::new(classes.to_vec()),
    }];
    wl
}

/// One fixture line: the kernel's timing fields as raw bits.
fn render(case: &str, n_sm: usize, k: usize, s: &KernelStats) -> String {
    format!(
        "{case} sm={n_sm} k={k} makespan={:016x} mem={:016x} comp={:016x}",
        s.makespan.to_bits(),
        s.mem_busy.to_bits(),
        s.comp_busy.to_bits(),
    )
}

#[test]
fn wave_costs_match_the_fixture_bit_for_bit() {
    let fixture = include_str!("fixtures/wave_costs.txt");
    let want: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let mut got = Vec::new();
    for n_sm in [1usize, 3, 16] {
        let mut d = DeviceConfig::gtx980();
        d.n_sm = n_sm;
        for (case, classes) in cases() {
            let wl = wl_of(&classes);
            for k in 1..=12 {
                let steady = render(case, n_sm, k, &kernel_time(&d, &wl, &classes, k));
                let dealing = render(case, n_sm, k, &kernel_time_dealing(&d, &wl, &classes, k));
                assert_eq!(steady, dealing, "kernel_time and kernel_time_dealing");
                got.push(steady);
            }
        }
    }
    assert_eq!(
        got.len(),
        want.len(),
        "one fixture line per (SM count, case, k)"
    );
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
}
