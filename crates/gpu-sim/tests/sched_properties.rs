//! The steady-state scheduler against its oracle: `kernel_time` must
//! reproduce the tracer's block-by-block replay (`kernel_time_dealing`)
//! bit-for-bit — makespan, pipe busy times, wave counts, and every per-SM
//! finish time — across randomized class vectors, occupancies, and SM
//! counts.

use gpu_sim::{kernel_time, kernel_time_dealing, DeviceConfig, SimWorkload};
use hhc_tiling::plan::{BlockClass, WavefrontPlan};
use proptest::prelude::*;
use std::sync::Arc;

fn class_strategy() -> impl Strategy<Value = BlockClass> {
    (0u64..60, 1u64..2000, 1usize..4, 0u64..4096).prop_map(|(count, width, rows, words)| {
        BlockClass {
            count,
            s1_widths: vec![width; rows],
            mi_rows: vec![words; rows],
            mo_rows: vec![words; rows],
            axis2: BlockClass::unit_axis(rows),
            axis3: BlockClass::unit_axis(rows),
        }
    })
}

fn wl_of(classes: &[BlockClass]) -> SimWorkload {
    let mut wl = SimWorkload::uniform(1, 0, 0, 0, 0, vec![], 128, 32);
    wl.kernels = vec![WavefrontPlan {
        classes: Arc::new(classes.to_vec()),
    }];
    wl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bitwise agreement on arbitrary class mixes. `k` up to 12 with
    /// low-count classes exercises both the pure steady runs and waves
    /// composed at class boundaries.
    #[test]
    fn steady_equals_dealing(
        classes in prop::collection::vec(class_strategy(), 1..5),
        n_sm in 1usize..20,
        k in 1usize..12,
    ) {
        let mut d = DeviceConfig::gtx980();
        d.n_sm = n_sm;
        let wl = wl_of(&classes);
        let steady = kernel_time(&d, &wl, &classes, k);
        let dealing = kernel_time_dealing(&d, &wl, &classes, k);
        prop_assert_eq!(steady.makespan.to_bits(), dealing.makespan.to_bits());
        prop_assert_eq!(steady.mem_busy.to_bits(), dealing.mem_busy.to_bits());
        prop_assert_eq!(steady.comp_busy.to_bits(), dealing.comp_busy.to_bits());
        prop_assert_eq!(steady.blocks, dealing.blocks);
        prop_assert_eq!(steady.waves, dealing.waves);
        prop_assert_eq!(steady.sm_finish.len(), dealing.sm_finish.len());
        for (a, b) in steady.sm_finish.iter().zip(&dealing.sm_finish) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Single-block classes in quantity: on one to three SMs every wave
    /// is maximally mixed, commonly of 7–32 runs, and its composition
    /// must stay exact however many runs it holds.
    #[test]
    fn many_run_waves_are_exact(
        widths in prop::collection::vec(1u64..512, 7..41),
        n_sm in 1usize..4,
        k in 7usize..33,
    ) {
        let classes: Vec<BlockClass> = widths
            .iter()
            .map(|&w| BlockClass {
                count: 1,
                s1_widths: vec![w],
                mi_rows: vec![64],
                mo_rows: vec![64],
                axis2: BlockClass::unit_axis(1),
                axis3: BlockClass::unit_axis(1),
            })
            .collect();
        let mut d = DeviceConfig::gtx980();
        d.n_sm = n_sm;
        let wl = wl_of(&classes);
        let steady = kernel_time(&d, &wl, &classes, k);
        let dealing = kernel_time_dealing(&d, &wl, &classes, k);
        prop_assert_eq!(steady.makespan.to_bits(), dealing.makespan.to_bits());
        prop_assert_eq!(steady.waves, dealing.waves);
        for (a, b) in steady.sm_finish.iter().zip(&dealing.sm_finish) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
