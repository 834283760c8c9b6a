//! Regeneration of the paper's Tables 2–4.

use crate::context::Lab;
use serde::{Deserialize, Serialize};
use stencil_core::StencilDescriptor;

/// One device column of Table 2 (GPU configuration).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Device name.
    pub device: String,
    /// `n_SM`.
    pub n_sm: usize,
    /// `n_V`.
    pub n_v: usize,
    /// `M_SM` in KB.
    pub m_sm_kb: u64,
    /// `R_SM`.
    pub r_sm: u64,
    /// Shared-memory banks.
    pub shared_banks: usize,
    /// Max thread blocks per SM.
    pub max_tb_per_sm: usize,
}

/// Regenerate Table 2 from the device presets.
pub fn table2(lab: &Lab) -> Vec<Table2Row> {
    lab.devices
        .iter()
        .map(|d| Table2Row {
            device: d.name.clone(),
            n_sm: d.n_sm,
            n_v: d.n_v,
            m_sm_kb: d.shared_mem_words * 4 / 1024,
            r_sm: d.regs_per_sm,
            shared_banks: d.shared_banks,
            max_tb_per_sm: d.max_blocks_per_sm,
        })
        .collect()
}

/// One device column of Table 3 (measured timing parameters), with the
/// paper's values for comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Device name.
    pub device: String,
    /// Measured `L` in s/GB (paper: 7.36e-3 / 5.42e-3).
    pub l_s_per_gb: f64,
    /// Measured `τ_sync` in s (paper: 7.96e-10 / 6.74e-10).
    pub tau_sync: f64,
    /// Measured `T_sync` in s (paper: 9.24e-7 / 9.00e-7).
    pub t_sync: f64,
}

/// Regenerate Table 3 by running the memory/sync micro-benchmarks.
pub fn table3(lab: &Lab) -> Vec<Table3Row> {
    lab.devices
        .iter()
        .map(|d| {
            let m = microbench::measure_memory_params(d);
            Table3Row {
                device: d.name.clone(),
                l_s_per_gb: m.l_s_per_gb,
                tau_sync: m.tau_sync,
                t_sync: m.t_sync,
            }
        })
        .collect()
}

/// One cell of Table 4 (`Citer` per benchmark × device).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Device name.
    pub device: String,
    /// Measured `Citer` in seconds.
    pub citer: f64,
    /// The paper's Table 4 value for this cell, for comparison.
    pub paper_citer: Option<f64>,
}

/// The paper's Table 4 values, for side-by-side reporting — a plain
/// (benchmark name, GTX 980, Titan X) lookup, so the table covers
/// exactly the six cells the paper prints and nothing dispatches on
/// stencil structure here.
pub fn paper_citer(benchmark: &str, device: &str) -> Option<f64> {
    const TABLE: &[(&str, f64, f64)] = &[
        ("Jacobi2D", 3.39e-8, 3.83e-8),
        ("Heat2D", 3.68e-8, 4.23e-8),
        ("Laplacian2D", 3.11e-8, 3.81e-8),
        ("Gradient2D", 6.09e-8, 7.60e-8),
        ("Heat3D", 1.55e-7, 1.64e-7),
        ("Laplacian3D", 1.36e-7, 1.44e-7),
    ];
    let gtx = device.contains("980");
    TABLE
        .iter()
        .find(|(name, _, _)| *name == benchmark)
        .map(|(_, g, t)| if gtx { *g } else { *t })
}

/// Regenerate Table 4 by running the `Citer` micro-benchmark for every
/// benchmark × device combination.
pub fn table4(lab: &Lab) -> Vec<Table4Row> {
    let mut rows = Vec::new();
    for stencil in StencilDescriptor::table4() {
        for d in &lab.devices {
            let m = lab.measured(d, &stencil);
            rows.push(Table4Row {
                benchmark: stencil.name.clone(),
                device: d.name.clone(),
                citer: m.citer,
                paper_citer: paper_citer(&stencil.name, &d.name),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn table2_matches_paper_values() {
        let lab = Lab::new(ExperimentScale::Smoke);
        let rows = table2(&lab);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].n_sm, 16);
        assert_eq!(rows[1].n_sm, 24);
        assert!(rows.iter().all(|r| r.m_sm_kb == 96 && r.r_sm == 65536));
    }

    #[test]
    fn table3_within_scale_of_paper() {
        let lab = Lab::new(ExperimentScale::Smoke);
        let rows = table3(&lab);
        let gtx = &rows[0];
        assert!(
            (gtx.l_s_per_gb - 7.36e-3).abs() / 7.36e-3 < 0.10,
            "{}",
            gtx.l_s_per_gb
        );
        assert!((gtx.t_sync - 9.24e-7).abs() / 9.24e-7 < 0.10);
        // Titan X is faster on memory.
        assert!(rows[1].l_s_per_gb < rows[0].l_s_per_gb);
    }

    #[test]
    fn table4_covers_all_cells_with_paper_reference() {
        let lab = Lab::new(ExperimentScale::Smoke);
        let rows = table4(&lab);
        assert_eq!(rows.len(), 12); // 6 benchmarks × 2 devices
        assert!(rows
            .iter()
            .all(|r| r.paper_citer.is_some() && r.citer > 0.0));
        // 3D Citer well above 2D, as in the paper.
        let j2d = rows
            .iter()
            .find(|r| r.benchmark == "Jacobi2D" && r.device.contains("980"));
        let h3d = rows
            .iter()
            .find(|r| r.benchmark == "Heat3D" && r.device.contains("980"));
        assert!(h3d.unwrap().citer > 2.0 * j2d.unwrap().citer);
    }
}
