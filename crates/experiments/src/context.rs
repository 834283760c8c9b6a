//! Experiment context: scales, devices, and cached micro-benchmark
//! measurements.

use gpu_sim::DeviceConfig;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use stencil_core::{ProblemSize, StencilDescriptor, StencilDim};
use time_model::{MeasuredParams, ModelParams};

/// Which problem-size grids to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// The paper's exact sizes: 2D 4096²/8192² with `T` up to 16384,
    /// 3D 384³–640³ with `T ≤ S` (Section 5).
    Paper,
    /// Same grid shape at reduced extents, for quick runs and benches.
    Reduced,
    /// A single small size per dimensionality, for smoke tests.
    Smoke,
}

impl ExperimentScale {
    /// Parse a `--scale` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "paper" => Some(Self::Paper),
            "reduced" => Some(Self::Reduced),
            "smoke" => Some(Self::Smoke),
            _ => None,
        }
    }

    /// The 2D problem-size grid at this scale.
    pub fn sizes_2d(self) -> Vec<ProblemSize> {
        match self {
            Self::Paper => ProblemSize::paper_2d_sizes(),
            Self::Reduced => ProblemSize::reduced_2d_sizes(),
            Self::Smoke => vec![ProblemSize::new_2d(512, 512, 128)],
        }
    }

    /// A 1D problem-size grid (the paper derives its model on Jacobi 1D
    /// but evaluates only 2D/3D; these sizes make the expository model
    /// checkable too).
    pub fn sizes_1d(self) -> Vec<ProblemSize> {
        match self {
            Self::Paper => [1 << 22, 1 << 23]
                .into_iter()
                .flat_map(|s| {
                    [1024usize, 2048, 4096, 8192, 16384]
                        .into_iter()
                        .map(move |t| ProblemSize::new_1d(s, t))
                })
                .collect(),
            Self::Reduced => vec![
                ProblemSize::new_1d(1 << 20, 512),
                ProblemSize::new_1d(1 << 20, 2048),
                ProblemSize::new_1d(1 << 21, 1024),
            ],
            Self::Smoke => vec![ProblemSize::new_1d(1 << 18, 256)],
        }
    }

    /// The problem-size grid for a dimensionality at this scale.
    pub fn sizes(self, dim: StencilDim) -> Vec<ProblemSize> {
        match dim.rank() {
            1 => self.sizes_1d(),
            2 => self.sizes_2d(),
            _ => self.sizes_3d(),
        }
    }

    /// The 3D problem-size grid at this scale.
    pub fn sizes_3d(self) -> Vec<ProblemSize> {
        match self {
            Self::Paper => ProblemSize::paper_3d_sizes(),
            Self::Reduced => ProblemSize::reduced_3d_sizes(),
            Self::Smoke => vec![ProblemSize::new_3d(96, 96, 96, 48)],
        }
    }

    /// The Figure 5 problem (Gradient2D): `S1 = S2 = T = 8192` in the
    /// paper.
    pub fn fig5_size(self) -> ProblemSize {
        match self {
            Self::Paper => ProblemSize::new_2d(8192, 8192, 8192),
            Self::Reduced => ProblemSize::new_2d(2048, 2048, 2048),
            Self::Smoke => ProblemSize::new_2d(512, 512, 512),
        }
    }

    /// Micro-benchmark sample count (the paper uses 70 for `Citer`).
    pub fn citer_samples(self) -> usize {
        match self {
            Self::Paper => 70,
            Self::Reduced => 30,
            Self::Smoke => 8,
        }
    }

    /// Label used in result file names.
    pub fn label(self) -> &'static str {
        match self {
            Self::Paper => "paper",
            Self::Reduced => "reduced",
            Self::Smoke => "smoke",
        }
    }
}

/// The laboratory: devices plus a cache of measured model parameters
/// (the micro-benchmarks are deterministic, so measuring once per
/// (device, stencil) is exact).
pub struct Lab {
    /// The evaluation platforms (GTX 980 and Titan X by default).
    pub devices: Vec<DeviceConfig>,
    /// Experiment scale.
    pub scale: ExperimentScale,
    cache: Mutex<HashMap<(String, u64), MeasuredParams>>,
}

impl Lab {
    /// A lab with the paper's two devices.
    pub fn new(scale: ExperimentScale) -> Self {
        Lab {
            devices: DeviceConfig::paper_devices(),
            scale,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Measured parameters for a (device, stencil) pair, micro-benchmarked
    /// on first use. Keyed by the descriptor fingerprint, so equivalent
    /// spellings of one stencil share a single measurement.
    pub fn measured(&self, device: &DeviceConfig, stencil: &StencilDescriptor) -> MeasuredParams {
        let key = (device.name.clone(), stencil.fingerprint());
        if let Some(m) = self.cache.lock().get(&key) {
            return *m;
        }
        let m = microbench::measured_params_sampled(
            device,
            stencil,
            self.scale.citer_samples(),
            crate::SEED,
        );
        self.cache.lock().insert(key, m);
        m
    }

    /// Full model parameters for a (device, stencil) pair.
    pub fn model_params(&self, device: &DeviceConfig, stencil: &StencilDescriptor) -> ModelParams {
        ModelParams::from_measured(device, &self.measured(device, stencil))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse() {
        assert_eq!(
            ExperimentScale::parse("paper"),
            Some(ExperimentScale::Paper)
        );
        assert_eq!(
            ExperimentScale::parse("reduced"),
            Some(ExperimentScale::Reduced)
        );
        assert!(ExperimentScale::parse("huge").is_none());
    }

    #[test]
    fn paper_scale_grids_match_section5() {
        assert_eq!(ExperimentScale::Paper.sizes_2d().len(), 10);
        assert_eq!(ExperimentScale::Paper.sizes_3d().len(), 12);
        assert_eq!(ExperimentScale::Paper.citer_samples(), 70);
    }

    #[test]
    fn measured_params_are_cached_and_deterministic() {
        let lab = Lab::new(ExperimentScale::Smoke);
        let d = &lab.devices[0];
        let j2 = StencilDescriptor::jacobi2d();
        let a = lab.measured(d, &j2);
        let b = lab.measured(d, &j2);
        assert_eq!(a, b);
        assert!(a.citer > 0.0 && a.l_word > 0.0);
    }
}
