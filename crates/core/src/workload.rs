//! The typed workload descriptor every pipeline layer consumes.
//!
//! The paper's pipeline is one flow — a (device, stencil, problem-size)
//! triple enters, the model ranks tile sizes for it, the optimizer picks
//! one, the machine runs it. Historically each crate re-plumbed those
//! pieces as loose tuples; [`Workload`] bundles them once:
//!
//! ```text
//! Workload { device, stencil, size, tiles, launch }
//!      core → time-model → tile-opt → gpu-sim/exec → advisor/experiments
//! ```
//!
//! The stencil member is a [`StencilDescriptor`]: a named preset or any
//! zoo member.
//!
//! The type is generic over the device description `D` because
//! `stencil-core` sits below the device registry (`gpu-sim` owns
//! [`DeviceConfig`](https://docs.rs/) and re-exports the concrete
//! `Workload<DeviceConfig>` alias the rest of the workspace uses).

use crate::descriptor::StencilDescriptor;
use crate::problem::ProblemSize;
use crate::stencil::{StencilDim, StencilSpec};
use crate::tiling::{LaunchConfig, TileSizes};

/// One fully-described unit of work: which machine, which stencil, at
/// what problem size, with which tile shape and launch geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload<D> {
    /// The device the workload targets.
    pub device: D,
    /// The stencil descriptor (a paper preset or any zoo member).
    pub stencil: StencilDescriptor,
    /// Problem size (space extents + time steps).
    pub size: ProblemSize,
    /// Tile-size parameters the HHC compiler would be invoked with.
    pub tiles: TileSizes,
    /// Threads-per-block launch geometry.
    pub launch: LaunchConfig,
}

impl<D> Workload<D> {
    /// Describe a workload with the stock HHC tile/launch configuration;
    /// refine with [`Self::with_tiles`] / [`Self::with_launch`]. Errors
    /// when the stencil's dimensionality does not match the size's.
    pub fn new(device: D, stencil: StencilDescriptor, size: ProblemSize) -> Result<Self, String> {
        stencil.validate()?;
        let dim = stencil.dim;
        if dim != size.dim {
            return Err(format!(
                "stencil {} is {}-dimensional but size {} is {}-dimensional",
                stencil.name,
                dim.rank(),
                size.label(),
                size.dim.rank()
            ));
        }
        Ok(Workload {
            device,
            stencil,
            size,
            tiles: TileSizes::hhc_default(dim),
            launch: LaunchConfig::hhc_default(dim),
        })
    }

    /// Replace the tile sizes, re-deriving the launch with the paper's
    /// empirical threads-per-block predictor ([`LaunchConfig::empirical`]).
    pub fn with_tiles(mut self, tiles: TileSizes) -> Self {
        self.launch = LaunchConfig::empirical(self.dim(), &tiles);
        self.tiles = tiles;
        self
    }

    /// Replace the launch geometry only.
    pub fn with_launch(mut self, launch: LaunchConfig) -> Self {
        self.launch = launch;
        self
    }

    /// The stencil's space dimensionality.
    #[inline]
    pub fn dim(&self) -> StencilDim {
        self.size.dim
    }

    /// The stencil's space rank as an integer.
    #[inline]
    pub fn rank(&self) -> usize {
        self.size.dim.rank()
    }

    /// The stencil's halo radius (1 for all paper presets).
    #[inline]
    pub fn radius(&self) -> i64 {
        self.stencil.radius
    }

    /// Elaborate the stencil specification (neighborhood, weights, op
    /// counts).
    pub fn spec(&self) -> StencilSpec {
        self.stencil.spec()
    }

    /// Validate dimensional consistency of every component.
    pub fn validate(&self) -> Result<(), String> {
        self.stencil.validate()?;
        let dim = self.stencil.dim;
        if dim != self.size.dim {
            return Err(format!(
                "stencil {} is {}-dimensional but size {} is {}-dimensional",
                self.stencil.name,
                dim.rank(),
                self.size.label(),
                self.size.dim.rank()
            ));
        }
        self.tiles.validate(dim)?;
        self.launch.validate(dim)
    }

    /// Map the device description, keeping everything else — used to
    /// re-target a workload (e.g. ablations that perturb one device
    /// parameter).
    pub fn map_device<E>(self, f: impl FnOnce(D) -> E) -> Workload<E> {
        Workload {
            device: f(self.device),
            stencil: self.stencil,
            size: self.size,
            tiles: self.tiles,
            launch: self.launch,
        }
    }

    /// A short identifier like `Heat2D_4096x4096xT1024_tT8_tS16x128`
    /// used in result files and telemetry.
    pub fn label(&self) -> String {
        format!(
            "{}_{}_{}",
            self.stencil.name,
            self.size.label(),
            self.tiles.label(self.dim())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_defaults_to_hhc_configuration() {
        let w = Workload::new(
            (),
            StencilDescriptor::heat2d(),
            ProblemSize::new_2d(512, 512, 64),
        )
        .unwrap();
        assert_eq!(w.tiles, TileSizes::hhc_default(StencilDim::D2));
        assert_eq!(w.launch, LaunchConfig::hhc_default(StencilDim::D2));
        assert_eq!(w.rank(), 2);
        assert_eq!(w.radius(), 1);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn new_accepts_descriptors() {
        let w = Workload::new(
            (),
            StencilDescriptor::lap4_2d(),
            ProblemSize::new_2d(512, 512, 64),
        )
        .unwrap();
        assert_eq!(w.radius(), 2);
        assert_eq!(w.spec().order(), 2);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let err = Workload::new(
            (),
            StencilDescriptor::heat3d(),
            ProblemSize::new_2d(512, 512, 64),
        )
        .unwrap_err();
        assert!(err.contains("3-dimensional"), "{err}");
    }

    #[test]
    fn with_tiles_rederives_empirical_launch() {
        let w = Workload::new(
            (),
            StencilDescriptor::heat2d(),
            ProblemSize::new_2d(512, 512, 64),
        )
        .unwrap()
        .with_tiles(TileSizes::new_2d(8, 16, 128));
        assert_eq!(w.launch, LaunchConfig::empirical(StencilDim::D2, &w.tiles));
        assert!(w.validate().is_ok());
    }

    #[test]
    fn with_launch_keeps_tiles() {
        let w = Workload::new(
            (),
            StencilDescriptor::jacobi1d(),
            ProblemSize::new_1d(1 << 16, 64),
        )
        .unwrap()
        .with_tiles(TileSizes::new_1d(8, 64))
        .with_launch(LaunchConfig::new_1d(256));
        assert_eq!(w.tiles, TileSizes::new_1d(8, 64));
        assert_eq!(w.launch, LaunchConfig::new_1d(256));
    }

    #[test]
    fn labels_compose() {
        let w = Workload::new(
            (),
            StencilDescriptor::heat2d(),
            ProblemSize::new_2d(512, 512, 64),
        )
        .unwrap()
        .with_tiles(TileSizes::new_2d(8, 16, 128));
        assert_eq!(w.label(), "Heat2D_512x512xT64_tT8_tS16x128");
    }

    #[test]
    fn map_device_retargets() {
        let w = Workload::new(
            1u32,
            StencilDescriptor::heat2d(),
            ProblemSize::new_2d(64, 64, 8),
        )
        .unwrap();
        let w2 = w.map_device(|d| d as u64 + 1);
        assert_eq!(w2.device, 2u64);
        assert_eq!(w2.stencil, StencilDescriptor::heat2d());
    }
}
