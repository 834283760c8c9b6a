//! Descriptor-driven stencil definitions: the open "stencil zoo".
//!
//! A [`StencilDescriptor`] is the paper's Eqn (1) as data — rank,
//! radius, star/box/custom footprint, coefficient table, constant and
//! FLOP accounting — and the only way to name a stencil. Every layer of
//! the workspace derives from it: the reference executor and row
//! kernels (via [`StencilDescriptor::spec`]), the halo geometry in
//! `time_model::DimSpec` (via [`StencilDescriptor::radius`]), the
//! `Citer` microbench RNG streams (via
//! [`StencilDescriptor::rng_stream`]), the tile-size feasible space,
//! and advisor queries (names or inline descriptors, keyed by
//! [`StencilDescriptor::fingerprint`]).
//!
//! The named stencils are one private table: the paper's benchmarks
//! plus its expository Jacobi 1D/3D variants, then the zoo stencils.
//! `tests/presets.rs` pins every row bit for bit against a fixture
//! generated when the paper stencils were still a hand-written enum.

use crate::stencil::{Neighbor, StencilDim, StencilSpec};

/// Maximum supported stencil radius (hexagon slopes scale with the
/// order, so absurd orders are rejected).
pub const MAX_RADIUS: i64 = 8;

/// The shape of a stencil neighborhood, before coefficients.
///
/// Enumeration order is part of the contract: coefficients pair with
/// offsets positionally, and floating-point accumulation follows the
/// same order, so two descriptors with the same points in different
/// orders are *different* stencils bit-wise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Footprint {
    /// Axis-aligned cross: the center point, then for each space
    /// dimension `d` (in order) and each distance `k = 1..=radius`,
    /// the offsets `−k` and `+k` along `d`. `1 + 2·radius·rank`
    /// points. At radius 1 this is exactly the neighbor order of the
    /// paper's 5-point/7-point benchmarks.
    Star,
    /// Full hypercube `[−radius, +radius]^rank`, enumerated row-major
    /// (first dimension slowest). `(2·radius+1)^rank` points,
    /// including the center.
    Box,
    /// Explicit offset list, used verbatim. Unused dimensions must be
    /// zero and the maximum Chebyshev norm must equal the descriptor's
    /// radius. This is how presets with historical neighbor orders
    /// (Jacobi1D, Gradient2D) keep their accumulation order.
    Custom(Vec<[i64; 3]>),
}

impl Footprint {
    /// Short tag for keys and error messages.
    pub fn tag(&self) -> &'static str {
        match self {
            Footprint::Star => "star",
            Footprint::Box => "box",
            Footprint::Custom(_) => "custom",
        }
    }

    /// The offsets of this footprint for a given rank and radius, in
    /// enumeration order.
    pub fn offsets(&self, dim: StencilDim, radius: i64) -> Vec<[i64; 3]> {
        match self {
            Footprint::Star => {
                let mut out = Vec::with_capacity(1 + 2 * radius as usize * dim.rank());
                out.push([0, 0, 0]);
                for d in 0..dim.rank() {
                    for k in 1..=radius {
                        for s in [-k, k] {
                            let mut off = [0i64; 3];
                            off[d] = s;
                            out.push(off);
                        }
                    }
                }
                out
            }
            Footprint::Box => {
                let r = |d: usize| if d < dim.rank() { radius } else { 0 };
                let mut out = Vec::new();
                for o1 in -r(0)..=r(0) {
                    for o2 in -r(1)..=r(1) {
                        for o3 in -r(2)..=r(2) {
                            out.push([o1, o2, o3]);
                        }
                    }
                }
                out
            }
            Footprint::Custom(offsets) => offsets.clone(),
        }
    }

    /// Number of points the footprint enumerates.
    pub fn points(&self, dim: StencilDim, radius: i64) -> usize {
        match self {
            Footprint::Star => 1 + 2 * radius as usize * dim.rank(),
            Footprint::Box => (2 * radius as usize + 1).pow(dim.rank() as u32),
            Footprint::Custom(offsets) => offsets.len(),
        }
    }
}

/// An open, data-driven stencil definition — rank, radius, footprint,
/// coefficient table, and FLOP accounting — from which the elaborated
/// [`StencilSpec`] (and everything downstream of it) derives.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilDescriptor {
    /// Display name (paper-table style, e.g. `"Heat2D"`, `"Lap4_2D"`).
    pub name: String,
    /// Number of space dimensions.
    pub dim: StencilDim,
    /// Halo radius: maximum Chebyshev distance of any neighbor. Drives
    /// hexagon slopes, plan halos, and the model's halo geometry.
    pub radius: i64,
    /// Neighborhood shape; pairs positionally with `coefficients`.
    pub footprint: Footprint,
    /// One coefficient per footprint point, in enumeration order.
    pub coefficients: Vec<f32>,
    /// The additive constant `c` of the paper's Eqn (1).
    pub constant: f32,
    /// Extra per-point FLOPs beyond the convolution (scaling, gradient
    /// magnitude, …) — feeds `Citer` microbenches and GFLOPS numbers.
    pub extra_flops: u32,
    /// `Some(row)` when this descriptor *is* a paper stencil: its row
    /// in the preset table, which is also its microbench RNG stream.
    paper_row: Option<usize>,
}

impl StencilDescriptor {
    /// Build and validate a custom (non-preset) descriptor.
    pub fn new(
        name: impl Into<String>,
        dim: StencilDim,
        radius: i64,
        footprint: Footprint,
        coefficients: Vec<f32>,
        constant: f32,
        extra_flops: u32,
    ) -> Result<Self, String> {
        let d = StencilDescriptor {
            name: name.into(),
            dim,
            radius,
            footprint,
            coefficients,
            constant,
            extra_flops,
            paper_row: None,
        };
        d.validate()?;
        Ok(d)
    }

    /// Check the descriptor's internal consistency. Every constructor
    /// runs this; advisor inline descriptors surface the message as an
    /// `{"error": …}` line.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("descriptor name must be non-empty".into());
        }
        if !(1..=MAX_RADIUS).contains(&self.radius) {
            return Err(format!(
                "radius {} outside supported range 1..={MAX_RADIUS}",
                self.radius
            ));
        }
        let want = self.footprint.points(self.dim, self.radius);
        if want == 0 {
            return Err("footprint must enumerate at least one point".into());
        }
        if self.coefficients.len() != want {
            return Err(format!(
                "coefficient table has {} entries but the {} footprint (rank {}, radius {}) has {} points",
                self.coefficients.len(),
                self.footprint.tag(),
                self.dim.rank(),
                self.radius,
                want
            ));
        }
        if let Some(i) = self.coefficients.iter().position(|c| !c.is_finite()) {
            return Err(format!(
                "coefficient #{i} is {} as f32; coefficients must be finite",
                self.coefficients[i]
            ));
        }
        if !self.constant.is_finite() {
            return Err(format!(
                "constant is {} as f32; it must be finite",
                self.constant
            ));
        }
        if let Footprint::Custom(offsets) = &self.footprint {
            let mut max_cheb = 0u64;
            for off in offsets {
                for (d, &o) in off.iter().enumerate() {
                    if d >= self.dim.rank() && o != 0 {
                        return Err(format!(
                            "offset {off:?} references unused dimension {}",
                            d + 1
                        ));
                    }
                    max_cheb = max_cheb.max(o.unsigned_abs());
                }
            }
            if max_cheb != self.radius.unsigned_abs() {
                return Err(format!(
                    "declared radius {} but custom offsets have Chebyshev radius {max_cheb}",
                    self.radius
                ));
            }
            for (i, a) in offsets.iter().enumerate() {
                if offsets[..i].contains(a) {
                    return Err(format!("duplicate offset {a:?} in custom footprint"));
                }
            }
        }
        Ok(())
    }

    /// Elaborate into the [`StencilSpec`] every executor, plan, and
    /// model consumes — the only way to build one. Neighbors follow the
    /// footprint's enumeration order, which is also the accumulation
    /// order of every executor.
    pub fn spec(&self) -> StencilSpec {
        debug_assert_eq!(self.validate(), Ok(()));
        let neighbors = self
            .footprint
            .offsets(self.dim, self.radius)
            .into_iter()
            .zip(&self.coefficients)
            .map(|(off, &w)| Neighbor::new(off, w))
            .collect();
        StencilSpec {
            dim: self.dim,
            neighbors,
            constant: self.constant,
            extra_flops: self.extra_flops,
        }
    }

    /// Sum of the coefficient table (averaging stencils sum to 1).
    pub fn weight_sum(&self) -> f32 {
        self.coefficients.iter().sum()
    }

    /// Number of points read per output point.
    pub fn reads_per_point(&self) -> usize {
        self.coefficients.len()
    }

    /// FLOPs per point — same accounting as [`StencilSpec::flops_per_point`].
    pub fn flops_per_point(&self) -> u64 {
        let n = self.coefficients.len() as u64;
        n + n.saturating_sub(1) + u64::from(self.constant != 0.0) + u64::from(self.extra_flops)
    }

    /// Stable 64-bit content fingerprint (FNV-1a over the canonical
    /// encoding). Two descriptors fingerprint equal iff they elaborate
    /// to the same stencil — the advisor's canonical cache keys and the
    /// precompute store key inline descriptors by this.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&[self.dim.rank() as u8]);
        eat(&self.radius.to_le_bytes());
        // Fingerprint the *elaborated* neighborhood so Star/Box/Custom
        // spellings of the same stencil collapse to one key.
        for off in self.footprint.offsets(self.dim, self.radius) {
            for o in off {
                eat(&o.to_le_bytes());
            }
        }
        for c in &self.coefficients {
            eat(&c.to_bits().to_le_bytes());
        }
        eat(&self.constant.to_bits().to_le_bytes());
        eat(&self.extra_flops.to_le_bytes());
        h
    }

    /// The microbench RNG stream selector. Paper stencils return their
    /// preset-table row, so `measure_citer`'s `seed ^ stream` keeps the
    /// random sequence Table 3/4 values were measured with (pinned by
    /// `tests/presets.rs`); every other stencil gets a content-derived
    /// stream with the high bit set so it can never collide with a
    /// paper row.
    pub fn rng_stream(&self) -> u64 {
        match self.paper_row {
            Some(row) => row as u64,
            None => self.fingerprint() | (1 << 63),
        }
    }

    /// A canonical-key token: the table name for paper stencils (stable
    /// across processes and existing cache entries), or
    /// `custom-<fingerprint-hex>` for every other stencil.
    pub fn key_token(&self) -> String {
        match self.paper_row {
            Some(row) => PRESETS[row].name.to_string(),
            None => format!("custom-{:016x}", self.fingerprint()),
        }
    }

    // ---- named stencils ------------------------------------------------

    /// The descriptor of one preset-table row. Paper rows remember
    /// their row for [`Self::rng_stream`] and [`Self::key_token`].
    fn preset(row: usize) -> StencilDescriptor {
        let p = &PRESETS[row];
        let d = StencilDescriptor {
            name: p.name.to_string(),
            dim: p.dim,
            radius: p.radius,
            footprint: match p.offsets {
                None => Footprint::Star,
                Some(offsets) => Footprint::Custom(offsets.to_vec()),
            },
            coefficients: p.coefficients.to_vec(),
            constant: 0.0,
            extra_flops: p.extra_flops,
            paper_row: (row < PAPER_ROWS).then_some(row),
        };
        debug_assert_eq!(d.validate(), Ok(()));
        d
    }

    /// 3-point 1D Jacobi average — the stencil the paper derives its
    /// model on (Section 4.1, Figure 1).
    pub fn jacobi1d() -> StencilDescriptor {
        Self::preset(0)
    }

    /// 5-point 2D Jacobi average.
    pub fn jacobi2d() -> StencilDescriptor {
        Self::preset(1)
    }

    /// 5-point 2D heat equation (explicit Euler step).
    pub fn heat2d() -> StencilDescriptor {
        Self::preset(2)
    }

    /// 5-point 2D Laplacian smoothing step.
    pub fn laplacian2d() -> StencilDescriptor {
        Self::preset(3)
    }

    /// 9-point 2D gradient/Sobel-style smoothing, with roughly twice
    /// the arithmetic of the 5-point stencils (Table 4's Gradient2D
    /// `Citer` is ≈ 2× Jacobi2D's).
    pub fn gradient2d() -> StencilDescriptor {
        Self::preset(4)
    }

    /// 7-point 3D Jacobi average (model exposition, Section 4.3).
    pub fn jacobi3d() -> StencilDescriptor {
        Self::preset(5)
    }

    /// 7-point 3D heat equation.
    pub fn heat3d() -> StencilDescriptor {
        Self::preset(6)
    }

    /// 7-point 3D Laplacian smoothing step.
    pub fn laplacian3d() -> StencilDescriptor {
        Self::preset(7)
    }

    /// Radius-2 star 2D: a 4th-order-accurate Laplacian smoothing step
    /// (central finite differences, smoothing weight `α = 0.05`). The
    /// first non-paper citizen of the stencil zoo — its larger halo is
    /// where hexagonal-tiling redundancy genuinely differs from Jacobi.
    pub fn lap4_2d() -> StencilDescriptor {
        Self::preset(8)
    }

    /// 7-point 3D upwind-style advection-diffusion step with
    /// *asymmetric* coefficients (flow-direction bias): the second zoo
    /// stencil, exercising non-symmetric tables through the whole
    /// pipeline.
    pub fn advect3d() -> StencilDescriptor {
        Self::preset(9)
    }

    /// The paper's benchmark suite for one dimensionality: the 2D and
    /// 3D experiment suites of Section 5, and the expository Jacobi 1D.
    pub fn paper(dim: StencilDim) -> Vec<StencilDescriptor> {
        match dim {
            StencilDim::D1 => vec![Self::jacobi1d()],
            StencilDim::D2 => vec![
                Self::jacobi2d(),
                Self::heat2d(),
                Self::laplacian2d(),
                Self::gradient2d(),
            ],
            StencilDim::D3 => vec![Self::heat3d(), Self::laplacian3d()],
        }
    }

    /// The six stencils with a `Citer` entry in the paper's Table 4: the
    /// 2D suite, then the 3D suite.
    pub fn table4() -> Vec<StencilDescriptor> {
        let mut v = Self::paper(StencilDim::D2);
        v.extend(Self::paper(StencilDim::D3));
        v
    }

    /// The non-paper zoo stencils with committed Figure-3/Figure-6
    /// artifacts.
    pub fn zoo() -> Vec<StencilDescriptor> {
        (PAPER_ROWS..PRESETS.len()).map(Self::preset).collect()
    }

    /// Look up a named stencil, case-insensitively.
    pub fn from_name(name: &str) -> Option<StencilDescriptor> {
        PRESETS
            .iter()
            .position(|p| p.name.eq_ignore_ascii_case(name))
            .map(Self::preset)
    }

    /// Every named stencil: the paper rows in table order, then the zoo.
    pub fn named() -> Vec<StencilDescriptor> {
        (0..PRESETS.len()).map(Self::preset).collect()
    }
}

/// One row of the named-stencil table.
struct Preset {
    name: &'static str,
    dim: StencilDim,
    radius: i64,
    /// `None` is the star footprint; `Some` lists the offsets in their
    /// historical (accumulation) order.
    offsets: Option<&'static [[i64; 3]]>,
    coefficients: &'static [f32],
    extra_flops: u32,
}

/// The first `PAPER_ROWS` rows of [`PRESETS`] are the paper's stencils;
/// a paper row's index is its microbench RNG stream.
const PAPER_ROWS: usize = 8;

/// Diffusion coefficient of the Heat stencils.
const ALPHA: f32 = 0.125;
/// Lap4_2D's smoothing weight and its ±1 / ±2 axial taps.
const LAP4_ALPHA: f32 = 0.05;
const LAP4_AX1: f32 = LAP4_ALPHA * (4.0 / 3.0);
const LAP4_AX2: f32 = LAP4_ALPHA * (-1.0 / 12.0);

/// Every named stencil. Row order is part of the contract: it fixes
/// [`StencilDescriptor::named`] and the paper rows' RNG streams.
const PRESETS: [Preset; 10] = [
    Preset {
        name: "Jacobi1D",
        dim: StencilDim::D1,
        radius: 1,
        // Historical order −1, 0, +1 (not center-first).
        offsets: Some(&[[-1, 0, 0], [0, 0, 0], [1, 0, 0]]),
        coefficients: &[1.0 / 3.0; 3],
        extra_flops: 0,
    },
    Preset {
        name: "Jacobi2D",
        dim: StencilDim::D2,
        radius: 1,
        offsets: None,
        coefficients: &[0.2; 5],
        extra_flops: 0,
    },
    Preset {
        name: "Heat2D",
        dim: StencilDim::D2,
        radius: 1,
        offsets: None,
        coefficients: &[1.0 - 4.0 * ALPHA, ALPHA, ALPHA, ALPHA, ALPHA],
        // Real heat loops also scale by dt/h²: two extra flops per point.
        extra_flops: 2,
    },
    Preset {
        name: "Laplacian2D",
        dim: StencilDim::D2,
        radius: 1,
        offsets: None,
        coefficients: &[0.5, 0.125, 0.125, 0.125, 0.125],
        extra_flops: 0,
    },
    Preset {
        name: "Gradient2D",
        dim: StencilDim::D2,
        radius: 1,
        // Center, axes, then diagonals — not row-major, so not a Box.
        offsets: Some(&[
            [0, 0, 0],
            [-1, 0, 0],
            [1, 0, 0],
            [0, -1, 0],
            [0, 1, 0],
            [-1, -1, 0],
            [-1, 1, 0],
            [1, -1, 0],
            [1, 1, 0],
        ]),
        coefficients: &[0.2, 0.15, 0.15, 0.15, 0.15, 0.05, 0.05, 0.05, 0.05],
        // Gradient magnitude (two directional sums, squares, a rational
        // sqrt approximation) beyond the convolution itself.
        extra_flops: 8,
    },
    Preset {
        name: "Jacobi3D",
        dim: StencilDim::D3,
        radius: 1,
        offsets: None,
        coefficients: &[1.0 / 7.0; 7],
        extra_flops: 0,
    },
    Preset {
        name: "Heat3D",
        dim: StencilDim::D3,
        radius: 1,
        offsets: None,
        coefficients: &[1.0 - 6.0 * ALPHA, ALPHA, ALPHA, ALPHA, ALPHA, ALPHA, ALPHA],
        extra_flops: 2,
    },
    Preset {
        name: "Laplacian3D",
        dim: StencilDim::D3,
        radius: 1,
        offsets: None,
        coefficients: &[0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
        extra_flops: 0,
    },
    Preset {
        name: "Lap4_2D",
        dim: StencilDim::D2,
        radius: 2,
        offsets: None,
        // Star order: center, x ∓1, x ∓2, y ∓1, y ∓2.
        coefficients: &[
            1.0 - 5.0 * LAP4_ALPHA,
            LAP4_AX1,
            LAP4_AX1,
            LAP4_AX2,
            LAP4_AX2,
            LAP4_AX1,
            LAP4_AX1,
            LAP4_AX2,
            LAP4_AX2,
        ],
        extra_flops: 0,
    },
    Preset {
        name: "Advect3D",
        dim: StencilDim::D3,
        radius: 1,
        offsets: None,
        // Star order: center, −x, +x, −y, +y, −z, +z.
        coefficients: &[0.4, 0.15, 0.05, 0.12, 0.08, 0.14, 0.06],
        extra_flops: 2,
    },
];

impl std::fmt::Display for StencilDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_enumeration_order_is_the_paper_order() {
        let offs = Footprint::Star.offsets(StencilDim::D2, 1);
        assert_eq!(
            offs,
            vec![[0, 0, 0], [-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, 0]]
        );
        let offs3 = Footprint::Star.offsets(StencilDim::D3, 1);
        assert_eq!(offs3.len(), 7);
        assert_eq!(offs3[5], [0, 0, -1]);
        // Radius 2: distances group per dimension, nearest first.
        let r2 = Footprint::Star.offsets(StencilDim::D2, 2);
        assert_eq!(
            r2,
            vec![
                [0, 0, 0],
                [-1, 0, 0],
                [1, 0, 0],
                [-2, 0, 0],
                [2, 0, 0],
                [0, -1, 0],
                [0, 1, 0],
                [0, -2, 0],
                [0, 2, 0],
            ]
        );
    }

    #[test]
    fn box_enumeration_is_row_major() {
        let offs = Footprint::Box.offsets(StencilDim::D2, 1);
        assert_eq!(offs.len(), 9);
        assert_eq!(offs[0], [-1, -1, 0]);
        assert_eq!(offs[4], [0, 0, 0]);
        assert_eq!(offs[8], [1, 1, 0]);
        assert_eq!(Footprint::Box.points(StencilDim::D3, 1), 27);
        assert_eq!(Footprint::Box.points(StencilDim::D1, 2), 5);
    }

    #[test]
    fn zoo_stencils_validate_and_average() {
        let lap4 = StencilDescriptor::lap4_2d();
        assert_eq!(lap4.radius, 2);
        assert_eq!(lap4.spec().order(), 2);
        assert_eq!(lap4.reads_per_point(), 9);
        assert!((lap4.weight_sum() - 1.0).abs() < 1e-6);
        assert_eq!(
            lap4.key_token(),
            format!("custom-{:016x}", lap4.fingerprint())
        );
        assert!(lap4.rng_stream() >= (1 << 63));

        let adv = StencilDescriptor::advect3d();
        assert_eq!(adv.radius, 1);
        assert_eq!(adv.spec().order(), 1);
        assert_eq!(adv.reads_per_point(), 7);
        assert!((adv.weight_sum() - 1.0).abs() < 1e-6);
        // Asymmetric: the ∓x weights differ.
        assert_ne!(adv.coefficients[1], adv.coefficients[2]);
    }

    #[test]
    fn validation_catches_mismatches() {
        // Coefficient-table length mismatch.
        assert!(StencilDescriptor::new(
            "bad",
            StencilDim::D2,
            1,
            Footprint::Star,
            vec![1.0; 4],
            0.0,
            0
        )
        .is_err());
        // Radius out of range.
        assert!(StencilDescriptor::new(
            "bad",
            StencilDim::D1,
            0,
            Footprint::Star,
            vec![1.0],
            0.0,
            0
        )
        .is_err());
        assert!(StencilDescriptor::new(
            "bad",
            StencilDim::D1,
            9,
            Footprint::Star,
            vec![1.0; 19],
            0.0,
            0
        )
        .is_err());
        // Custom offsets referencing unused dimensions.
        assert!(StencilDescriptor::new(
            "bad",
            StencilDim::D1,
            1,
            Footprint::Custom(vec![[0, 1, 0]]),
            vec![1.0],
            0.0,
            0
        )
        .is_err());
        // Custom radius not matching the declared radius.
        assert!(StencilDescriptor::new(
            "bad",
            StencilDim::D1,
            2,
            Footprint::Custom(vec![[-1, 0, 0], [1, 0, 0]]),
            vec![0.5, 0.5],
            0.0,
            0
        )
        .is_err());
        // An empty custom footprint.
        assert!(StencilDescriptor::new(
            "bad",
            StencilDim::D1,
            1,
            Footprint::Custom(vec![]),
            vec![],
            0.0,
            0
        )
        .is_err());
        // Duplicate custom offsets.
        assert!(StencilDescriptor::new(
            "bad",
            StencilDim::D1,
            1,
            Footprint::Custom(vec![[1, 0, 0], [1, 0, 0]]),
            vec![0.5, 0.5],
            0.0,
            0
        )
        .is_err());
        // A good one for contrast.
        assert!(StencilDescriptor::new(
            "ok",
            StencilDim::D2,
            2,
            Footprint::Star,
            vec![0.2; 9],
            0.0,
            0
        )
        .is_ok());
    }

    #[test]
    fn fingerprint_distinguishes_content_not_spelling() {
        // Same stencil spelled Star vs Custom fingerprints identically…
        let star = StencilDescriptor::new(
            "a",
            StencilDim::D2,
            1,
            Footprint::Star,
            vec![0.2; 5],
            0.0,
            0,
        )
        .unwrap();
        let custom = StencilDescriptor::new(
            "b",
            StencilDim::D2,
            1,
            Footprint::Custom(vec![
                [0, 0, 0],
                [-1, 0, 0],
                [1, 0, 0],
                [0, -1, 0],
                [0, 1, 0],
            ]),
            vec![0.2; 5],
            0.0,
            0,
        )
        .unwrap();
        assert_eq!(star.fingerprint(), custom.fingerprint());
        // …while any content change moves it.
        let mut other = star.clone();
        other.coefficients[0] = 0.25;
        assert_ne!(star.fingerprint(), other.fingerprint());
        let mut extra = star.clone();
        extra.extra_flops = 1;
        assert_ne!(star.fingerprint(), extra.fingerprint());
    }

    #[test]
    fn from_name_resolves_presets_and_zoo() {
        assert_eq!(
            StencilDescriptor::from_name("heat2d"),
            Some(StencilDescriptor::heat2d())
        );
        assert_eq!(StencilDescriptor::from_name("Lap4_2D").unwrap().radius, 2);
        assert_eq!(
            StencilDescriptor::from_name("advect3d").unwrap().dim,
            StencilDim::D3
        );
        assert!(StencilDescriptor::from_name("NoSuch").is_none());
        assert_eq!(StencilDescriptor::named().len(), 10);
    }

    #[test]
    fn constructors_and_groups_name_their_rows() {
        let names = |v: Vec<StencilDescriptor>| v.into_iter().map(|d| d.name).collect::<Vec<_>>();
        let constructors = [
            StencilDescriptor::jacobi1d(),
            StencilDescriptor::jacobi2d(),
            StencilDescriptor::heat2d(),
            StencilDescriptor::laplacian2d(),
            StencilDescriptor::gradient2d(),
            StencilDescriptor::jacobi3d(),
            StencilDescriptor::heat3d(),
            StencilDescriptor::laplacian3d(),
            StencilDescriptor::lap4_2d(),
            StencilDescriptor::advect3d(),
        ];
        assert_eq!(constructors.to_vec(), StencilDescriptor::named());
        assert_eq!(
            names(StencilDescriptor::table4()),
            [
                "Jacobi2D",
                "Heat2D",
                "Laplacian2D",
                "Gradient2D",
                "Heat3D",
                "Laplacian3D"
            ]
        );
        assert_eq!(
            names(StencilDescriptor::paper(StencilDim::D1)),
            ["Jacobi1D"]
        );
        for dim in StencilDim::ALL {
            assert!(StencilDescriptor::paper(dim).iter().all(|d| d.dim == dim));
        }
        assert_eq!(names(StencilDescriptor::zoo()), ["Lap4_2D", "Advect3D"]);
    }

    #[test]
    fn extreme_offsets_and_non_finite_values_are_errors() {
        let custom = |offsets: Vec<[i64; 3]>, coefficients: Vec<f32>, constant: f32| {
            StencilDescriptor::new(
                "bad",
                StencilDim::D1,
                1,
                Footprint::Custom(offsets),
                coefficients,
                constant,
                0,
            )
        };
        // Negating i64::MIN overflows; the bound check must not.
        let err = custom(vec![[i64::MIN, 0, 0]], vec![1.0], 0.0).unwrap_err();
        assert!(
            err.contains("Chebyshev radius 9223372036854775808"),
            "{err}"
        );
        assert!(custom(vec![[i64::MAX, 0, 0]], vec![1.0], 0.0).is_err());
        // 1e39 is finite as f64 but infinite once stored as f32.
        let err = custom(vec![[-1, 0, 0], [1, 0, 0]], vec![0.5, 1e39f64 as f32], 0.0).unwrap_err();
        assert!(err.contains("coefficient #1 is inf"), "{err}");
        assert!(custom(vec![[1, 0, 0]], vec![f32::NAN], 0.0).is_err());
        let err = custom(vec![[1, 0, 0]], vec![1.0], -1e39f64 as f32).unwrap_err();
        assert!(err.contains("constant is -inf"), "{err}");
        assert!(custom(vec![[1, 0, 0]], vec![1.0], f32::MAX).is_ok());
    }
}
