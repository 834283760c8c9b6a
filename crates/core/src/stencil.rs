//! Elaborated stencils: neighborhood offsets, weights, and operation
//! counts, as every executor, plan, simulator and model consumes them.
//!
//! The paper (Section 3) considers *convolutional* (Jacobi-style, not
//! Gauss-Seidel) stencils: every point at time `t` is a weighted sum of a
//! fixed neighborhood of points at time `t − 1`, plus a constant. A
//! [`StencilSpec`] is built only by
//! [`StencilDescriptor::spec`](crate::StencilDescriptor::spec) from a
//! descriptor its constructors have validated.

use serde::{Deserialize, Serialize};

/// Number of *space* dimensions of a stencil (the iteration space has one
/// additional time dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StencilDim {
    /// One space dimension: the iteration space is the 2D `S × T`
    /// rectangle of the paper's Figure 1; pure hexagonal tiling applies.
    D1,
    /// Two space dimensions: hexagonal tiling on `(t, s1)` and classic
    /// time-skewed tiling along `s2` (paper Figure 2).
    D2,
    /// Three space dimensions: hexagonal tiling on `(t, s1)` and classic
    /// time-skewed tiling along `s2` and `s3`.
    D3,
}

impl StencilDim {
    /// Every dimensionality, in rank order.
    pub const ALL: [StencilDim; 3] = [StencilDim::D1, StencilDim::D2, StencilDim::D3];

    /// Number of space dimensions as an integer.
    #[inline]
    pub fn rank(self) -> usize {
        match self {
            StencilDim::D1 => 1,
            StencilDim::D2 => 2,
            StencilDim::D3 => 3,
        }
    }
}

/// One element of a stencil neighborhood: a relative space offset `a`
/// (time offset is always −1) and its coefficient `w_a`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Relative coordinates in up to three space dimensions; unused
    /// trailing dimensions are zero.
    pub offset: [i64; 3],
    /// Convolution coefficient `w_a` from the paper's Eqn (1).
    pub weight: f32,
}

impl Neighbor {
    /// Convenience constructor.
    #[inline]
    pub fn new(offset: [i64; 3], weight: f32) -> Self {
        Neighbor { offset, weight }
    }
}

/// A fully-elaborated convolutional stencil: the paper's Eqn (1) as data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StencilSpec {
    /// Number of space dimensions.
    pub dim: StencilDim,
    /// The neighborhood `N` with coefficients `w_a`.
    pub neighbors: Vec<Neighbor>,
    /// The additive constant `c` of Eqn (1).
    pub constant: f32,
    /// Extra per-point floating-point operations performed by the loop
    /// body beyond the plain convolution (e.g. scaling, gradient
    /// magnitude). Feeds FLOP accounting and the simulator's per-iteration
    /// cost, mirroring how the paper's `Citer` depends on the "types and
    /// number of operations in the loop body".
    pub extra_flops: u32,
}

impl StencilSpec {
    /// The stencil order: maximum Chebyshev (max-norm) distance of any
    /// neighbor offset. All paper benchmarks are first-order, which the
    /// HHC hexagon slopes of ±1 rely on; a descriptor's radius is its order.
    pub fn order(&self) -> i64 {
        self.neighbors
            .iter()
            .flat_map(|n| n.offset.iter().map(|o| o.abs()))
            .max()
            .unwrap_or(0)
    }

    /// Floating-point operations per stencil point: one multiply per
    /// neighbor, adds to reduce them, one add for the constant when it is
    /// non-zero, plus the loop body's extra flops.
    ///
    /// This is the FLOP count used for the GFLOPS/s numbers of the
    /// paper's Figure 6.
    pub fn flops_per_point(&self) -> u64 {
        let n = self.neighbors.len() as u64;
        let muls = n;
        let adds = n.saturating_sub(1) + u64::from(self.constant != 0.0);
        muls + adds + u64::from(self.extra_flops)
    }

    /// Evaluate the stencil at one point given a neighbor-fetch closure.
    ///
    /// `fetch(offset)` must return the value of `A_{t-1}(s + offset)`
    /// (with whatever boundary handling the caller implements). The
    /// summation order is the declaration order of [`Self::neighbors`],
    /// which every executor in this workspace uses — so results are
    /// bit-for-bit comparable across executors.
    #[inline]
    pub fn apply<F: FnMut(&[i64; 3]) -> f32>(&self, mut fetch: F) -> f32 {
        let mut acc = 0.0f32;
        for nb in &self.neighbors {
            acc += nb.weight * fetch(&nb.offset);
        }
        acc + self.constant
    }

    /// Sum of the neighborhood coefficients. Averaging stencils (Jacobi,
    /// Heat, Gradient) have weight sum exactly 1, so constant fields are
    /// fixed points — a key correctness property test.
    pub fn weight_sum(&self) -> f32 {
        self.neighbors.iter().map(|n| n.weight).sum()
    }

    /// Number of distinct values read per point (neighborhood size).
    #[inline]
    pub fn reads_per_point(&self) -> usize {
        self.neighbors.len()
    }

    /// Compile this stencil against a concrete grid shape into a
    /// [`RowKernel`] for branch-free interior sweeps.
    pub fn row_kernel(&self, sizes: [usize; 3]) -> RowKernel {
        RowKernel::new(self, sizes)
    }
}

/// A stencil specialized to one grid shape: neighbor offsets flattened to
/// row-major index deltas so interior rows can be computed with direct
/// slice indexing — no per-neighbor closure, no `Option` bounds check.
///
/// The kernel is only valid for *interior* points, where every neighbor
/// lands inside the domain; callers clip sweeps with [`Self::off_min`] /
/// [`Self::off_max`] and fall back to [`StencilSpec::apply`] on boundary
/// points. Accumulation order is the neighbor declaration order with the
/// same `acc += w · x` chain as `apply`, so results are bit-for-bit
/// identical (rustc does not reassociate floats without fast-math).
#[derive(Debug, Clone)]
pub struct RowKernel {
    /// `(flat index delta, weight)` per neighbor, declaration order.
    taps: Vec<(isize, f32)>,
    constant: f32,
    /// Per-dimension minimum neighbor offset (≤ 0).
    off_min: [i64; 3],
    /// Per-dimension maximum neighbor offset (≥ 0).
    off_max: [i64; 3],
    /// The unit-stride sweep axis: the last *used* dimension (trailing
    /// extents are 1, so its row-major stride is 1).
    sweep_axis: usize,
}

impl RowKernel {
    fn new(spec: &StencilSpec, sizes: [usize; 3]) -> Self {
        let [_, n2, n3] = sizes;
        let mut off_min = [0i64; 3];
        let mut off_max = [0i64; 3];
        let taps = spec
            .neighbors
            .iter()
            .map(|nb| {
                for d in 0..3 {
                    off_min[d] = off_min[d].min(nb.offset[d]);
                    off_max[d] = off_max[d].max(nb.offset[d]);
                }
                let [o1, o2, o3] = nb.offset;
                let flat = (o1 * n2 as i64 + o2) * n3 as i64 + o3;
                (flat as isize, nb.weight)
            })
            .collect();
        RowKernel {
            taps,
            constant: spec.constant,
            off_min,
            off_max,
            sweep_axis: spec.dim.rank() - 1,
        }
    }

    /// Per-dimension minimum neighbor offset (≤ 0 componentwise).
    #[inline]
    pub fn off_min(&self) -> [i64; 3] {
        self.off_min
    }

    /// Per-dimension maximum neighbor offset (≥ 0 componentwise).
    #[inline]
    pub fn off_max(&self) -> [i64; 3] {
        self.off_max
    }

    /// The unit-stride axis this kernel sweeps (0-based space dimension).
    #[inline]
    pub fn sweep_axis(&self) -> usize {
        self.sweep_axis
    }

    /// Compute `dst[i] = Σ w·src[i + Δ] + c` for every flat index
    /// `i ∈ [lo, hi]` with the vectorized blocked kernel (see
    /// [`mod@crate::simd`]): [`crate::simd::BLOCK_WIDTH`] output points
    /// per iteration, each lane running the identical per-point scalar
    /// sequence, so the result is bit-for-bit equal to
    /// [`Self::apply_span_scalar`]. All points must be interior: every
    /// `i + Δ` must be a valid index of `src` (panics on out-of-range in
    /// debug and release via slice indexing — never reads out of bounds).
    #[inline]
    pub fn apply_span(&self, src: &[f32], dst: &mut [f32], lo: usize, hi: usize) {
        crate::simd::apply_span_auto(&self.taps, self.constant, src, dst, lo, hi)
    }

    /// The scalar reference sweep — one point at a time, taps in
    /// declaration order. This is the bit-identity oracle the vectorized
    /// [`Self::apply_span`] is pinned against, and the baseline the
    /// benches compare SIMD speedup to.
    #[inline]
    pub fn apply_span_scalar(&self, src: &[f32], dst: &mut [f32], lo: usize, hi: usize) {
        // Dispatch to a fixed-arity loop so LLVM fully unrolls the tap
        // reduction for the common neighborhood sizes (3/5/7/9-point).
        match self.taps.len() {
            3 => span_fixed::<3>(&self.taps, self.constant, src, dst, lo, hi),
            5 => span_fixed::<5>(&self.taps, self.constant, src, dst, lo, hi),
            7 => span_fixed::<7>(&self.taps, self.constant, src, dst, lo, hi),
            9 => span_fixed::<9>(&self.taps, self.constant, src, dst, lo, hi),
            _ => {
                for i in lo..=hi {
                    let mut acc = 0.0f32;
                    for &(d, w) in &self.taps {
                        acc += w * src[(i as isize + d) as usize];
                    }
                    dst[i] = acc + self.constant;
                }
            }
        }
    }

    /// [`Self::apply_span`] when `simd` is true, the scalar oracle
    /// otherwise — what separates the executor's `Fast` and `FastScalar`
    /// modes.
    #[inline]
    pub fn apply_span_mode(&self, simd: bool, src: &[f32], dst: &mut [f32], lo: usize, hi: usize) {
        if simd {
            self.apply_span(src, dst, lo, hi)
        } else {
            self.apply_span_scalar(src, dst, lo, hi)
        }
    }
}

#[inline]
fn span_fixed<const N: usize>(
    taps: &[(isize, f32)],
    constant: f32,
    src: &[f32],
    dst: &mut [f32],
    lo: usize,
    hi: usize,
) {
    let taps: [(isize, f32); N] = taps.try_into().expect("arity dispatch matches");
    for i in lo..=hi {
        let mut acc = 0.0f32;
        for (d, w) in taps {
            acc += w * src[(i as isize + d) as usize];
        }
        dst[i] = acc + constant;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Footprint, StencilDescriptor};

    #[test]
    fn averaging_stencils_have_unit_weight_sum() {
        // The smoothing Laplacians also average (sum 1); this documents it.
        for d in StencilDescriptor::named() {
            let s = d.spec();
            assert!(
                (s.weight_sum() - 1.0).abs() < 1e-6,
                "{d} weight sum = {}",
                s.weight_sum()
            );
        }
    }

    #[test]
    fn neighborhood_sizes() {
        assert_eq!(StencilDescriptor::jacobi1d().spec().reads_per_point(), 3);
        assert_eq!(StencilDescriptor::jacobi2d().spec().reads_per_point(), 5);
        assert_eq!(StencilDescriptor::gradient2d().spec().reads_per_point(), 9);
        assert_eq!(StencilDescriptor::heat3d().spec().reads_per_point(), 7);
    }

    #[test]
    fn gradient_costs_roughly_twice_jacobi() {
        // Matches Table 4's Citer ratio (6.09e-8 vs 3.39e-8 on GTX 980).
        let g = StencilDescriptor::gradient2d().spec().flops_per_point();
        let j = StencilDescriptor::jacobi2d().spec().flops_per_point();
        let ratio = g as f64 / j as f64;
        assert!((1.8..=3.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn apply_computes_weighted_sum() {
        let spec = StencilDescriptor::jacobi1d().spec();
        // Field f(x) = x: the 3-point average of (x-1, x, x+1) is x.
        let x = 5.0f32;
        let v = spec.apply(|off| x + off[0] as f32);
        assert!((v - x).abs() < 1e-6);
    }

    #[test]
    fn apply_adds_constant() {
        let mut spec = StencilDescriptor::jacobi1d().spec();
        spec.constant = 2.5;
        let v = spec.apply(|_| 0.0);
        assert!((v - 2.5).abs() < 1e-6);
    }

    #[test]
    fn flop_count_includes_constant_add() {
        let mut spec = StencilDescriptor::jacobi2d().spec();
        let base = spec.flops_per_point();
        spec.constant = 1.0;
        assert_eq!(spec.flops_per_point(), base + 1);
    }

    #[test]
    fn custom_descriptor_elaborates_in_offset_order() {
        let offsets = vec![[0, 0, 0], [-1, 1, 0], [1, -1, 0]];
        let spec = StencilDescriptor::new(
            "diag",
            StencilDim::D2,
            1,
            Footprint::Custom(offsets.clone()),
            vec![0.5, 0.25, 0.25],
            0.1,
            3,
        )
        .unwrap()
        .spec();
        assert_eq!(spec.order(), 1);
        assert_eq!(spec.reads_per_point(), 3);
        assert_eq!(spec.flops_per_point(), 3 + 2 + 1 + 3);
        let got: Vec<_> = spec.neighbors.iter().map(|n| n.offset).collect();
        assert_eq!(got, offsets);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // indexing two slices in lockstep
    fn row_kernel_matches_apply_on_interior() {
        // Every benchmark stencil, on a shape exercising all strides.
        let sizes = [6usize, 5, 4];
        let n = sizes[0] * sizes[1] * sizes[2];
        let src: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        for d in StencilDescriptor::named() {
            let spec = d.spec();
            let shape = match spec.dim {
                StencilDim::D1 => [sizes[0], 1, 1],
                StencilDim::D2 => [sizes[0], sizes[1], 1],
                StencilDim::D3 => sizes,
            };
            let len = shape[0] * shape[1] * shape[2];
            let k = spec.row_kernel(shape);
            assert_eq!(k.sweep_axis(), spec.dim.rank() - 1);
            let mut dst = vec![0.0f32; len];
            // Interior box: clip every dimension by the offsets.
            let lo: Vec<i64> = (0..3).map(|d| -k.off_min()[d]).collect();
            let hi: Vec<i64> = (0..3)
                .map(|d| shape[d] as i64 - 1 - k.off_max()[d])
                .collect();
            for s1 in lo[0]..=hi[0] {
                for s2 in lo[1]..=hi[1] {
                    let base = ((s1 * shape[1] as i64 + s2) * shape[2] as i64) as usize;
                    let (a, b) = if spec.dim.rank() == 3 {
                        (base + lo[2] as usize, base + hi[2] as usize)
                    } else if spec.dim.rank() == 2 {
                        // Sweep axis is s2: one span per s1 instead.
                        continue;
                    } else {
                        continue;
                    };
                    k.apply_span(&src[..len], &mut dst, a, b);
                    for i in a..=b {
                        let s3 = (i - base) as i64;
                        let expect = spec.apply(|off| {
                            let p = [s1 + off[0], s2 + off[1], s3 + off[2]];
                            let fi = (p[0] * shape[1] as i64 + p[1]) * shape[2] as i64 + p[2];
                            src[fi as usize]
                        });
                        assert_eq!(expect.to_bits(), dst[i].to_bits(), "{d}");
                    }
                }
            }
            // 1D/2D sweeps: span along the last used axis.
            if spec.dim.rank() < 3 {
                let axis = k.sweep_axis();
                let outer_hi = if spec.dim.rank() == 2 { hi[0] } else { 0 };
                let outer_lo = if spec.dim.rank() == 2 { lo[0] } else { 0 };
                for s_outer in outer_lo..=outer_hi {
                    let base = if axis == 1 {
                        (s_outer * shape[1] as i64) as usize
                    } else {
                        0
                    };
                    let (a, b) = (base + lo[axis] as usize, base + hi[axis] as usize);
                    k.apply_span(&src[..len], &mut dst, a, b);
                    for i in a..=b {
                        let s_ax = (i - base) as i64;
                        let expect = spec.apply(|off| {
                            let p = if axis == 1 {
                                [s_outer, s_ax, 0]
                            } else {
                                [s_ax, 0, 0]
                            };
                            let q = [p[0] + off[0], p[1] + off[1], p[2] + off[2]];
                            let fi = (q[0] * shape[1] as i64 + q[1]) * shape[2] as i64 + q[2];
                            src[fi as usize]
                        });
                        assert_eq!(expect.to_bits(), dst[i].to_bits(), "{d}");
                    }
                }
            }
        }
    }

    #[test]
    fn row_kernel_offsets_cover_neighborhood() {
        let k = StencilDescriptor::gradient2d()
            .spec()
            .row_kernel([16, 16, 1]);
        assert_eq!(k.off_min(), [-1, -1, 0]);
        assert_eq!(k.off_max(), [1, 1, 0]);
        assert_eq!(k.sweep_axis(), 1);
        let k3 = StencilDescriptor::heat3d().spec().row_kernel([8, 8, 8]);
        assert_eq!(k3.off_min(), [-1, -1, -1]);
        assert_eq!(k3.sweep_axis(), 2);
    }
}
