//! Every block class of every wavefront, bit for bit, against a committed
//! fixture.
//!
//! `fixtures/plan_geometry.txt` was generated when `PlanGeometry::build`
//! still counted footprints by enumerating every point of every boundary
//! tile and sub-tile. Each case line folds every wavefront's
//! [`BlockClass`] fields into one FNV-1a digest and records the kernel
//! count and `mtile_words`; each `foot` line records the unclipped
//! `exact_input_footprint` / `exact_output_footprint` of two tiles.
//! The cases cover every named preset (radius 1 and 2, 1D to 3D), gapped
//! and one-sided custom offsets, `S1` narrower than one pitch and not a
//! multiple of it, and `T` below, at a multiple of, and half-way between
//! multiples of `t_T`.

use hhc_tiling::hex::{Phase, TileId};
use hhc_tiling::{AxisClass, BlockClass, HexTiling, PlanGeometry, TileSizes};
use stencil_core::{Footprint, ProblemSize, StencilDescriptor, StencilDim};

/// 64-bit FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, vs: &[u64]) {
        self.word(vs.len() as u64);
        vs.iter().for_each(|&v| self.word(v));
    }

    fn axis(&mut self, axis: &[AxisClass]) {
        self.word(axis.len() as u64);
        for c in axis {
            self.word(c.count);
            self.words(&c.widths);
        }
    }

    fn class(&mut self, c: &BlockClass) {
        self.word(c.count);
        self.words(&c.s1_widths);
        self.words(&c.mi_rows);
        self.words(&c.mo_rows);
        self.axis(&c.axis2);
        self.axis(&c.axis3);
    }
}

fn custom(name: &str, dim: StencilDim, radius: i64, offsets: Vec<[i64; 3]>) -> StencilDescriptor {
    let n = offsets.len();
    StencilDescriptor::new(
        name,
        dim,
        radius,
        Footprint::Custom(offsets),
        vec![1.0 / n as f32; n],
        0.0,
        0,
    )
    .expect("fixture descriptors validate")
}

/// `(case name, stencil, problem, tiles)`.
fn cases() -> Vec<(&'static str, StencilDescriptor, ProblemSize, TileSizes)> {
    use StencilDescriptor as D;
    let gapped = custom(
        "gapped1d",
        StencilDim::D1,
        3,
        vec![[-3, 0, 0], [0, 0, 0], [3, 0, 0]],
    );
    let one_sided = custom(
        "upwind2d",
        StencilDim::D2,
        2,
        vec![[0, 0, 0], [-1, 0, 0], [-2, 0, 0], [0, -1, 0]],
    );
    vec![
        // S1 = 1000 is not a multiple of the pitch 32; T ≢ 0, t_T/2.
        (
            "jacobi1d",
            D::jacobi1d(),
            ProblemSize::new_1d(1000, 37),
            TileSizes::new_1d(8, 12),
        ),
        // S1 = 5 under one pitch (12), T = 9 above t_T = 8.
        (
            "jacobi1d_narrow",
            D::jacobi1d(),
            ProblemSize::new_1d(5, 9),
            TileSizes::new_1d(8, 2),
        ),
        // T ≡ 0 (mod t_T); S1 = 512 not a multiple of the pitch 40.
        (
            "jacobi2d",
            D::jacobi2d(),
            ProblemSize::new_2d(512, 512, 64),
            TileSizes::new_2d(8, 16, 32),
        ),
        // T ≡ t_T/2 (mod t_T).
        (
            "heat2d",
            D::heat2d(),
            ProblemSize::new_2d(300, 300, 36),
            TileSizes::new_2d(8, 8, 16),
        ),
        // S1 = 20 under one pitch (40), T = 6 under t_T = 8.
        (
            "laplacian2d_narrow",
            D::laplacian2d(),
            ProblemSize::new_2d(20, 64, 6),
            TileSizes::new_2d(8, 16, 32),
        ),
        (
            "gradient2d",
            D::gradient2d(),
            ProblemSize::new_2d(256, 200, 50),
            TileSizes::new_2d(6, 10, 24),
        ),
        // T ≡ 0 (mod t_T) in 3D.
        (
            "jacobi3d",
            D::jacobi3d(),
            ProblemSize::new_3d(48, 48, 48, 16),
            TileSizes::new_3d(4, 4, 8, 16),
        ),
        // T ≡ t_T/2 (mod t_T) in 3D, unequal extents.
        (
            "heat3d",
            D::heat3d(),
            ProblemSize::new_3d(40, 36, 44, 10),
            TileSizes::new_3d(4, 6, 4, 8),
        ),
        // T < t_T in 3D.
        (
            "laplacian3d",
            D::laplacian3d(),
            ProblemSize::new_3d(30, 30, 30, 7),
            TileSizes::new_3d(8, 4, 4, 4),
        ),
        // Radius 2: slope-2 hexagons and inner skews.
        (
            "lap4_2d",
            D::lap4_2d(),
            ProblemSize::new_2d(256, 256, 64),
            TileSizes::new_2d(4, 16, 64),
        ),
        (
            "lap4_2d_ragged",
            D::lap4_2d(),
            ProblemSize::new_2d(100, 80, 20),
            TileSizes::new_2d(6, 8, 16),
        ),
        (
            "advect3d",
            D::advect3d(),
            ProblemSize::new_3d(48, 48, 48, 12),
            TileSizes::new_3d(2, 8, 4, 32),
        ),
        // Gapped axis-0 offsets {−3, 0, 3}.
        (
            "gapped1d",
            gapped,
            ProblemSize::new_1d(500, 40),
            TileSizes::new_1d(6, 10),
        ),
        // One-sided axis-0 offsets {−2, −1, 0}.
        (
            "upwind2d",
            one_sided,
            ProblemSize::new_2d(200, 150, 30),
            TileSizes::new_2d(4, 12, 16),
        ),
    ]
}

fn render_case(name: &str, g: &PlanGeometry) -> String {
    let mut h = Fnv::new();
    let mut classes = 0;
    for wf in &g.wavefronts {
        h.word(wf.classes.len() as u64);
        classes += wf.classes.len();
        wf.classes.iter().for_each(|c| h.class(c));
    }
    format!(
        "{name} kernels={} mtile={} classes={classes} digest={:016x}",
        g.wavefronts.len(),
        g.mtile_words,
        h.0
    )
}

fn render_footprints(hx: HexTiling, tag: &str, offsets: &[[i64; 3]]) -> String {
    let mut ins = Vec::new();
    let mut outs = Vec::new();
    for (q, phase, j) in [(-1, Phase::A, -1), (3, Phase::B, 2)] {
        let id = TileId { q, phase, j };
        ins.push(hx.exact_input_footprint(id, offsets));
        outs.push(hx.exact_output_footprint(id, offsets));
    }
    format!(
        "foot ts={} tt={} slope={} {tag} in={ins:?} out={outs:?}",
        hx.t_s, hx.t_t, hx.slope
    )
}

fn render_all() -> Vec<String> {
    let mut lines: Vec<String> = cases()
        .into_iter()
        .map(|(name, d, size, tiles)| {
            let g = PlanGeometry::build(&d.spec(), &size, tiles).expect("fixture plans build");
            render_case(name, &g)
        })
        .collect();
    let axis0 = |v: &[i64]| v.iter().map(|&a| [a, 0, 0]).collect::<Vec<_>>();
    let offsets = [
        ("a=-1,0,1", axis0(&[-1, 0, 1])),
        ("a=-2..2", axis0(&[-2, -1, 0, 1, 2])),
        ("a=-3,0,3", axis0(&[-3, 0, 3])),
        ("a=-2,-1,0", axis0(&[-2, -1, 0])),
        ("a=0,0,1", vec![[0, 0, 0], [0, 1, 0], [1, 0, 0]]),
    ];
    for hx in [
        HexTiling::new(4, 4),
        HexTiling::new(8, 6),
        HexTiling::new(1, 2),
        HexTiling::with_slope(3, 4, 2),
        HexTiling::with_slope(6, 6, 3),
    ] {
        for (tag, offs) in &offsets {
            lines.push(render_footprints(hx, tag, offs));
        }
    }
    lines
}

#[test]
fn plan_geometry_matches_the_fixture() {
    let fixture = include_str!("fixtures/plan_geometry.txt");
    let want: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let got = render_all();
    assert_eq!(
        got.len(),
        want.len(),
        "one fixture line per case; current lines:\n{}",
        got.join("\n")
    );
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
}
