//! The model's predictions, pinned as data.
//!
//! `tests/fixtures/model_sweep_digests.txt` holds one line per paper
//! (device, stencil, size) experiment: the number of Eqn-31 feasible
//! tiles and an FNV-64 over every [`Prediction`] field of the sweep, in
//! sweep order. Three more lines per device pin a hand-picked tile grid
//! per rank that reaches corners the paper sweep does not (`t_S1 = 1`,
//! 2^20-point 1D domains, tiles past the shared-memory bound). Float
//! fields enter the digest by `to_bits()`, so a change of one ULP in
//! any prediction changes its line.
//!
//! The parameters are the paper's Table 3/4 values rather than
//! micro-benchmark draws, so the fixture moves only when the model's
//! arithmetic does.

use advisor::cache::fnv64;
use experiments::tables::paper_citer;
use gpu_sim::{DeviceConfig, Workload};
use hhc_tiling::TileSizes;
use stencil_core::{ProblemSize, StencilDescriptor, StencilDim};
use tile_opt::{feasible_space, SpaceConfig};
use time_model::{Correction, DimSpec, MeasuredParams, ModelParams, Prediction};

/// The paper's Table 3 parameters with the Table 4 `Citer` of `stencil`
/// on `device`. Table 4 lists no 1D stencil; Jacobi1D takes Jacobi2D's.
fn paper_params(device: &DeviceConfig, stencil: &StencilDescriptor) -> ModelParams {
    let citer = paper_citer(&stencil.name, &device.name)
        .or_else(|| paper_citer("Jacobi2D", &device.name))
        .expect("Table 4 lists Jacobi2D");
    ModelParams::from_measured(device, &MeasuredParams::paper_gtx980(citer))
}

/// The paper's per-dimension problem-size grids (Section 5; the 1D grid
/// is the expository-model extension the experiments crate checks).
fn paper_sizes(dim: StencilDim) -> Vec<ProblemSize> {
    use experiments::context::ExperimentScale;
    match dim.rank() {
        1 => ExperimentScale::Paper.sizes_1d(),
        2 => ProblemSize::paper_2d_sizes(),
        _ => ProblemSize::paper_3d_sizes(),
    }
}

/// `S1x..xT` in the CLI's `--size` spelling.
fn size_label(size: &ProblemSize) -> String {
    let space: Vec<String> = size.space[..size.dim.rank()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    format!("{}xT{}", space.join("x"), size.time)
}

/// The hand-picked (size, tiles) grid of one rank: cubic sizes of each
/// side and time-step count, crossed with every combination of the
/// `t_T`, `t_S1`, … values, the last coordinate varying fastest.
fn grid(dim: StencilDim) -> Vec<(ProblemSize, TileSizes)> {
    let (sides, times, axes): (&[usize], &[usize], &[&[usize]]) = match dim.rank() {
        1 => (
            &[4096, 1 << 18, 1 << 20],
            &[64, 512, 4096],
            &[&[2, 4, 8, 16, 32], &[1, 4, 16, 64, 128]],
        ),
        2 => (
            &[512, 2048, 4096],
            &[64, 1024],
            &[&[2, 8, 16, 48], &[1, 8, 24, 64], &[32, 128, 512]],
        ),
        _ => (
            &[96, 384, 640],
            &[32, 128, 384],
            &[&[2, 4, 8, 16], &[1, 4, 16], &[4, 16, 32], &[32, 128, 512]],
        ),
    };
    let mut coords = vec![Vec::new()];
    for axis in axes {
        coords = coords
            .iter()
            .flat_map(|c| axis.iter().map(move |&v| [c.as_slice(), &[v]].concat()))
            .collect();
    }
    let mut points = Vec::new();
    for &s in sides {
        for &t in times {
            let size = ProblemSize::from_extents(&vec![s; dim.rank()], t).expect("1-3 extents");
            for c in &coords {
                points.push((
                    size,
                    TileSizes::from_coords(dim, c).expect("rank + 1 coords"),
                ));
            }
        }
    }
    points
}

/// Every field of every prediction, in order, as little-endian bytes.
#[derive(Default)]
struct Digest {
    bytes: Vec<u8>,
    count: usize,
}

impl Digest {
    fn push(&mut self, p: &Prediction) {
        for word in [
            p.talg.to_bits(),
            p.m_prime.to_bits(),
            p.c.to_bits(),
            p.k as u64,
            p.nw as u64,
            p.w,
            p.mtile_words,
        ] {
            self.bytes.extend_from_slice(&word.to_le_bytes());
        }
        self.count += 1;
    }

    fn line(&self, device: &DeviceConfig, what: &str) -> String {
        format!(
            "{} | {what} | {} | {:016x}",
            device.name,
            self.count,
            fnv64(&self.bytes)
        )
    }
}

fn assert_bit_identical(a: &Prediction, b: &Prediction, ctx: &str) {
    assert_eq!(a.talg.to_bits(), b.talg.to_bits(), "talg at {ctx}");
    assert_eq!(a.m_prime.to_bits(), b.m_prime.to_bits(), "m_prime at {ctx}");
    assert_eq!(a.c.to_bits(), b.c.to_bits(), "c at {ctx}");
    assert_eq!(
        (a.k, a.nw, a.w, a.mtile_words),
        (b.k, b.nw, b.w, b.mtile_words),
        "k, nw, w, mtile_words at {ctx}"
    );
}

/// Predict one point, checking on the way that the calibration hook is
/// invisible when no correction is loaded (the `None` arm and the
/// explicit identity correction reproduce the uncorrected prediction
/// bit for bit) and that the `mtile_words` helper agrees.
fn predict_checked(
    spec: DimSpec,
    params: &ModelParams,
    size: &ProblemSize,
    tiles: &TileSizes,
    ctx: &str,
) -> Prediction {
    let pred = spec.predict(params, size, tiles);
    let none = spec.predict_with(params, size, tiles, None);
    assert_bit_identical(&none, &pred, ctx);
    let identity = spec.predict_with(params, size, tiles, Some(&Correction::IDENTITY));
    assert_bit_identical(&identity, &pred, ctx);
    assert_eq!(spec.mtile_words(tiles), pred.mtile_words, "helper at {ctx}");
    pred
}

/// The full sweep: paper devices × per-dimension benchmarks × paper
/// sizes × the Eqn-31 feasible space, then the per-rank grids, each
/// line against the fixture. The fixture was computed by the per-rank
/// models that preceded `DimSpec` (one module per paper section), so
/// matching it is matching them bit for bit.
#[test]
fn generic_dimspec_is_bit_identical_to_legacy_oracles_across_paper_sweep() {
    let cfg = SpaceConfig::default();
    let mut lines = Vec::new();
    let mut compared = 0;
    for device in DeviceConfig::paper_devices() {
        for dim in StencilDim::ALL {
            for stencil in StencilDescriptor::paper(dim) {
                let params = paper_params(&device, &stencil);
                let spec = DimSpec::for_stencil(&stencil);
                let sizes = paper_sizes(dim);
                // The Eqn-31 space depends only on the device and the
                // dimensionality, so enumerate it once per workload family.
                let workload = Workload::new(device.clone(), stencil.clone(), sizes[0])
                    .expect("benchmark and size dimensionalities agree");
                let tiles = feasible_space(&workload, &cfg);
                assert!(!tiles.is_empty(), "{} {stencil}: empty space", device.name);
                for size in &sizes {
                    let what = format!("{stencil} {}", size_label(size));
                    let mut digest = Digest::default();
                    for t in &tiles {
                        let ctx = format!("{} {what} tiles={t:?}", device.name);
                        digest.push(&predict_checked(spec, &params, size, t, &ctx));
                    }
                    compared += digest.count;
                    lines.push(digest.line(&device, &what));
                }
            }
        }
        for (dim, citer) in [
            (StencilDim::D1, 3.39e-8),
            (StencilDim::D2, 3.39e-8),
            (StencilDim::D3, 1.55e-7),
        ] {
            let params = ModelParams::from_measured(&device, &MeasuredParams::paper_gtx980(citer));
            let mut digest = Digest::default();
            for (size, t) in grid(dim) {
                let ctx = format!("{} grid {size:?} tiles={t:?}", device.name);
                digest.push(&predict_checked(DimSpec::of(dim), &params, &size, &t, &ctx));
            }
            lines.push(digest.line(&device, &format!("grid {}D", dim.rank())));
        }
    }
    // The sweep must actually be a sweep: every (device, dim) family has
    // >50 feasible tiles (tile-opt asserts this) and the paper grids have
    // 10–12 sizes each, so a healthy run compares tens of thousands of
    // predictions.
    assert!(compared > 50_000, "sweep too small: {compared}");

    let fixture: Vec<&str> = include_str!("fixtures/model_sweep_digests.txt")
        .lines()
        .collect();
    let changed: Vec<&str> = lines
        .iter()
        .zip(&fixture)
        .filter(|(l, f)| l != f)
        .map(|(l, _)| l.as_str())
        .collect();
    assert_eq!(
        lines.len(),
        fixture.len(),
        "one line per experiment and grid"
    );
    assert!(changed.is_empty(), "changed lines:\n{}", changed.join("\n"));
}
