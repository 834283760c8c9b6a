//! The model commands: predict, simulate, analyze and tune one stencil
//! configuration from the shell.
//!
//! ```text
//! experiments predict  --stencil jacobi2d --size 4096x4096xT1024 --tile 8,16,128
//! experiments simulate --stencil heat2d   --size 2048x2048xT512  --tile 8,8,128 --launch 1,128
//! experiments analyze  --stencil heat3d   --size 384x384x384xT128 --tile 8,4,2,32
//! experiments tune     --stencil gradient2d --size 4096x4096xT4096 [--device titanx]
//! ```

use super::flags::{Flag, Matches, DEVICE, KERNEL, LAUNCH, SAMPLES, SIZE, STENCIL, TILE, TILE2};
use gpu_sim::{SimWorkload, Workload};
use hhc_tiling::{LaunchConfig, TileSizes, TilingPlan};
use stencil_core::{reference, ProblemSize, StencilDim};
use tile_opt::strategy::DataPoint;
use tile_opt::{feasible_space, model_sweep_spec, talg_min, within_fraction, SpaceConfig};
use time_model::{DimSpec, ModelParams};

/// A problem size from `--size` extents: the space extents, then time.
pub fn problem_size(v: &[usize], dim: StencilDim) -> Result<ProblemSize, String> {
    let rank = dim.rank();
    if v.len() != rank + 1 {
        return Err(format!(
            "--size has {} extents; a {rank}D stencil needs {} (space dims then time)",
            v.len(),
            rank + 1
        ));
    }
    ProblemSize::from_extents(&v[..rank], v[rank])
}

/// Tile sizes from `--tile` extents (`t_T` first, then the space extents).
pub fn tile_sizes(v: &[usize], dim: StencilDim) -> Result<TileSizes, String> {
    let rank = dim.rank();
    if v.len() != rank + 1 {
        return Err(format!(
            "tile {v:?} has {} extents; a {rank}D stencil needs {} (t_T then t_S1..)",
            v.len(),
            rank + 1
        ));
    }
    let tiles = TileSizes::from_coords(dim, v)?;
    tiles.validate(dim)?;
    Ok(tiles)
}

/// A thread-block shape from `--launch` extents.
pub fn launch_config(v: &[usize], dim: StencilDim) -> Result<LaunchConfig, String> {
    let rank = dim.rank();
    if v.len() != rank {
        return Err(format!(
            "--launch {v:?} needs {rank} extents for a {rank}D stencil"
        ));
    }
    let launch = LaunchConfig::from_extents(dim, v)?;
    launch.validate(dim)?;
    Ok(launch)
}

/// The workload flags every model command takes.
pub struct CommonArgs {
    /// The parsed workload (device + stencil + problem size).
    pub workload: Workload,
    /// Micro-benchmark samples for `Citer`.
    pub samples: usize,
}

impl CommonArgs {
    fn from(m: &Matches) -> Result<CommonArgs, String> {
        let stencil = m.get(&STENCIL)?;
        let size = problem_size(&m.get(&SIZE)?, stencil.dim)?;
        Ok(CommonArgs {
            workload: Workload::new(m.get(&DEVICE)?, stencil, size)?,
            samples: m.get(&SAMPLES)?,
        })
    }

    fn tiles(&self, m: &Matches, flag: &Flag<Vec<usize>>) -> Result<TileSizes, String> {
        tile_sizes(&m.get(flag)?, self.workload.dim())
    }

    /// `--launch`, or the empirical launch shape for `tiles`.
    fn launch(&self, m: &Matches, tiles: &TileSizes) -> Result<LaunchConfig, String> {
        let dim = self.workload.dim();
        match m.opt(&LAUNCH) {
            Some(v) => launch_config(&v, dim),
            None => Ok(LaunchConfig::empirical(dim, tiles)),
        }
    }
}

fn measured_params(c: &CommonArgs) -> ModelParams {
    let w = &c.workload;
    let m =
        microbench::measured_params_sampled(&w.device, &w.stencil, c.samples, experiments::SEED);
    ModelParams::from_measured(&w.device, &m)
}

/// `predict`: evaluate the analytical model for one tile size.
pub fn predict(m: &Matches) -> Result<String, String> {
    let c = CommonArgs::from(m)?;
    let tiles = c.tiles(m, &TILE)?;
    let params = measured_params(&c);
    let w = &c.workload;
    let p = DimSpec::for_stencil(&w.stencil).predict(&params, &w.size, &tiles);
    Ok(format!(
        "T_alg = {:.6} s\n  k = {}   kernels = {}   blocks/kernel = {}\n  m' = {:.3e} s   c = {:.3e} s ({})\n  M_tile = {} words ({} KB)",
        p.talg,
        p.k,
        p.nw,
        p.w,
        p.m_prime,
        p.c,
        if p.memory_bound() { "memory-bound" } else { "compute-bound" },
        p.mtile_words,
        p.mtile_words * 4 / 1024,
    ))
}

/// `simulate`: run one configuration on the machine.
pub fn simulate(m: &Matches) -> Result<String, String> {
    let c = CommonArgs::from(m)?;
    let tiles = c.tiles(m, &TILE)?;
    let launch = c.launch(m, &tiles)?;
    let w = &c.workload;
    let spec = w.spec();
    let plan = TilingPlan::build(&spec, &w.size, tiles, launch)?;
    let r =
        gpu_sim::simulate(&w.device, &SimWorkload::from_plan(&plan)).map_err(|e| e.to_string())?;
    let flops = reference::total_flops(&spec, &w.size);
    Ok(format!(
        "T_exec = {:.6} s   ({:.1} GFLOPS/s)\n  k = {} ({:?}-limited)   kernels = {}\n  spill factor = {:.2}   divergence factor = {:.2}   {}",
        r.total_time,
        r.gflops(flops),
        r.occupancy.k,
        r.occupancy.limit,
        r.kernel_launches,
        r.spill_factor,
        r.divergence_factor,
        if r.memory_bound() { "memory-bound" } else { "compute-bound" },
    ))
}

/// `analyze`: print the plan statistics for one tile size.
pub fn analyze(m: &Matches) -> Result<String, String> {
    let c = CommonArgs::from(m)?;
    let tiles = c.tiles(m, &TILE)?;
    let w = &c.workload;
    let spec = w.spec();
    let launch = LaunchConfig::empirical(w.dim(), &tiles);
    let plan = TilingPlan::build(&spec, &w.size, tiles, launch)?;
    let st = hhc_tiling::analyze(&plan);
    Ok(format!(
        "kernels = {}   blocks = {} (max {}/kernel)\n  iterations = {}   words moved = {}\n  reuse = {:.2} iterations/word   intensity = {:.2} flops/byte\n  boundary share = {:.1}%   M_tile = {} words",
        st.kernels,
        st.total_blocks,
        st.max_blocks_per_kernel,
        st.iterations,
        st.words,
        st.iterations_per_word,
        st.flops_per_byte,
        100.0 * st.boundary_iteration_share,
        st.mtile_words,
    ))
}

/// `tune`: the paper's pipeline — sweep the model, measure the within-10 %
/// candidates, report the best configuration.
pub fn tune(m: &Matches) -> Result<String, String> {
    let c = CommonArgs::from(m)?;
    let w = &c.workload;
    let spec = w.spec();
    let params = measured_params(&c);
    let space = feasible_space(w, &SpaceConfig::default());
    let model = DimSpec::for_stencil(&w.stencil);
    let sweep = model_sweep_spec(model, &params, &w.size, &space, None);
    let (tmin, pmin) = talg_min(&sweep).ok_or("empty feasible space")?;
    let within = within_fraction(&sweep, 0.10);

    let mut best: Option<(DataPoint, f64)> = None;
    for (tiles, _) in &within {
        let point = DataPoint {
            tiles: *tiles,
            launch: LaunchConfig::empirical(w.dim(), tiles),
        };
        let Ok(plan) = TilingPlan::build(&spec, &w.size, point.tiles, point.launch) else {
            continue;
        };
        if let Ok(r) = gpu_sim::simulate(&w.device, &SimWorkload::from_plan(&plan)) {
            if best.is_none_or(|(_, t)| r.total_time < t) {
                best = Some((point, r.total_time));
            }
        }
    }
    let (point, time) = best.ok_or("no candidate launched")?;
    let flops = reference::total_flops(&spec, &w.size) as f64;
    Ok(format!(
        "swept {} feasible tile sizes; T_alg min = {:.4} s at t = {:?}\nmeasured {} candidates within 10% of the predicted optimum\nbest: tiles (tT={}, tS={:?}) threads {:?} -> {:.6} s ({:.1} GFLOPS/s)",
        space.len(),
        pmin.talg,
        (tmin.t_t, tmin.t_s),
        within.len(),
        point.tiles.t_t,
        &point.tiles.t_s[..w.rank()],
        &point.launch.threads[..w.rank()],
        time,
        flops / time / 1e9,
    ))
}

/// `params`: print the measured model parameters (Tables 3/4 for this
/// device/stencil).
pub fn params(m: &Matches) -> Result<String, String> {
    let c = CommonArgs::from(m)?;
    let w = &c.workload;
    let m =
        microbench::measured_params_sampled(&w.device, &w.stencil, c.samples, experiments::SEED);
    Ok(format!(
        "device {}   stencil {}
  L      = {:.4e} s/GB   ({:.4e} s/word)
  tau_sync = {:.4e} s
  T_sync = {:.4e} s
  Citer  = {:.4e} s   ({} samples)",
        w.device.name,
        w.stencil.name,
        m.l_word * 1e9 / 4.0,
        m.l_word,
        m.tau_sync,
        m.t_sync,
        m.citer,
        c.samples,
    ))
}

/// `compare`: predict and simulate two tile configurations side by side.
pub fn compare(m: &Matches) -> Result<String, String> {
    let c = CommonArgs::from(m)?;
    let (a, b) = (c.tiles(m, &TILE)?, c.tiles(m, &TILE2)?);
    let w = &c.workload;
    let spec = w.spec();
    let params = measured_params(&c);
    let mut lines = vec![format!(
        "{:>24} {:>14} {:>14} {:>10}",
        "tiles (tT,tS..)", "T_alg [s]", "T_exec [s]", "GFLOPS/s"
    )];
    let flops = reference::total_flops(&spec, &w.size) as f64;
    let dspec = DimSpec::for_stencil(&w.stencil);
    for tiles in [a, b] {
        let pred = dspec.predict(&params, &w.size, &tiles);
        let launch = LaunchConfig::empirical(w.dim(), &tiles);
        let meas = TilingPlan::build(&spec, &w.size, tiles, launch)
            .ok()
            .and_then(|plan| gpu_sim::simulate(&w.device, &SimWorkload::from_plan(&plan)).ok())
            .map(|r| r.total_time);
        lines.push(format!(
            "{:>24} {:>14.6} {:>14} {:>10}",
            format!("({},{:?})", tiles.t_t, &tiles.t_s[..w.rank()]),
            pred.talg,
            meas.map_or("n/a".into(), |t| format!("{t:.6}")),
            meas.map_or("n/a".into(), |t| format!("{:.1}", flops / t / 1e9)),
        ));
    }
    Ok(lines.join("\n"))
}

/// `trace`: render the two-pipe schedule of one kernel as per-SM lanes.
pub fn trace(m: &Matches) -> Result<String, String> {
    use gpu_sim::{trace_kernel, TracePipe};
    let c = CommonArgs::from(m)?;
    let tiles = c.tiles(m, &TILE)?;
    let launch = c.launch(m, &tiles)?;
    let kernel = m.get(&KERNEL)?;
    let w = &c.workload;
    let spec = w.spec();
    let plan = TilingPlan::build(&spec, &w.size, tiles, launch)?;
    let wl = SimWorkload::from_plan(&plan);
    if kernel >= wl.kernels.len() {
        return Err(format!(
            "kernel {kernel} out of range (plan has {})",
            wl.kernels.len()
        ));
    }
    let trace = trace_kernel(&w.device, &wl, kernel).map_err(|e| e.to_string())?;
    let width = 72usize;
    let span = trace.makespan.max(1e-30);
    let mut out = format!(
        "kernel {kernel}: k = {}, makespan = {:.4e} s, {} segments\n",
        trace.k,
        trace.makespan,
        trace.events.len()
    );
    // One mem lane and one comp lane per SM that has events.
    let mut sms: Vec<usize> = trace.events.iter().map(|e| e.sm).collect();
    sms.sort_unstable();
    sms.dedup();
    for sm in sms.into_iter().take(8) {
        for (pipe, label) in [(TracePipe::Mem, "mem "), (TracePipe::Comp, "comp")] {
            let mut lane = vec![' '; width];
            for e in trace.events.iter().filter(|e| e.sm == sm && e.pipe == pipe) {
                let a = ((e.start / span) * (width - 1) as f64).round() as usize;
                let b = ((e.end / span) * (width - 1) as f64).round() as usize;
                let ch = char::from(b'0' + (e.block % 10) as u8);
                for cell in lane.iter_mut().take(b.min(width - 1) + 1).skip(a) {
                    *cell = ch;
                }
            }
            out.push_str(&format!(
                "  SM{sm:<2} {label} |{}|\n",
                lane.iter().collect::<String>()
            ));
        }
    }
    out.push_str("  (digits = co-resident block index within the wave; 8 SMs shown)");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::flags;
    use super::*;

    /// Parse and run one model command line, as `experiments` would.
    fn run(line: &str) -> Result<String, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let command = crate::command(&argv[0]).expect("a model command");
        let m = flags::parse(command, &argv[1..])?;
        let cmd: fn(&Matches) -> Result<String, String> = match command.name {
            "predict" => predict,
            "simulate" => simulate,
            "analyze" => analyze,
            "tune" => tune,
            "params" => params,
            "compare" => compare,
            "trace" => trace,
            other => panic!("not a model command: {other}"),
        };
        cmd(&m)
    }

    #[test]
    fn parses_sizes_tiles_threads() {
        let size = problem_size(&(SIZE.parse)("4096x2048xT512").unwrap(), StencilDim::D2).unwrap();
        assert_eq!(size.space[0], 4096);
        assert_eq!(size.space[1], 2048);
        assert_eq!(size.time, 512);
        // T marker optional.
        let size = problem_size(&(SIZE.parse)("64x32").unwrap(), StencilDim::D1).unwrap();
        assert_eq!(size.time, 32);
        let tiles = tile_sizes(&(TILE.parse)("8,16,128").unwrap(), StencilDim::D2).unwrap();
        assert_eq!((tiles.t_t, tiles.t_s[0], tiles.t_s[1]), (8, 16, 128));
        let th = launch_config(&(LAUNCH.parse)("1,128").unwrap(), StencilDim::D2).unwrap();
        assert_eq!(th.threads, [1, 128, 1]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(problem_size(&[4096, 512], StencilDim::D2).is_err());
        assert!((SIZE.parse)("4096xfooxT512").is_err());
        assert!(tile_sizes(&[7, 16, 128], StencilDim::D2).is_err()); // odd t_T
        assert!(tile_sizes(&[8, 16], StencilDim::D2).is_err());
        assert!((TILE.parse)("8,x,128").is_err());
        assert!(launch_config(&[1, 128, 1], StencilDim::D2).is_err());
        assert!((STENCIL.parse)("jacobi4d").is_err());
        assert!((DEVICE.parse)("voodoo2").is_err());
    }

    #[test]
    fn flag_parser_rejects_unknown() {
        let err = run("tune --stencil jacobi2d --frobnicate yes").unwrap_err();
        assert!(err.contains("unknown flag '--frobnicate'"), "{err}");
        let err = run("tune --stencil").unwrap_err();
        assert!(err.contains("--stencil needs a value"), "{err}");
        let err = run("tune --stencil jacobi2d").unwrap_err();
        assert!(err.contains("--size is required"), "{err}");
    }

    #[test]
    fn predict_and_simulate_run() {
        let out =
            run("predict --stencil jacobi2d --size 1024x1024xT128 --tile 8,8,128 --samples 6");
        assert!(out.as_deref().unwrap().contains("T_alg"), "{out:?}");
        let out =
            run("simulate --stencil jacobi2d --size 1024x1024xT128 --tile 8,8,128 --launch 1,128");
        assert!(out.as_deref().unwrap().contains("GFLOPS"), "{out:?}");
    }

    #[test]
    fn analyze_runs() {
        let out = run("analyze --stencil heat3d --size 96x96x96xT32 --tile 8,4,2,32");
        assert!(
            out.as_deref().unwrap().contains("iterations/word"),
            "{out:?}"
        );
    }

    #[test]
    fn params_and_compare_run() {
        let out = run("params --stencil jacobi2d --size 512x512xT64 --samples 4");
        assert!(out.as_deref().unwrap().contains("Citer"), "{out:?}");
        let out = run(
            "compare --stencil jacobi2d --size 512x512xT64 --tile 8,8,128 --tile2 4,32,32 --samples 4",
        );
        assert!(out.as_deref().unwrap().contains("T_exec"), "{out:?}");
    }

    #[test]
    fn trace_renders_lanes() {
        let out =
            run("trace --stencil jacobi2d --size 512x512xT32 --tile 8,8,128 --kernel 2").unwrap();
        assert!(out.contains("SM0"), "{out}");
        assert!(out.contains("makespan"), "{out}");
    }

    #[test]
    fn zero_samples_is_rejected() {
        // Zero samples would measure Citer = 0 and build a model on it.
        let err = run("predict --stencil jacobi2d --size 512x512xT64 --tile 8,8,128 --samples 0");
        let err = err.unwrap_err();
        assert!(
            err.contains("predict: --samples: expected an integer >= 1"),
            "{err}"
        );
    }
}
