//! The default command: regenerate the paper's tables and figures.

use super::flags::{
    Flag, Matches, ABLATION, ALL, BENCH_EXEC, CHECK_ROOFLINE, COMPARE_WAVEFRONT, DIMS, EXHAUSTIVE,
    FIG3, FIG4, FIG5, FIG6, LOG_OUT, OUT, PARALLEL_EXEC, SCALE, SOLVER, TABLE2, TABLE3, TABLE4,
    TRACE_OUT, ZOO,
};
use super::{create, Telemetry};
use experiments::context::Lab;
use experiments::figures::Fig6Detail;
use experiments::output::Results;
use experiments::{figures, tables, RunManifest};
use gpu_sim::{DeviceConfig, SimWorkload};
use hhc_tiling::TilingPlan;
use std::io::Write as _;
use stencil_core::{ProblemSize, StencilDescriptor, StencilDim};
use tile_opt::strategy::{DataPoint, Strategy};

/// The flags that select work; with none of them the driver prints its help.
const SELECTORS: [&Flag<()>; 14] = [
    &ALL,
    &TABLE2,
    &TABLE3,
    &TABLE4,
    &FIG3,
    &FIG4,
    &FIG5,
    &FIG6,
    &ZOO,
    &ABLATION,
    &SOLVER,
    &COMPARE_WAVEFRONT,
    &BENCH_EXEC,
    &CHECK_ROOFLINE,
];

/// The workload behind one Figure 6 cell's chosen configuration: enough
/// to replay its simulated schedule into the Chrome trace.
struct SimTracePayload {
    device: DeviceConfig,
    stencil: StencilDescriptor,
    size: ProblemSize,
    point: DataPoint,
}

/// Pick the trace payload from the Figure 6 details: the first cell's
/// Within-10 % choice (the paper's headline strategy), falling back to
/// whatever strategy produced a measurable outcome.
fn fig6_sim_payload(lab: &Lab, details: &[Fig6Detail]) -> Option<SimTracePayload> {
    let detail = details.first()?;
    let outcome = detail
        .outcomes
        .iter()
        .find(|o| o.strategy == Strategy::Within10.name())
        .or_else(|| detail.outcomes.first())?;
    let device = lab
        .devices
        .iter()
        .find(|d| d.name == detail.device)?
        .clone();
    let stencil = StencilDescriptor::paper(StencilDim::D2)
        .into_iter()
        .find(|s| s.name == detail.benchmark)?;
    let size = lab
        .scale
        .sizes_2d()
        .into_iter()
        .find(|s| s.label() == detail.size)?;
    Some(SimTracePayload {
        device,
        stencil,
        size,
        point: outcome.point,
    })
}

/// Trace every wavefront kernel launch of the payload's workload into
/// `out` under `pid`, one lane per (SM, pipe), kernels laid end to end on
/// the simulated clock. Returns the number of kernels traced.
fn export_workload_trace(
    out: &mut obs::chrome::ChromeTrace,
    pid: u32,
    p: &SimTracePayload,
) -> usize {
    let spec = p.stencil.spec();
    let Ok(plan) = TilingPlan::build(&spec, &p.size, p.point.tiles, p.point.launch) else {
        return 0;
    };
    let wl = SimWorkload::from_plan(&plan);
    let mut offset_us = 0.0f64;
    let mut traced = 0usize;
    for index in 0..wl.kernels.len() {
        let Ok(trace) = gpu_sim::trace_kernel(&p.device, &wl, index) else {
            continue;
        };
        let label = format!("{} k{index}", p.stencil.name);
        trace.add_chrome_events(out, pid, offset_us, &label);
        offset_us += trace.makespan * 1e6;
        traced += 1;
    }
    traced
}

/// Render an optional RMSE fraction as a percentage (NaN when absent).
fn pct(v: Option<f64>) -> f64 {
    v.map_or(f64::NAN, |x| 100.0 * x)
}

/// Run the driver; returns the process exit code.
pub fn run(m: &Matches) -> Result<i32, String> {
    if !SELECTORS.iter().any(|f| m.on(f)) {
        println!("{}", crate::help(m.command));
        return Ok(0);
    }
    let all = m.on(&ALL);
    let out = m.get(&OUT)?;
    let out_err = |e: std::io::Error| format!("{} {out}: {e}", OUT.name);
    let mut results = Results::new(&out).map_err(out_err)?;
    let trace_out = m
        .opt(&TRACE_OUT)
        .map(|p| create(&TRACE_OUT, &p).map(|f| (p, f)));
    let trace_out = trace_out.transpose()?;
    let telemetry = Telemetry::open(m)?.install(&out);
    let lab = Lab::new(m.get(&SCALE)?);
    let scale = lab.scale.label();
    let manifest = RunManifest::collect(scale);
    obs::event(
        obs::Level::Info,
        "driver.run",
        &[
            ("git_rev", manifest.git_rev.as_str().into()),
            ("scale", scale.into()),
            ("threads", manifest.threads.into()),
            ("seed", manifest.seed.into()),
        ],
    );
    results.set_manifest(manifest);
    let mut sim_payload: Option<SimTracePayload> = None;

    if m.on(&BENCH_EXEC) || m.on(&CHECK_ROOFLINE) {
        let _phase = obs::span("phase.bench_exec", "driver");
        println!(
            "\n=== Executor benchmark: rolling window + row kernels vs seed baseline (scale: {scale}, {} threads) ===",
            rayon::current_num_threads()
        );
        let report = experiments::bench::bench_exec(&lab, m.on(&PARALLEL_EXEC));
        let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
        std::fs::write("BENCH_exec.json", json).map_err(out_err)?;
        println!("  report written to BENCH_exec.json");
        // Accuracy telemetry: each exec row yields one (predicted,
        // measured) wall-clock pair. The roofline predicts throughput;
        // predicted time = measured time x (measured/predicted ratio),
        // so rel_err == roofline_ratio - 1 and the drift band is the
        // roofline band re-centered on zero.
        {
            let (lo, hi) = report.roofline.ratio_band;
            let band = (lo - 1.0).abs().max((hi - 1.0).abs());
            let acc = obs::AccuracyLog::open(std::path::Path::new(&out).join("accuracy_log.jsonl"))
                .map_err(out_err)?;
            for row in &report.exec {
                let dim =
                    StencilDescriptor::from_name(&row.benchmark).map_or(0, |s| s.dim.rank() as u32);
                acc.record(
                    &obs::accuracy::Pair {
                        source: "roofline".into(),
                        device: "cpu-exec".into(),
                        stencil: row.benchmark.clone(),
                        dim,
                        key: row.size.clone(),
                        predicted_s: row.fast_s * row.roofline_ratio,
                        measured_s: row.fast_s,
                        // The roofline is never correction-adjusted, so
                        // its prediction is already "raw"; which ceiling
                        // bound it tells the calibration fitter which
                        // term the error belongs to.
                        raw_predicted_s: None,
                        memory_bound: Some(row.roofline_bound == "memory"),
                    },
                    band,
                );
            }
        }
        if m.on(&CHECK_ROOFLINE) {
            let (lo, hi) = report.roofline.ratio_band;
            for row in &report.exec {
                let ok = row.roofline_ratio >= lo && row.roofline_ratio <= hi;
                println!(
                    "  roofline {:10} measured/predicted = {:.2} (band {lo:.2}..{hi:.2}) {}",
                    row.benchmark,
                    row.roofline_ratio,
                    if ok { "ok" } else { "OUT OF BAND" }
                );
            }
            if !report.roofline.all_within_band {
                eprintln!("roofline check FAILED: executor throughput left the predicted band");
                match obs::flight::dump(std::path::Path::new(&out), "roofline_out_of_band") {
                    Ok(Some(path)) => eprintln!("flight recorder dumped to {}", path.display()),
                    Ok(None) => {}
                    Err(e) => eprintln!("flight recorder dump failed: {e}"),
                }
                return Ok(1);
            }
            println!("  roofline check passed");
        }
    }

    if all || m.on(&TABLE2) {
        let _phase = obs::span("phase.table2", "driver");
        let rows = tables::table2(&lab);
        println!("\n=== Table 2: GPU configurations ===");
        for r in &rows {
            println!(
                "  {:10}  nSM={:2}  nV={}  MSM={}KB  RSM={}  banks={}  maxTB/SM={}",
                r.device, r.n_sm, r.n_v, r.m_sm_kb, r.r_sm, r.shared_banks, r.max_tb_per_sm
            );
        }
        results.write_json("table2", &rows).map_err(out_err)?;
    }

    if all || m.on(&TABLE3) {
        let _phase = obs::span("phase.table3", "driver");
        let rows = tables::table3(&lab);
        println!("\n=== Table 3: measured timing parameters (paper: L=7.36e-3/5.42e-3 s/GB, tau=7.96e-10/6.74e-10 s, Tsync=9.24e-7/9.00e-7 s) ===");
        for r in &rows {
            println!(
                "  {:10}  L = {:.3e} s/GB   tau_sync = {:.3e} s   T_sync = {:.3e} s",
                r.device, r.l_s_per_gb, r.tau_sync, r.t_sync
            );
        }
        results.write_json("table3", &rows).map_err(out_err)?;
    }

    if all || m.on(&TABLE4) {
        let _phase = obs::span("phase.table4", "driver");
        let rows = tables::table4(&lab);
        println!("\n=== Table 4: measured Citer (seconds) ===");
        for r in &rows {
            println!(
                "  {:12} {:10}  measured = {:.3e}   paper = {:.3e}",
                r.benchmark,
                r.device,
                r.citer,
                r.paper_citer.unwrap_or(f64::NAN)
            );
        }
        results.write_json("table4", &rows).map_err(out_err)?;
    }

    if all || m.on(&FIG3) {
        let _phase = obs::span("phase.fig3", "driver");
        println!("\n=== Figure 3 / Section 5.3: model validation (scale: {scale}) ===");
        let (rows, pooled) = figures::figure3(&lab, &m.get(&DIMS)?);
        let mut worst_top = 0.0f64;
        let mut all_range = (f64::INFINITY, 0.0f64);
        for r in &rows {
            println!(
                "  {:10} {:12} {:18}  points={:3}  RMSE(all)={:6.1}%  top20%: n={:3}  RMSE={:5.1}%",
                r.device,
                r.benchmark,
                r.size,
                r.measured_points,
                pct(r.rmse_all),
                r.top_points,
                pct(r.rmse_top20)
            );
            worst_top = worst_top.max(r.rmse_top20.unwrap_or(0.0));
            let all = r.rmse_all.unwrap_or(f64::NAN);
            if all.is_finite() {
                all_range = (all_range.0.min(all), all_range.1.max(all));
            }
        }
        println!(
            "  per-size SUMMARY: full-space RMSE range {:.0}%-{:.0}%; worst top-20% RMSE {:.1}%",
            100.0 * all_range.0,
            100.0 * all_range.1,
            100.0 * worst_top
        );
        println!("  --- pooled per (benchmark, platform), the paper's aggregation ---");
        let mut worst_pooled = 0.0f64;
        for p in &pooled {
            println!(
                "  {:10} {:12}  points={:5}  RMSE(all)={:6.1}%  top20%: n={:4}  RMSE={:5.1}%",
                p.device,
                p.benchmark,
                p.points,
                pct(p.rmse_all),
                p.top_points,
                pct(p.rmse_top20)
            );
            worst_pooled = worst_pooled.max(p.rmse_top20.unwrap_or(0.0));
        }
        println!(
            "  POOLED SUMMARY: worst top-20% RMSE {:.1}% (paper: <10%); full-space RMSE within the paper's 45%-200% band",
            100.0 * worst_pooled
        );
        results
            .write_json(&format!("figure3_{scale}"), &rows)
            .map_err(out_err)?;
        results
            .write_json(&format!("figure3_pooled_{scale}"), &pooled)
            .map_err(out_err)?;
        results
            .write_csv(
                &format!("figure3_scatter_{scale}"),
                "device,benchmark,size,predicted_s,measured_s",
                rows.iter().flat_map(|r| {
                    r.scatter_top.iter().map(move |(p, m)| {
                        format!("{},{},{},{p},{m}", r.device, r.benchmark, r.size)
                    })
                }),
            )
            .map_err(out_err)?;
    }

    if all || m.on(&FIG4) {
        let _phase = obs::span("phase.fig4", "driver");
        println!("\n=== Figure 4: Talg surface, Heat2D, GTX 980, tS1 = 8 (scale: {scale}) ===");
        let r = figures::figure4(&lab);
        if let Some(min) = r.min_cell {
            println!(
                "  size {}: Talg min = {:.4e} s at tT={} tS2={}",
                r.size,
                min.talg.unwrap(),
                min.t_t,
                min.t_s2
            );
        }
        let feasible = r.cells.iter().filter(|c| c.talg.is_some()).count();
        println!("  grid: {} cells, {} feasible", r.cells.len(), feasible);
        println!("{}", experiments::ascii::heatmap(&r));
        results
            .write_json(&format!("figure4_{scale}"), &r)
            .map_err(out_err)?;
        results
            .write_csv(
                &format!("figure4_surface_{scale}"),
                "t_t,t_s2,talg_s",
                r.cells.iter().map(|c| {
                    format!(
                        "{},{},{}",
                        c.t_t,
                        c.t_s2,
                        c.talg.map_or(String::from("inf"), |v| v.to_string())
                    )
                }),
            )
            .map_err(out_err)?;
    }

    if all || m.on(&FIG5) {
        let _phase = obs::span("phase.fig5", "driver");
        println!("\n=== Figure 5: Gradient2D candidate scatter (scale: {scale}) ===");
        let r = figures::figure5(&lab);
        println!(
            "  size {}: baseline best = {:.3} s, model-candidate best = {:.3} s ({} candidates) → improvement {:.1}% (paper: 19.8 s → 16.5 s, 17%)",
            r.size,
            r.baseline_best.unwrap_or(f64::NAN),
            r.candidate_best.unwrap_or(f64::NAN),
            r.candidate_count,
            100.0 * r.improvement.unwrap_or(f64::NAN)
        );
        results
            .write_json(&format!("figure5_{scale}"), &r)
            .map_err(out_err)?;
    }

    if all || m.on(&FIG6) {
        let _phase = obs::span("phase.fig6", "driver");
        println!(
            "\n=== Figure 6: average GFLOPS by tile-size selection strategy (scale: {scale}) ==="
        );
        let (rows, details) = figures::figure6(&lab, m.on(&EXHAUSTIVE));
        for r in &rows {
            let strategies: Vec<String> = r
                .gflops
                .iter()
                .map(|(s, g)| format!("{s}={g:.1}"))
                .collect();
            println!(
                "  {:10} {:12} ({} sizes): {}   [Within10 vs Baseline: {:+.1}%, vs HHC: {:+.1}%]",
                r.device,
                r.benchmark,
                r.sizes,
                strategies.join("  "),
                100.0 * r.within_vs_baseline,
                100.0 * r.within_vs_hhc
            );
        }
        if trace_out.is_some() {
            sim_payload = fig6_sim_payload(&lab, &details);
        }
        results
            .write_json(&format!("figure6_{scale}"), &rows)
            .map_err(out_err)?;
        results
            .write_json(&format!("figure6_details_{scale}"), &details)
            .map_err(out_err)?;
    }

    if m.on(&ZOO) {
        let _phase = obs::span("phase.zoo", "driver");
        println!(
            "\n=== Stencil zoo: non-paper descriptors through the full pipeline (scale: {scale}) ==="
        );
        let zoo = StencilDescriptor::zoo();
        for s in &zoo {
            println!(
                "  {:12} rank={} radius={} points={} flops/pt={}",
                s.name,
                s.dim.rank(),
                s.radius,
                s.footprint.points(s.dim, s.radius),
                s.flops_per_point()
            );
        }

        // Figure-3-style validation: the 850-point baseline sweep,
        // RMSE bands, and the paper's pooled aggregation — on stencils
        // the paper never ran.
        let (rows, pooled) = figures::figure3_for(&lab, &zoo);
        for p in &pooled {
            println!(
                "  fig3 {:10} {:12}  points={:5}  RMSE(all)={:6.1}%  top20%: n={:4}  RMSE={:5.1}%",
                p.device,
                p.benchmark,
                p.points,
                pct(p.rmse_all),
                p.top_points,
                pct(p.rmse_top20)
            );
        }
        results
            .write_json(&format!("figure3_zoo_{scale}"), &rows)
            .map_err(out_err)?;
        results
            .write_json(&format!("figure3_zoo_pooled_{scale}"), &pooled)
            .map_err(out_err)?;

        // Figure-6-style strategy comparison, one stencil at a time so
        // each runs on the size grid of its own dimensionality.
        let mut zrows = Vec::new();
        let mut zdetails: Vec<Fig6Detail> = Vec::new();
        for stencil in &zoo {
            let sizes = lab.scale.sizes(stencil.dim);
            let (r, d) = figures::figure6_for(&lab, std::slice::from_ref(stencil), &sizes, false);
            zrows.extend(r);
            zdetails.extend(d);
        }
        for r in &zrows {
            let strategies: Vec<String> = r
                .gflops
                .iter()
                .map(|(s, g)| format!("{s}={g:.1}"))
                .collect();
            println!(
                "  fig6 {:10} {:12} ({} sizes): {}",
                r.device,
                r.benchmark,
                r.sizes,
                strategies.join("  ")
            );
        }
        results
            .write_json(&format!("figure6_zoo_{scale}"), &zrows)
            .map_err(out_err)?;
        results
            .write_json(&format!("figure6_zoo_details_{scale}"), &zdetails)
            .map_err(out_err)?;

        // CI gate: every (device, stencil, size) must yield a non-empty
        // within-10% candidate set — an empty band means the model sweep
        // or the feasible space broke for the non-paper descriptor.
        let mut empty_bands = 0usize;
        for d in &zdetails {
            let within = d
                .outcomes
                .iter()
                .find(|o| o.strategy == Strategy::Within10.name());
            match within {
                Some(o) if o.measured_count > 0 => {}
                _ => {
                    eprintln!(
                        "  EMPTY within-10% band: {} / {} / {}",
                        d.device, d.benchmark, d.size
                    );
                    empty_bands += 1;
                }
            }
        }
        if empty_bands > 0 {
            eprintln!("zoo check FAILED: {empty_bands} empty within-10% candidate set(s)");
            return Ok(1);
        }
        println!(
            "  zoo check passed: all {} within-10% candidate sets non-empty",
            zdetails.len()
        );
    }

    if m.on(&ABLATION) {
        let _phase = obs::span("phase.ablation", "driver");
        println!("\n=== Ablation: printed vs tail-aware model (top-20% RMSE) ===");
        let rows = experiments::extensions::model_variant_ablation(&lab);
        for r in &rows {
            println!(
                "  {:10} {:12} {:16}  printed = {:5.1}%   tail-aware = {:5.1}%",
                r.device,
                r.benchmark,
                r.size,
                pct(r.rmse_printed),
                pct(r.rmse_refined)
            );
        }
        results
            .write_json(&format!("ablation_model_{scale}"), &rows)
            .map_err(out_err)?;

        println!("\n=== Ablation: machine effects off, one at a time (Jacobi2D) ===");
        let rows = experiments::extensions::machine_effect_ablation(&lab);
        for r in &rows {
            println!(
                "  disabled {:16}  RMSE(all) = {:6.1}%   top-20% = {:5.1}%",
                r.disabled,
                pct(r.rmse_all),
                pct(r.rmse_top20)
            );
        }
        results
            .write_json(&format!("ablation_machine_{scale}"), &rows)
            .map_err(out_err)?;
    }

    if m.on(&SOLVER) {
        let _phase = obs::span("phase.solver", "driver");
        println!("\n=== Section 6.1: heuristic solvers vs exhaustive model sweep ===");
        let rows = experiments::extensions::solver_comparison(&lab);
        for r in &rows {
            println!(
                "  {:10} {:12} {:16}  sweep = {:.4e}  coord-descent {:+5.1}% ({} evals)  annealing {:+5.1}% ({} evals)",
                r.device,
                r.benchmark,
                r.size,
                r.sweep_min,
                100.0 * r.cd_gap,
                r.evals.1,
                100.0 * r.sa_gap,
                r.evals.2
            );
        }
        results
            .write_json(&format!("solver_{scale}"), &rows)
            .map_err(out_err)?;
    }

    if m.on(&COMPARE_WAVEFRONT) {
        let _phase = obs::span("phase.wavefront", "driver");
        println!(
            "\n=== Time tiling vs classic wavefront-parallel (both tuned, on the machine) ==="
        );
        let rows = experiments::extensions::time_tiling_comparison(&lab);
        for r in &rows {
            println!(
                "  {:10} {:12} {:16}  naive = {:.3}s ({:.0} GF{})  hhc = {:.3}s ({:.0} GF)  speedup = {:.2}x",
                r.device,
                r.benchmark,
                r.size,
                r.naive_time,
                r.naive_gflops,
                if r.naive_memory_bound { ", mem-bound" } else { "" },
                r.hhc_time,
                r.hhc_gflops,
                r.speedup
            );
        }
        results
            .write_json(&format!("wavefront_{scale}"), &rows)
            .map_err(out_err)?;
    }

    let snap = telemetry.finish()?;
    if let Some((path, mut file)) = trace_out {
        let mut trace = obs::chrome::ChromeTrace::new();
        trace.name_process(0, "experiments driver");
        trace.add_spans(0, &snap.spans);
        let mut traced_kernels = 0;
        if let Some(p) = &sim_payload {
            trace.name_process(
                1,
                &format!(
                    "gpu-sim: {} {} on {}",
                    p.stencil.name,
                    p.size.label(),
                    p.device.name
                ),
            );
            traced_kernels = export_workload_trace(&mut trace, 1, p);
        }
        file.write_all(trace.to_json().as_bytes())
            .map_err(|e| format!("{} {path}: {e}", TRACE_OUT.name))?;
        println!(
            "chrome trace written to {path} ({} events, {traced_kernels} simulated kernels)",
            trace.len()
        );
    }
    if let Some(path) = m.opt(&LOG_OUT) {
        println!(
            "telemetry log written to {path} ({} events, {} spans, {} counters)",
            snap.events.len(),
            snap.spans.len(),
            snap.counters.len()
        );
    }

    println!("\nresults written to {}/", results.dir().display());
    Ok(0)
}
