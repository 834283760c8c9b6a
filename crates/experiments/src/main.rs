//! Command-line driver: regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--all] [--table2] [--table3] [--table4]
//!             [--fig3] [--fig4] [--fig5] [--fig6]
//!             [--scale paper|reduced|smoke] [--dims 2d|3d|all]
//!             [--exhaustive] [--threads N] [--bench-exec] [--check-roofline]
//!             [--out DIR]
//!             [--log-out PATH] [--log-level quiet|info|debug]
//!             [--trace-out PATH] [--metrics-out PATH] [--metrics-interval-ms N]
//! experiments serve [--queries PATH] [--cache-dir DIR] [--no-disk-cache]
//!                   [--mem-cap N] [--samples N] [--threads N]
//!                   [--listen ADDR] [--port-file PATH]
//!                   [--store PATH] [--store-stale-ok]
//!                   [--calib PATH]
//!                   [--workers N] [--queue-cap N] [--conn-queue-cap N]
//!                   [--window-us N] [--max-batch N]
//!                   [--log-out PATH] [--log-level quiet|info|debug]
//!                   [--metrics-out PATH] [--metrics-interval-ms N]
//!                   [--accuracy-log PATH]
//! experiments precompute [--out PATH] [--devices a,b] [--stencils x,y]
//!                        [--sizes s1,s2] [--times t1,t2] [--within F]
//!                        [--top-n N] [--samples N] [--threads N]
//!                        [--calib PATH]
//! experiments calibrate [--log PATH] [--out PATH] [--min-evidence N]
//!                       [--merge PATH] [--freeze]
//!                       [--inspect PATH] [--compare PRE POST]
//! ```
//!
//! The `serve` subcommand runs the tile-size advisory service: JSON-lines
//! queries in (stdin or `--queries`), JSON-lines answers out on stdout —
//! or, with `--listen`, over a TCP socket with concurrent connections,
//! cross-client coalescing, and bounded-queue load shedding.
//! `precompute` sweeps the model over a grid into the answer store that
//! `serve --store` loads for pure-lookup steady-state serving.
//! `calibrate` closes the loop: it fits per-(device, stencil, dim)
//! model corrections from the accuracy log that validated serving (and
//! `--bench-exec`) appended, writing a calibration store that
//! `serve --calib` and `precompute --calib` apply before ranking.

use experiments::context::{ExperimentScale, Lab};
use experiments::figures::Fig6Detail;
use experiments::output::Results;
use experiments::{figures, tables, RunManifest};
use gpu_sim::{DeviceConfig, SimWorkload};
use hhc_tiling::TilingPlan;
use std::io::Write as _;
use std::sync::Arc;
use stencil_core::{ProblemSize, StencilDim, StencilKind};
use tile_opt::strategy::{DataPoint, Strategy};

struct Args {
    ablation: bool,
    solver: bool,
    wavefront: bool,
    bench_exec: bool,
    parallel_exec: bool,
    check_roofline: bool,
    threads: Option<usize>,
    table2: bool,
    table3: bool,
    table4: bool,
    fig3: bool,
    fig4: bool,
    fig5: bool,
    fig6: bool,
    zoo: bool,
    scale: ExperimentScale,
    dims: Vec<StencilDim>,
    exhaustive: bool,
    out: String,
    log_out: Option<String>,
    log_level: obs::Level,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    metrics_interval_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ablation: false,
        solver: false,
        wavefront: false,
        bench_exec: false,
        parallel_exec: false,
        check_roofline: false,
        threads: None,
        table2: false,
        table3: false,
        table4: false,
        fig3: false,
        fig4: false,
        fig5: false,
        fig6: false,
        zoo: false,
        scale: ExperimentScale::Paper,
        dims: vec![StencilDim::D2, StencilDim::D3],
        exhaustive: false,
        out: experiments::DEFAULT_OUT_DIR.to_string(),
        log_out: None,
        log_level: obs::Level::Info,
        trace_out: None,
        metrics_out: None,
        metrics_interval_ms: 1000,
    };
    let mut it = std::env::args().skip(1);
    let mut any = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => {
                args.table2 = true;
                args.table3 = true;
                args.table4 = true;
                args.fig3 = true;
                args.fig4 = true;
                args.fig5 = true;
                args.fig6 = true;
                any = true;
            }
            "--table2" => {
                args.table2 = true;
                any = true;
            }
            "--table3" => {
                args.table3 = true;
                any = true;
            }
            "--table4" => {
                args.table4 = true;
                any = true;
            }
            "--fig3" | "--figure3" => {
                args.fig3 = true;
                any = true;
            }
            "--fig4" | "--figure4" => {
                args.fig4 = true;
                any = true;
            }
            "--fig5" | "--figure5" => {
                args.fig5 = true;
                any = true;
            }
            "--fig6" | "--figure6" => {
                args.fig6 = true;
                any = true;
            }
            "--zoo" => {
                args.zoo = true;
                any = true;
            }
            "--exhaustive" => args.exhaustive = true,
            "--ablation" => {
                args.ablation = true;
                any = true;
            }
            "--solver" => {
                args.solver = true;
                any = true;
            }
            "--compare-wavefront" => {
                args.wavefront = true;
                any = true;
            }
            "--bench-exec" => {
                args.bench_exec = true;
                any = true;
            }
            "--parallel-exec" => args.parallel_exec = true,
            "--check-roofline" => {
                args.bench_exec = true;
                args.check_roofline = true;
                any = true;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid thread count '{v}'"))?;
                if n == 0 {
                    return Err("--threads must be >= 1".into());
                }
                args.threads = Some(n);
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = ExperimentScale::parse(&v).ok_or(format!("unknown scale '{v}'"))?;
            }
            "--dims" => {
                let v = it.next().ok_or("--dims needs a value")?;
                args.dims = match v.as_str() {
                    "1d" => vec![StencilDim::D1],
                    "2d" => vec![StencilDim::D2],
                    "3d" => vec![StencilDim::D3],
                    "all" => vec![StencilDim::D2, StencilDim::D3],
                    "all+1d" => vec![StencilDim::D1, StencilDim::D2, StencilDim::D3],
                    _ => return Err(format!("unknown dims '{v}'")),
                };
            }
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--log-out" => args.log_out = Some(it.next().ok_or("--log-out needs a value")?),
            "--log-level" => {
                let v = it.next().ok_or("--log-level needs a value")?;
                args.log_level = obs::Level::parse(&v).ok_or(format!("unknown log level '{v}'"))?;
            }
            "--trace-out" => args.trace_out = Some(it.next().ok_or("--trace-out needs a value")?),
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out needs a value")?)
            }
            "--metrics-interval-ms" => {
                let v = it.next().ok_or("--metrics-interval-ms needs a value")?;
                args.metrics_interval_ms = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --metrics-interval-ms '{v}'"))?;
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    if !any {
        print_help();
        std::process::exit(0);
    }
    Ok(args)
}

fn print_help() {
    println!(
        "Regenerate the tables and figures of the PPoPP'17 stencil time-model paper.\n\n\
         USAGE: experiments [FLAGS]\n\n\
         FLAGS:\n\
           --all                 run everything below\n\
           --table2              GPU configurations (paper Table 2)\n\
           --table3              measured L, tau_sync, T_sync (Table 3)\n\
           --table4              measured Citer per benchmark (Table 4)\n\
           --fig3                model validation + RMSE bands (Figure 3, Section 5.3)\n\
           --fig4                Talg surface for Heat2D (Figure 4)\n\
           --fig5                Gradient2D candidate scatter (Figure 5)\n\
           --fig6                strategy GFLOPS comparison (Figure 6)\n\
           --zoo                 run the non-paper zoo stencils (radius-2 star, asymmetric\n\
                                 3D advection) through the Figure 3 + Figure 6 pipelines;\n\
                                 exits nonzero if any within-10% candidate set is empty\n\
           --scale paper|reduced|smoke   problem-size grids (default: paper)\n\
           --dims 1d|2d|3d|all|all+1d  dimensionalities for --fig3 (default: all)\n\
           --exhaustive          add the Exhaustive strategy to --fig6\n\
           --ablation            model-variant + machine-effect ablations (extensions)\n\
           --solver              heuristic solvers vs exhaustive sweep (Section 6.1)\n\
           --compare-wavefront   time tiling vs classic wavefront-parallel schedule\n\
           --bench-exec          executor fast-path + memoization benchmark (writes BENCH_exec.json)\n\
           --parallel-exec       with --bench-exec: also time the pooled wavefront-parallel\n\
                                 executor against the sequential fast path (threads >= 2)\n\
           --check-roofline      implies --bench-exec; exit nonzero unless every exec row's\n\
                                 measured/predicted throughput ratio sits in the tolerance\n\
                                 band (the roofline self-model CI gate)\n\
           --threads N           size the global rayon pool (default: all cores);\n\
                                 results are bit-identical for any N — parallel maps\n\
                                 preserve input order, so thread count only affects speed\n\
           --out DIR             output directory (default: results)\n\
           --log-out PATH        write the run's structured telemetry as JSONL\n\
           --log-level LEVEL     event verbosity: quiet|info|debug (default: info);\n\
                                 counters/histograms/spans are always collected\n\
           --trace-out PATH      write a Chrome trace-event JSON file (open in\n\
                                 chrome://tracing or https://ui.perfetto.dev): driver\n\
                                 phase spans plus, with --fig6, the simulated two-pipe\n\
                                 SM schedule of the chosen configuration\n\
           --metrics-out PATH    stream one JSON metrics-summary line per interval\n\
                                 (counters, gauges, histogram quantiles); a .prom\n\
                                 extension writes Prometheus text exposition instead\n\
           --metrics-interval-ms N   emitter period (default: 1000)\n\n\
         SUBCOMMANDS:\n\
           serve                 tile-size advisory service over JSON lines or a\n\
                                 TCP socket (see: experiments serve --help)\n\
           precompute            sweep the model over a grid into an on-disk\n\
                                 answer store (see: experiments precompute --help)\n\
           calibrate             fit model corrections from the accuracy log into\n\
                                 a calibration store (see: experiments calibrate --help)"
    );
}

/// The workload behind one Figure 6 cell's chosen configuration: enough
/// to replay its simulated schedule into the Chrome trace.
struct SimTracePayload {
    device: DeviceConfig,
    kind: StencilKind,
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
    let kind = StencilKind::BENCH_2D
        .iter()
        .copied()
        .find(|k| k.name() == detail.benchmark)?;
    let size = lab
        .scale
        .sizes_2d()
        .into_iter()
        .find(|s| s.label() == detail.size)?;
    Some(SimTracePayload {
        device,
        kind,
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
    let spec = p.kind.spec();
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
        let label = format!("{} k{index}", p.kind.name());
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

/// Flags of the `serve` subcommand.
struct ServeArgs {
    queries: Option<String>,
    listen: Option<String>,
    port_file: Option<String>,
    store: Option<String>,
    store_stale_ok: bool,
    calib: Option<String>,
    server: advisor::ServerConfig,
    cache_dir: Option<String>,
    mem_cap: usize,
    samples: usize,
    threads: Option<usize>,
    log_out: Option<String>,
    log_level: obs::Level,
    metrics_out: Option<String>,
    metrics_interval_ms: u64,
    accuracy_log: String,
}

fn parse_serve_args(rest: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        queries: None,
        listen: None,
        port_file: None,
        store: None,
        store_stale_ok: false,
        calib: None,
        server: advisor::ServerConfig::default(),
        cache_dir: Some(format!("{}/advisor_cache", experiments::DEFAULT_OUT_DIR)),
        mem_cap: 256,
        samples: 16,
        threads: None,
        log_out: None,
        log_level: obs::Level::Info,
        metrics_out: None,
        metrics_interval_ms: 1000,
        accuracy_log: format!("{}/accuracy_log.jsonl", experiments::DEFAULT_OUT_DIR),
    };
    let mut it = rest;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--queries" => args.queries = Some(it.next().ok_or("--queries needs a value")?),
            "--listen" => args.listen = Some(it.next().ok_or("--listen needs a value")?),
            "--port-file" => args.port_file = Some(it.next().ok_or("--port-file needs a value")?),
            "--store" => args.store = Some(it.next().ok_or("--store needs a value")?),
            "--store-stale-ok" => args.store_stale_ok = true,
            "--calib" => args.calib = Some(it.next().ok_or("--calib needs a value")?),
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                args.server.workers = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --workers '{v}'"))?;
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                args.server.queue_cap = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --queue-cap '{v}'"))?;
            }
            "--conn-queue-cap" => {
                let v = it.next().ok_or("--conn-queue-cap needs a value")?;
                args.server.conn_queue_cap = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --conn-queue-cap '{v}'"))?;
            }
            "--window-us" => {
                let v = it.next().ok_or("--window-us needs a value")?;
                let us: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --window-us '{v}'"))?;
                args.server.batch_window = std::time::Duration::from_micros(us);
            }
            "--max-batch" => {
                let v = it.next().ok_or("--max-batch needs a value")?;
                args.server.max_batch = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --max-batch '{v}'"))?;
            }
            "--cache-dir" => args.cache_dir = Some(it.next().ok_or("--cache-dir needs a value")?),
            "--no-disk-cache" => args.cache_dir = None,
            "--mem-cap" => {
                let v = it.next().ok_or("--mem-cap needs a value")?;
                args.mem_cap = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --mem-cap '{v}'"))?;
            }
            "--samples" => {
                let v = it.next().ok_or("--samples needs a value")?;
                args.samples = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --samples '{v}'"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v
                    .parse()
                    .ok()
                    .filter(|n: &usize| *n >= 1)
                    .ok_or(format!("invalid thread count '{v}'"))?
                    .into();
            }
            "--log-out" => args.log_out = Some(it.next().ok_or("--log-out needs a value")?),
            "--log-level" => {
                let v = it.next().ok_or("--log-level needs a value")?;
                args.log_level = obs::Level::parse(&v).ok_or(format!("unknown log level '{v}'"))?;
            }
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out needs a value")?)
            }
            "--metrics-interval-ms" => {
                let v = it.next().ok_or("--metrics-interval-ms needs a value")?;
                args.metrics_interval_ms = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --metrics-interval-ms '{v}'"))?;
            }
            "--accuracy-log" => {
                args.accuracy_log = it.next().ok_or("--accuracy-log needs a value")?
            }
            "--help" | "-h" => {
                print_serve_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown serve argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn print_serve_help() {
    println!(
        "Tile-size advisory service: JSON-lines queries in, JSON-lines answers out.\n\n\
         USAGE: experiments serve [FLAGS]\n\n\
         Reads one JSON query object per line from stdin (or --queries FILE)\n\
         to end-of-input, answers the whole batch — duplicate queries are\n\
         computed once — and writes one answer line per query on stdout, in\n\
         input order. With --listen, runs the concurrent socket server\n\
         instead: many JSON-lines connections, store and memory-cache hits\n\
         answered on each connection's reader, misses coalesced across\n\
         clients on a worker pool, bounded queues (explicit 'overloaded'\n\
         shedding), and optional precomputed-answer serving. See README.md,\n\
         sections \"Advisor service\" and \"Serving at scale\".\n\n\
         FLAGS:\n\
           --queries PATH        read queries from PATH instead of stdin\n\
           --listen ADDR         serve over TCP (e.g. 127.0.0.1:7077; port 0 picks\n\
                                 an ephemeral port) until killed\n\
           --port-file PATH      write the bound port number to PATH once listening\n\
                                 (readiness signal for scripts and CI)\n\
           --store PATH          load a precomputed answer store (see: experiments\n\
                                 precompute); steady-state hits are pure lookup\n\
           --store-stale-ok      accept a store from a different git or calibration\n\
                                 revision (stale entries are re-derived, not served)\n\
           --calib PATH          load a calibration store (see: experiments\n\
                                 calibrate); its per-segment corrections refine the\n\
                                 model before ranking, and answers carry calib_rev\n\
           --workers N           socket worker threads (default: core count)\n\
           --queue-cap N         shared admission queue bound (default: 1024)\n\
           --conn-queue-cap N    per-connection outstanding-line bound (default: 128)\n\
           --window-us N         miss coalescing window in us (default: 500)\n\
           --max-batch N         max requests per worker batch (default: 64)\n\
           --cache-dir DIR       on-disk answer cache (default: {}/advisor_cache);\n\
                                 entries are invalidated by any git revision change\n\
           --no-disk-cache       keep answers only in the in-memory LRU\n\
           --mem-cap N           in-memory LRU capacity (default: 256)\n\
           --samples N           Citer micro-benchmark samples (default: 16)\n\
           --threads N           size the global rayon pool (default: all cores)\n\
           --log-out PATH        write the run's structured telemetry as JSONL\n\
           --log-level LEVEL     event verbosity: quiet|info|debug (default: info)\n\
           --metrics-out PATH    stream one JSON metrics-summary line per interval\n\
                                 (.prom extension: Prometheus text exposition)\n\
           --metrics-interval-ms N   emitter period (default: 1000)\n\
           --accuracy-log PATH   append (predicted, measured) pairs from validated\n\
                                 queries (default: {}/accuracy_log.jsonl)",
        experiments::DEFAULT_OUT_DIR,
        experiments::DEFAULT_OUT_DIR
    );
}

/// Flags of the `precompute` subcommand.
struct PrecomputeArgs {
    out: String,
    devices: Vec<DeviceConfig>,
    stencils: Vec<stencil_core::StencilDescriptor>,
    sizes: Vec<usize>,
    times: Vec<usize>,
    within: f64,
    top_n: usize,
    samples: usize,
    threads: Option<usize>,
    calib: Option<String>,
}

fn parse_precompute_args(rest: impl Iterator<Item = String>) -> Result<PrecomputeArgs, String> {
    use experiments::servebench::{
        parse_devices, parse_stencils, parse_usizes, DEFAULT_DEVICES, DEFAULT_SIZES,
        DEFAULT_STENCILS, DEFAULT_TIMES,
    };
    let mut args = PrecomputeArgs {
        out: format!("{}/advisor_store.jsonl", experiments::DEFAULT_OUT_DIR),
        devices: parse_devices(DEFAULT_DEVICES)?,
        stencils: parse_stencils(DEFAULT_STENCILS)?,
        sizes: parse_usizes(DEFAULT_SIZES, "--sizes")?,
        times: parse_usizes(DEFAULT_TIMES, "--times")?,
        within: 0.10,
        top_n: 10,
        samples: 16,
        threads: None,
        calib: None,
    };
    let mut it = rest;
    while let Some(a) = it.next() {
        let mut next = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--out" => args.out = next("--out")?,
            "--devices" => args.devices = parse_devices(&next("--devices")?)?,
            "--stencils" => args.stencils = parse_stencils(&next("--stencils")?)?,
            "--sizes" => args.sizes = parse_usizes(&next("--sizes")?, "--sizes")?,
            "--times" => args.times = parse_usizes(&next("--times")?, "--times")?,
            "--within" => {
                let v = next("--within")?;
                args.within = v
                    .parse()
                    .ok()
                    .filter(|f: &f64| f.is_finite() && *f >= 0.0)
                    .ok_or(format!("invalid --within '{v}'"))?;
            }
            "--top-n" => {
                let v = next("--top-n")?;
                args.top_n = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --top-n '{v}'"))?;
            }
            "--samples" => {
                let v = next("--samples")?;
                args.samples = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --samples '{v}'"))?;
            }
            "--threads" => {
                let v = next("--threads")?;
                args.threads = Some(
                    v.parse()
                        .ok()
                        .filter(|n: &usize| *n >= 1)
                        .ok_or(format!("invalid thread count '{v}'"))?,
                );
            }
            "--calib" => args.calib = Some(next("--calib")?),
            "--help" | "-h" => {
                print_precompute_help();
                std::process::exit(0);
            }
            other => {
                return Err(format!(
                    "unknown precompute argument '{other}' (try --help)"
                ))
            }
        }
    }
    Ok(args)
}

fn print_precompute_help() {
    use experiments::servebench::{
        DEFAULT_DEVICES, DEFAULT_SIZES, DEFAULT_STENCILS, DEFAULT_TIMES,
    };
    println!(
        "Sweep the Eqn-31 model over a (device, stencil, size, time) grid and write\n\
         the answers to an on-disk store that `experiments serve --store` loads at\n\
         startup — steady-state serving becomes pure lookup with zero model\n\
         evaluations.\n\n\
         USAGE: experiments precompute [FLAGS]\n\n\
         FLAGS:\n\
           --out PATH            store file (default: {}/advisor_store.jsonl)\n\
           --devices a,b         device presets (default: {DEFAULT_DEVICES})\n\
           --stencils x,y        stencil kinds (default: {DEFAULT_STENCILS})\n\
           --sizes s1,s2         per-dimension extents (default: {DEFAULT_SIZES});\n\
                                 a 2D stencil at 1024 means 1024 x 1024\n\
           --times t1,t2         time horizons (default: {DEFAULT_TIMES})\n\
           --within F            candidate band fraction (default: 0.10 — must match\n\
                                 the queries the server will see)\n\
           --top-n N             candidates per answer (default: 10 — ditto)\n\
           --samples N           Citer micro-benchmark samples (default: 16)\n\
           --threads N           size the global rayon pool\n\
           --calib PATH          apply a calibration store's corrections while\n\
                                 sweeping; the answer store records its revision\n\n\
         The store records the git revision (and calibration revision, if any)\n\
         that computed it; serving under a different one requires\n\
         --store-stale-ok.",
        experiments::DEFAULT_OUT_DIR
    );
}

/// Flags of the `calibrate` subcommand.
struct CalibrateArgs {
    log: String,
    out: String,
    min_evidence: u64,
    merge: Option<String>,
    freeze: bool,
    inspect: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_calibrate_args(rest: impl Iterator<Item = String>) -> Result<CalibrateArgs, String> {
    let mut args = CalibrateArgs {
        log: format!("{}/accuracy_log.jsonl", experiments::DEFAULT_OUT_DIR),
        out: format!("{}/calib_store.jsonl", experiments::DEFAULT_OUT_DIR),
        min_evidence: calib::DEFAULT_MIN_EVIDENCE,
        merge: None,
        freeze: false,
        inspect: None,
        compare: None,
    };
    let mut it = rest;
    while let Some(a) = it.next() {
        let mut next = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--log" => args.log = next("--log")?,
            "--out" => args.out = next("--out")?,
            "--min-evidence" => {
                let v = next("--min-evidence")?;
                args.min_evidence = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --min-evidence '{v}'"))?;
            }
            "--merge" => args.merge = Some(next("--merge")?),
            "--freeze" => args.freeze = true,
            "--inspect" => args.inspect = Some(next("--inspect")?),
            "--compare" => {
                let pre = next("--compare")?;
                let post = next("--compare POST")?;
                args.compare = Some((pre, post));
            }
            "--help" | "-h" => {
                print_calibrate_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown calibrate argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn print_calibrate_help() {
    println!(
        "Fit per-(device, stencil, dim) model corrections from the accuracy log\n\
         that validated serving (and --bench-exec) appended, and write them to a\n\
         calibration store for `experiments serve --calib` / `precompute --calib`.\n\n\
         USAGE: experiments calibrate [FLAGS]\n\n\
         Each accuracy row whose measured/predicted ratio and memory-bound\n\
         attribution are usable feeds the segment's Citer factor (compute-bound\n\
         rows) or memory-term factor (memory-bound rows). A factor is served\n\
         only once it has at least --min-evidence pairs; under-evidenced\n\
         segments leave the model untouched, bit for bit.\n\n\
         FLAGS:\n\
           --log PATH            accuracy log to fit from, .1 rollover included\n\
                                 (default: {}/accuracy_log.jsonl)\n\
           --out PATH            calibration store to write\n\
                                 (default: {}/calib_store.jsonl)\n\
           --min-evidence N      pairs before a factor is served (default: {})\n\
           --merge PATH          fold an existing store's evidence into the fit\n\
                                 (running sums add; the new gate wins)\n\
           --freeze              mark the store frozen: later calibrate runs\n\
                                 refuse to fold more evidence into it\n\
           --inspect PATH        print a store's segments and factors, then exit\n\
                                 (no fitting)\n\
           --compare PRE POST    compare per-segment RMSE of two accuracy logs;\n\
                                 exit 0 iff every shared segment improved or held\n\
                                 and at least one segment is shared (no fitting)",
        experiments::DEFAULT_OUT_DIR,
        experiments::DEFAULT_OUT_DIR,
        calib::DEFAULT_MIN_EVIDENCE
    );
}

/// Run the `calibrate` subcommand; returns the process exit code.
fn run_calibrate(rest: impl Iterator<Item = String>) -> i32 {
    let args = match parse_calibrate_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if let Some(path) = &args.inspect {
        let store = match calib::CalibrationStore::load(std::path::Path::new(path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return 1;
            }
        };
        println!(
            "calibration store {path}: {} segments ({} active), min_evidence {}, revision {}{}",
            store.len(),
            store.active_segments(),
            store.min_evidence(),
            store.revision(),
            if store.frozen() { ", frozen" } else { "" }
        );
        for (key, seg) in store.segments() {
            println!(
                "  {key:32}  citer: n={:3} factor={:.4}{}   mem: n={:3} factor={:.4}{}",
                seg.citer.n,
                seg.citer.factor(),
                if seg.citer.n >= store.min_evidence() {
                    ""
                } else {
                    " (gated)"
                },
                seg.mem.n,
                seg.mem.factor(),
                if seg.mem.n >= store.min_evidence() {
                    ""
                } else {
                    " (gated)"
                },
            );
        }
        return 0;
    }
    if let Some((pre, post)) = &args.compare {
        let load = |p: &str| {
            calib::log_segment_rmse(std::path::Path::new(p)).unwrap_or_else(|e| {
                eprintln!("error: {p}: {e}");
                std::process::exit(1);
            })
        };
        let (pre_rmse, post_rmse) = (load(pre), load(post));
        let mut shared = 0usize;
        let mut regressed = 0usize;
        for (key, (n_post, r_post)) in &post_rmse {
            let Some((n_pre, r_pre)) = pre_rmse.get(key) else {
                println!(
                    "  {key:32}  post RMSE {:6.1}% (n={n_post}) — no pre data",
                    100.0 * r_post
                );
                continue;
            };
            shared += 1;
            let improved = r_post <= r_pre;
            if !improved {
                regressed += 1;
            }
            println!(
                "  {key:32}  RMSE {:6.1}% (n={n_pre}) -> {:6.1}% (n={n_post})  {}",
                100.0 * r_pre,
                100.0 * r_post,
                if improved { "ok" } else { "REGRESSED" }
            );
        }
        if shared == 0 {
            eprintln!("compare FAILED: the two logs share no segment");
            return 1;
        }
        if regressed > 0 {
            eprintln!("compare FAILED: {regressed}/{shared} shared segments regressed");
            return 1;
        }
        println!("compare passed: all {shared} shared segments improved or held");
        return 0;
    }
    let mut store = calib::CalibrationStore::new(args.min_evidence);
    if let Some(path) = &args.merge {
        let prior = match calib::CalibrationStore::load(std::path::Path::new(path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: --merge {path}: {e}");
                return 1;
            }
        };
        if let Err(e) = store.merge(&prior) {
            eprintln!("error: --merge {path}: {e}");
            return 1;
        }
    }
    let stats = match store.consume_log(std::path::Path::new(&args.log)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: --log {}: {e}", args.log);
            return 1;
        }
    };
    if args.freeze {
        store.freeze();
    }
    if let Err(e) = store.save(std::path::Path::new(&args.out)) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return 1;
    }
    println!(
        "calibrated {} segments ({} active) from {} pairs ({} rejected) -> {}, revision {}{}",
        store.len(),
        store.active_segments(),
        stats.consumed,
        stats.rejected,
        args.out,
        store.revision(),
        if store.frozen() { ", frozen" } else { "" }
    );
    for (key, seg) in store.segments() {
        let gate = store.min_evidence();
        println!(
            "  {key:32}  citer x{:.4} (n={}{})   mem x{:.4} (n={}{})",
            seg.citer.factor(),
            seg.citer.n,
            if seg.citer.n >= gate { "" } else { ", gated" },
            seg.mem.factor(),
            seg.mem.n,
            if seg.mem.n >= gate { "" } else { ", gated" },
        );
    }
    0
}

/// Run the `precompute` subcommand; returns the process exit code.
fn run_precompute(rest: impl Iterator<Item = String>) -> i32 {
    let args = match parse_precompute_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if let Some(n) = args.threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure global thread pool");
    }
    let queries = match advisor::grid_queries(
        &args.devices,
        &args.stencils,
        &args.sizes,
        &args.times,
        args.within,
        args.top_n,
    ) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("error: invalid grid: {e}");
            return 2;
        }
    };
    println!(
        "precomputing {} answers ({} devices x {} stencils x {} sizes x {} times) ...",
        queries.len(),
        args.devices.len(),
        args.stencils.len(),
        args.sizes.len(),
        args.times.len()
    );
    let calib = args.calib.as_ref().map(|path| {
        let store = calib::CalibrationStore::load(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("error: --calib {path}: {e}");
            std::process::exit(2);
        });
        println!(
            "calibration store: {} segments ({} active), revision {}",
            store.len(),
            store.active_segments(),
            store.revision()
        );
        Arc::new(store)
    });
    let calib_rev = calib.as_ref().map(|c| c.revision());
    let advisor = advisor::Advisor::new(advisor::AdvisorConfig {
        citer_samples: args.samples,
        seed: experiments::SEED,
        disk_dir: None,
        mem_capacity: queries.len().max(1),
        calib,
        ..advisor::AdvisorConfig::default()
    });
    let t0 = std::time::Instant::now();
    let mut store =
        advisor::AnswerStore::empty(experiments::SEED, args.samples).with_calib_rev(calib_rev);
    let added = store.precompute(&advisor, &queries);
    let elapsed = t0.elapsed().as_secs_f64();
    let path = std::path::PathBuf::from(&args.out);
    store.write(&path).expect("write answer store");
    println!(
        "{added} answers written to {} in {elapsed:.1}s ({:.1} sweeps/s), git_rev {}",
        args.out,
        added as f64 / elapsed.max(1e-9),
        store.git_rev()
    );
    if added < queries.len() {
        eprintln!(
            "warning: {} grid cells not stored (degraded answers are never stored)",
            queries.len() - added
        );
    }
    0
}

/// Run the `serve` subcommand; returns the process exit code.
fn run_serve(rest: impl Iterator<Item = String>) -> i32 {
    let args = match parse_serve_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if let Some(n) = args.threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure global thread pool");
    }
    // The sharded recorder is always installed: it feeds the flight
    // recorder and the accuracy/drift telemetry even when no export
    // flag was given.
    let recorder = Arc::new(obs::ShardedRecorder::new(args.log_level));
    obs::install(recorder.clone());
    obs::flight::install_panic_hook(std::path::PathBuf::from(experiments::DEFAULT_OUT_DIR));
    let emitter = args.metrics_out.as_ref().map(|path| {
        let rec = recorder.clone();
        obs::MetricsEmitter::start(
            path.into(),
            std::time::Duration::from_millis(args.metrics_interval_ms),
            Box::new(move || rec.snapshot()),
        )
        .expect("start --metrics-out emitter")
    });
    let accuracy =
        Arc::new(obs::AccuracyLog::open(&args.accuracy_log).expect("open --accuracy-log file"));
    let calib = args.calib.as_ref().map(|path| {
        let store = calib::CalibrationStore::load(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("error: --calib {path}: {e}");
            std::process::exit(2);
        });
        obs::gauge("calib.segments_active", store.active_segments() as f64);
        eprintln!(
            "calibration store: {} segments ({} active) from {path}, revision {}",
            store.len(),
            store.active_segments(),
            store.revision()
        );
        Arc::new(store)
    });
    let calib_rev = calib.as_ref().map(|c| c.revision());
    let store = args.store.as_ref().map(|path| {
        let store = advisor::AnswerStore::load(
            std::path::Path::new(path),
            args.store_stale_ok,
            calib_rev.as_deref(),
        )
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        eprintln!(
            "answer store: {} precomputed answers from {path}",
            store.len()
        );
        Arc::new(store)
    });
    // Fault injection for tests and the CI calibration smoke job: bias
    // the advisor's view of the measured Citer so the closed loop has a
    // real model error to remove (mirrors HHC_ROOFLINE_BAND's style).
    let citer_scale = match std::env::var("HHC_CITER_SCALE") {
        Ok(v) => v
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .unwrap_or_else(|| {
                eprintln!("error: invalid HHC_CITER_SCALE '{v}'");
                std::process::exit(2);
            }),
        Err(_) => 1.0,
    };
    if citer_scale != 1.0 {
        eprintln!("fault injection: Citer biased by x{citer_scale} (HHC_CITER_SCALE)");
    }
    let advisor = advisor::Advisor::new(advisor::AdvisorConfig {
        mem_capacity: args.mem_cap,
        disk_dir: args.cache_dir.as_ref().map(Into::into),
        citer_samples: args.samples,
        accuracy: Some(accuracy),
        store,
        calib,
        citer_scale,
        ..advisor::AdvisorConfig::default()
    });
    if let Some(addr) = &args.listen {
        // Socket mode: serve until killed. The one-shot exporters below
        // never run; --metrics-out keeps streaming periodically.
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: cannot listen on {addr}: {e}");
                return 2;
            }
        };
        let server = advisor::Server::start(Arc::new(advisor), listener, args.server.clone())
            .expect("start server");
        let bound = server.addr();
        if let Some(path) = &args.port_file {
            std::fs::write(path, format!("{}\n", bound.port())).expect("write --port-file");
        }
        eprintln!(
            "advisor listening on {bound} ({} workers)",
            args.server.workers
        );
        if args.log_out.is_some() {
            eprintln!(
                "note: --log-out writes once at end of run and socket mode never ends; \
                 use --metrics-out for periodic snapshots"
            );
        }
        loop {
            std::thread::park();
        }
    }
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let served = match &args.queries {
        Some(path) => {
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: cannot open --queries {path}: {e}");
                    return 2;
                }
            };
            advisor::serve_lines(&advisor, std::io::BufReader::new(file), &mut out)
        }
        None => advisor::serve_lines(&advisor, std::io::stdin().lock(), &mut out),
    };
    drop(out);
    let stats = match served {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: serve I/O failed: {e}");
            return 1;
        }
    };
    if let Some(em) = emitter {
        em.stop();
    }
    obs::uninstall();
    let snap = recorder.snapshot();
    if snap.counter("advisor.degraded") > 0 {
        match obs::flight::dump(
            std::path::Path::new(experiments::DEFAULT_OUT_DIR),
            "advisor_degraded",
        ) {
            Ok(Some(path)) => eprintln!("flight recorder dumped to {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("flight recorder dump failed: {e}"),
        }
    }
    if let Some(path) = &args.log_out {
        let file = std::fs::File::create(path).expect("create --log-out file");
        let mut w = std::io::BufWriter::new(file);
        recorder.write_jsonl(&mut w).expect("write --log-out file");
        w.flush().expect("flush --log-out file");
    }
    eprintln!(
        "served {} answers ({} parse errors)",
        stats.answered, stats.errors
    );
    if stats.errors > 0 {
        1
    } else {
        0
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("serve") {
        argv.next();
        std::process::exit(run_serve(argv));
    }
    if argv.peek().map(String::as_str) == Some("precompute") {
        argv.next();
        std::process::exit(run_precompute(argv));
    }
    if argv.peek().map(String::as_str) == Some("calibrate") {
        argv.next();
        std::process::exit(run_calibrate(argv));
    }
    drop(argv);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(n) = args.threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure global thread pool");
    }
    // Telemetry: the sharded recorder is always installed — it arms the
    // flight recorder (crash dumps) and keeps hot-path cost to striped
    // relaxed atomics — but files are only written for the flags given.
    let recorder = Arc::new(obs::ShardedRecorder::new(args.log_level));
    obs::install(recorder.clone());
    obs::flight::install_panic_hook(std::path::PathBuf::from(&args.out));
    let emitter = args.metrics_out.as_ref().map(|path| {
        let rec = recorder.clone();
        obs::MetricsEmitter::start(
            path.into(),
            std::time::Duration::from_millis(args.metrics_interval_ms),
            Box::new(move || rec.snapshot()),
        )
        .expect("start --metrics-out emitter")
    });
    let lab = Lab::new(args.scale);
    let mut results = Results::new(&args.out).expect("create output directory");
    let scale = args.scale.label();
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

    if args.bench_exec {
        let _phase = obs::span("phase.bench_exec", "driver");
        println!(
            "\n=== Executor benchmark: rolling window + row kernels vs seed baseline (scale: {scale}, {} threads) ===",
            rayon::current_num_threads()
        );
        let report = experiments::bench::bench_exec(&lab, args.parallel_exec);
        let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
        std::fs::write("BENCH_exec.json", json).expect("write BENCH_exec.json");
        println!("  report written to BENCH_exec.json");
        // Accuracy telemetry: each exec row yields one (predicted,
        // measured) wall-clock pair. The roofline predicts throughput;
        // predicted time = measured time x (measured/predicted ratio),
        // so rel_err == roofline_ratio - 1 and the drift band is the
        // roofline band re-centered on zero.
        {
            let (lo, hi) = report.roofline.ratio_band;
            let band = (lo - 1.0).abs().max((hi - 1.0).abs());
            let acc =
                obs::AccuracyLog::open(std::path::Path::new(&args.out).join("accuracy_log.jsonl"))
                    .expect("open accuracy log");
            for row in &report.exec {
                let dim = StencilKind::ALL
                    .iter()
                    .find(|k| k.name() == row.benchmark)
                    .map_or(0, |k| k.spec().dim.rank() as u32);
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
        if args.check_roofline {
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
                match obs::flight::dump(std::path::Path::new(&args.out), "roofline_out_of_band") {
                    Ok(Some(path)) => eprintln!("flight recorder dumped to {}", path.display()),
                    Ok(None) => {}
                    Err(e) => eprintln!("flight recorder dump failed: {e}"),
                }
                std::process::exit(1);
            }
            println!("  roofline check passed");
        }
    }

    if args.table2 {
        let _phase = obs::span("phase.table2", "driver");
        let rows = tables::table2(&lab);
        println!("\n=== Table 2: GPU configurations ===");
        for r in &rows {
            println!(
                "  {:10}  nSM={:2}  nV={}  MSM={}KB  RSM={}  banks={}  maxTB/SM={}",
                r.device, r.n_sm, r.n_v, r.m_sm_kb, r.r_sm, r.shared_banks, r.max_tb_per_sm
            );
        }
        results.write_json("table2", &rows).expect("write table2");
    }

    if args.table3 {
        let _phase = obs::span("phase.table3", "driver");
        let rows = tables::table3(&lab);
        println!("\n=== Table 3: measured timing parameters (paper: L=7.36e-3/5.42e-3 s/GB, tau=7.96e-10/6.74e-10 s, Tsync=9.24e-7/9.00e-7 s) ===");
        for r in &rows {
            println!(
                "  {:10}  L = {:.3e} s/GB   tau_sync = {:.3e} s   T_sync = {:.3e} s",
                r.device, r.l_s_per_gb, r.tau_sync, r.t_sync
            );
        }
        results.write_json("table3", &rows).expect("write table3");
    }

    if args.table4 {
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
        results.write_json("table4", &rows).expect("write table4");
    }

    if args.fig3 {
        let _phase = obs::span("phase.fig3", "driver");
        println!("\n=== Figure 3 / Section 5.3: model validation (scale: {scale}) ===");
        let (rows, pooled) = figures::figure3(&lab, &args.dims);
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
            .expect("write fig3");
        results
            .write_json(&format!("figure3_pooled_{scale}"), &pooled)
            .expect("write fig3 pooled");
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
            .expect("write fig3 scatter");
    }

    if args.fig4 {
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
            .expect("write fig4");
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
            .expect("write fig4 surface");
    }

    if args.fig5 {
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
            .expect("write fig5");
    }

    if args.fig6 {
        let _phase = obs::span("phase.fig6", "driver");
        println!(
            "\n=== Figure 6: average GFLOPS by tile-size selection strategy (scale: {scale}) ==="
        );
        let (rows, details) = figures::figure6(&lab, args.exhaustive);
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
        if args.trace_out.is_some() {
            sim_payload = fig6_sim_payload(&lab, &details);
        }
        results
            .write_json(&format!("figure6_{scale}"), &rows)
            .expect("write fig6");
        results
            .write_json(&format!("figure6_details_{scale}"), &details)
            .expect("write fig6 details");
    }

    if args.zoo {
        let _phase = obs::span("phase.zoo", "driver");
        println!(
            "\n=== Stencil zoo: non-paper descriptors through the full pipeline (scale: {scale}) ==="
        );
        let zoo = stencil_core::StencilDescriptor::zoo();
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
            .expect("write zoo fig3");
        results
            .write_json(&format!("figure3_zoo_pooled_{scale}"), &pooled)
            .expect("write zoo fig3 pooled");

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
            .expect("write zoo fig6");
        results
            .write_json(&format!("figure6_zoo_details_{scale}"), &zdetails)
            .expect("write zoo fig6 details");

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
            std::process::exit(1);
        }
        println!(
            "  zoo check passed: all {} within-10% candidate sets non-empty",
            zdetails.len()
        );
    }

    if args.ablation {
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
            .expect("write ablation");

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
            .expect("write machine ablation");
    }

    if args.solver {
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
            .expect("write solver");
    }

    if args.wavefront {
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
            .expect("write wavefront");
    }

    // Exporters: stop the periodic emitter (it writes its final line)
    // and detach the recorder first so the export itself is not still
    // appending to the store it snapshots.
    if let Some(em) = emitter {
        em.stop();
    }
    obs::uninstall();
    if let Some(path) = &args.trace_out {
        let mut trace = obs::chrome::ChromeTrace::new();
        trace.name_process(0, "experiments driver");
        trace.add_spans(0, &recorder.snapshot().spans);
        let mut traced_kernels = 0;
        if let Some(p) = &sim_payload {
            trace.name_process(
                1,
                &format!(
                    "gpu-sim: {} {} on {}",
                    p.kind.name(),
                    p.size.label(),
                    p.device.name
                ),
            );
            traced_kernels = export_workload_trace(&mut trace, 1, p);
        }
        std::fs::write(path, trace.to_json()).expect("write --trace-out file");
        println!(
            "chrome trace written to {path} ({} events, {traced_kernels} simulated kernels)",
            trace.len()
        );
    }
    if let Some(path) = &args.log_out {
        let file = std::fs::File::create(path).expect("create --log-out file");
        let mut w = std::io::BufWriter::new(file);
        recorder.write_jsonl(&mut w).expect("write --log-out file");
        w.flush().expect("flush --log-out file");
        let snap = recorder.snapshot();
        println!(
            "telemetry log written to {path} ({} events, {} spans, {} counters)",
            snap.events.len(),
            snap.spans.len(),
            snap.counters.len()
        );
    }

    println!("\nresults written to {}/", results.dir().display());
}
