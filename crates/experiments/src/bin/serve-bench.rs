//! Load generator for the advisor's socket server.
//!
//! ```text
//! serve-bench [--queries N] [--connections N] [--pipeline N]
//!             [--zipf S] [--seed N]
//!             [--devices a,b] [--stencils x,y] [--sizes s1,s2] [--times t1,t2]
//!             [--samples N] [--threads N]
//!             [--store PATH] [--store-stale-ok]
//!             [--addr HOST:PORT]
//!             [--workers N] [--queue-cap N] [--conn-queue-cap N]
//!             [--window-us N] [--max-batch N]
//!             [--out PATH] [--log-out PATH]
//! ```
//!
//! Default (spawn) mode measures the whole serving claim end to end on
//! one machine, in one process:
//!
//! 1. **Cold baseline** — every distinct key of the configured
//!    (devices × stencils × sizes × times) universe is computed once
//!    through a bare advisor (micro-benchmarks pre-warmed, no serving
//!    stack), giving the model-only `cold_qps`.
//! 2. **Store** — the same universe is precomputed into an
//!    [`advisor::AnswerStore`] (or loaded from `--store PATH`).
//! 3. **Replay** — an in-process socket server is started over a
//!    *fresh* advisor holding only that store, and `--connections`
//!    client threads replay `--queries` zipf-skewed queries with up to
//!    `--pipeline` requests in flight each. Every warm answer is a
//!    store hit: the server-side counters must show zero model
//!    evaluations.
//!
//! The report lands in `BENCH_serve.json`: QPS, client-observed
//! p50/p90/p99 latency, store/cache hit rates, shed rate, and
//! `warm_speedup = qps / cold_qps` (the acceptance headline). With
//! `--addr` the tool only replays against an external server and the
//! server-side counter fields read zero.

use experiments::servebench::{
    parse_devices, parse_stencils, parse_usizes, query_jsonl, ClientStats, LatencySummary,
    ServeBenchReport, ServeSection, ZipfSampler, DEFAULT_DEVICES, DEFAULT_SIZES, DEFAULT_STENCILS,
    DEFAULT_TIMES,
};
use gpu_sim::DeviceConfig;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stencil_core::StencilDescriptor;

struct Args {
    queries: usize,
    connections: usize,
    pipeline: usize,
    zipf_s: f64,
    seed: u64,
    devices: Vec<DeviceConfig>,
    stencils: Vec<StencilDescriptor>,
    sizes: Vec<usize>,
    times: Vec<usize>,
    samples: usize,
    threads: Option<usize>,
    store: Option<String>,
    store_stale_ok: bool,
    addr: Option<String>,
    server: advisor::ServerConfig,
    out: String,
    log_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        queries: 100_000,
        connections: 4,
        pipeline: 32,
        zipf_s: 1.1,
        seed: experiments::SEED,
        devices: parse_devices(DEFAULT_DEVICES)?,
        stencils: parse_stencils(DEFAULT_STENCILS)?,
        sizes: parse_usizes(DEFAULT_SIZES, "--sizes")?,
        times: parse_usizes(DEFAULT_TIMES, "--times")?,
        samples: 16,
        threads: None,
        store: None,
        store_stale_ok: false,
        addr: None,
        server: advisor::ServerConfig::default(),
        out: "BENCH_serve.json".to_string(),
        log_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--queries" => {
                let v = next("--queries")?;
                args.queries = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --queries '{v}'"))?;
            }
            "--connections" => {
                let v = next("--connections")?;
                args.connections = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --connections '{v}'"))?;
            }
            "--pipeline" => {
                let v = next("--pipeline")?;
                args.pipeline = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --pipeline '{v}'"))?;
            }
            "--zipf" => {
                let v = next("--zipf")?;
                args.zipf_s = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("invalid --zipf '{v}'"))?;
            }
            "--seed" => {
                let v = next("--seed")?;
                args.seed = v.parse().map_err(|_| format!("invalid --seed '{v}'"))?;
            }
            "--devices" => args.devices = parse_devices(&next("--devices")?)?,
            "--stencils" => args.stencils = parse_stencils(&next("--stencils")?)?,
            "--sizes" => args.sizes = parse_usizes(&next("--sizes")?, "--sizes")?,
            "--times" => args.times = parse_usizes(&next("--times")?, "--times")?,
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
                        .ok_or(format!("invalid --threads '{v}'"))?,
                );
            }
            "--store" => args.store = Some(next("--store")?),
            "--store-stale-ok" => args.store_stale_ok = true,
            "--addr" => args.addr = Some(next("--addr")?),
            "--workers" => {
                let v = next("--workers")?;
                args.server.workers = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --workers '{v}'"))?;
            }
            "--queue-cap" => {
                let v = next("--queue-cap")?;
                args.server.queue_cap = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --queue-cap '{v}'"))?;
            }
            "--conn-queue-cap" => {
                let v = next("--conn-queue-cap")?;
                args.server.conn_queue_cap = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --conn-queue-cap '{v}'"))?;
            }
            "--window-us" => {
                let v = next("--window-us")?;
                let us: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --window-us '{v}'"))?;
                args.server.batch_window = Duration::from_micros(us);
            }
            "--max-batch" => {
                let v = next("--max-batch")?;
                args.server.max_batch = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("invalid --max-batch '{v}'"))?;
            }
            "--out" => args.out = next("--out")?,
            "--log-out" => args.log_out = Some(next("--log-out")?),
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn print_help() {
    println!(
        "Replay zipf-skewed advisor queries against the socket server and write BENCH_serve.json.\n\n\
         USAGE: serve-bench [FLAGS]\n\n\
         LOAD SHAPE:\n\
           --queries N           total queries to replay (default: 100000)\n\
           --connections N       concurrent client connections (default: 4)\n\
           --pipeline N          max in-flight requests per connection (default: 32)\n\
           --zipf S              key-skew exponent, 0 = uniform (default: 1.1)\n\
           --seed N              deterministic sampling seed (default: 0x5EED)\n\n\
         KEY UNIVERSE (must match the store's precompute grid):\n\
           --devices a,b         device presets (default: {DEFAULT_DEVICES})\n\
           --stencils x,y        stencil kinds (default: {DEFAULT_STENCILS})\n\
           --sizes s1,s2         per-dimension extents (default: {DEFAULT_SIZES})\n\
           --times t1,t2         time horizons (default: {DEFAULT_TIMES})\n\n\
         SERVER (spawn mode, the default):\n\
           --store PATH          load a precomputed answer store instead of building one\n\
           --store-stale-ok      accept a store from a different git revision\n\
           --samples N           Citer micro-benchmark samples (default: 16)\n\
           --threads N           size the global rayon pool\n\
           --workers N           server worker threads\n\
           --queue-cap N         shared admission queue bound\n\
           --conn-queue-cap N    per-connection outstanding-line bound\n\
           --window-us N         miss coalescing window, microseconds\n\
           --max-batch N         max requests per worker batch\n\n\
         EXTERNAL MODE:\n\
           --addr HOST:PORT      replay against an already-running server\n\
                                 (client-side metrics only)\n\n\
         OUTPUT:\n\
           --out PATH            report path (default: BENCH_serve.json)\n\
           --log-out PATH        dump the run's telemetry as JSONL"
    );
}

fn main() {
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

    // The replay universe: one wire line per (device, stencil, size,
    // time) cell, plus the matching grid queries for precompute/cold.
    let universe_queries = advisor::grid_queries(
        &args.devices,
        &args.stencils,
        &args.sizes,
        &args.times,
        0.10,
        10,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: invalid universe: {e}");
        std::process::exit(2);
    });
    let mut universe_lines = Vec::with_capacity(universe_queries.len());
    for device in &args.devices {
        for stencil in &args.stencils {
            for &s in &args.sizes {
                for &t in &args.times {
                    universe_lines.push(query_jsonl(device, stencil, s, t));
                }
            }
        }
    }
    assert_eq!(universe_lines.len(), universe_queries.len());
    eprintln!(
        "universe: {} distinct keys ({} devices x {} stencils x {} sizes x {} times)",
        universe_lines.len(),
        args.devices.len(),
        args.stencils.len(),
        args.sizes.len(),
        args.times.len()
    );

    let advisor_cfg = advisor::AdvisorConfig {
        citer_samples: args.samples,
        seed: experiments::SEED,
        ..advisor::AdvisorConfig::default()
    };

    // Phases 1+2 (spawn mode only): cold baseline, then the store.
    // Both run before telemetry is installed so the server-side counter
    // snapshot reports the replay alone.
    let (cold_qps, store) = if args.addr.is_some() {
        (0.0, None)
    } else if let Some(path) = &args.store {
        let store =
            advisor::AnswerStore::load(std::path::Path::new(path), args.store_stale_ok, None)
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                });
        eprintln!("store: loaded {} answers from {path}", store.len());
        (cold_baseline(&advisor_cfg, &universe_queries), Some(store))
    } else {
        let cold = advisor::Advisor::new(advisor_cfg.clone());
        let cold_qps = {
            prewarm_microbench(&cold, &args.devices, &args.stencils, &args.sizes);
            let t0 = Instant::now();
            for q in &universe_queries {
                std::hint::black_box(cold.advise(q));
            }
            universe_queries.len() as f64 / t0.elapsed().as_secs_f64()
        };
        // The cold advisor's mem cache now holds every universe key, so
        // building the store from it is pure cache hits.
        let mut store = advisor::AnswerStore::empty(experiments::SEED, args.samples);
        let added = store.precompute(&cold, &universe_queries);
        eprintln!("store: precomputed {added} answers in-memory");
        (cold_qps, Some(store))
    };
    if cold_qps > 0.0 {
        eprintln!("cold model-only baseline: {cold_qps:.1} queries/s");
    }

    // Phase 3: serve and replay.
    let recorder = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(recorder.clone());
    let (addr, server) = match &args.addr {
        Some(spec) => {
            let addr = spec.parse().unwrap_or_else(|e| {
                eprintln!("error: invalid --addr '{spec}': {e}");
                std::process::exit(2);
            });
            (addr, None)
        }
        None => {
            let serve_cfg = advisor::AdvisorConfig {
                store: store.map(Arc::new),
                ..advisor_cfg
            };
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
            let server = advisor::Server::start(
                Arc::new(advisor::Advisor::new(serve_cfg)),
                listener,
                args.server.clone(),
            )
            .expect("start server");
            (server.addr(), Some(server))
        }
    };

    // Deterministic per-connection workloads: connection i draws its
    // own zipf stream from seed+i.
    let per_conn = args.queries / args.connections;
    let remainder = args.queries % args.connections;
    let universe = Arc::new(universe_lines);
    eprintln!(
        "replaying {} queries over {} connections (pipeline {}, zipf {}) against {addr} ...",
        args.queries, args.connections, args.pipeline, args.zipf_s
    );
    let t0 = Instant::now();
    let clients: Vec<_> = (0..args.connections)
        .map(|c| {
            let universe = Arc::clone(&universe);
            let count = per_conn + usize::from(c < remainder);
            let seed = args.seed.wrapping_add(c as u64);
            let pipeline = args.pipeline;
            let zipf_s = args.zipf_s;
            std::thread::spawn(move || {
                let mut zipf = ZipfSampler::new(universe.len(), zipf_s, seed);
                let lines: Vec<String> = (0..count)
                    .map(|_| universe[zipf.sample()].clone())
                    .collect();
                experiments::servebench::replay_connection(addr, &lines, pipeline)
                    .expect("replay connection")
            })
        })
        .collect();
    let mut stats = ClientStats::default();
    for c in clients {
        stats.merge(c.join().expect("client thread"));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(server) = server {
        server.shutdown();
    }
    obs::uninstall();

    let snap = recorder.snapshot();
    let qps = stats.answered as f64 / wall_s;
    let queries = snap.counter("advisor.queries");
    let store_hits = snap.counter("advisor.store_hits");
    let mem_hits = snap.counter("advisor.cache_hits_mem");
    let rate = |n: u64| {
        if queries == 0 {
            0.0
        } else {
            n as f64 / queries as f64
        }
    };
    let section = ServeSection {
        connections: args.connections,
        pipeline: args.pipeline,
        universe: universe.len(),
        zipf_s: args.zipf_s,
        seed: args.seed,
        queries_sent: stats.sent,
        answered: stats.answered,
        shed: stats.shed,
        errors: stats.errors,
        wall_s,
        qps,
        latency_ms: LatencySummary::from_samples(&mut stats.latencies_ms),
        cold_qps,
        warm_speedup: if cold_qps > 0.0 { qps / cold_qps } else { 0.0 },
        store_hits,
        mem_hits,
        model_evals: snap.counter("advisor.model_evals"),
        queries,
        store_hit_rate: rate(store_hits),
        cache_hit_rate: rate(store_hits + mem_hits),
        shed_rate: stats.shed as f64 / stats.sent.max(1) as f64,
        answered_rate: stats.answered as f64 / stats.sent.max(1) as f64,
    };
    eprintln!(
        "replayed {} queries in {:.2}s: {:.0} answered/s, p50 {:.2}ms p99 {:.2}ms, \
         store hits {} ({}%), shed {}, errors {}, model evals {}",
        section.queries_sent,
        section.wall_s,
        section.qps,
        section.latency_ms.p50,
        section.latency_ms.p99,
        section.store_hits,
        (100.0 * section.store_hit_rate).round(),
        section.shed,
        section.errors,
        section.model_evals
    );
    if section.warm_speedup > 0.0 {
        eprintln!(
            "warm speedup vs cold model path: {:.1}x",
            section.warm_speedup
        );
    }
    let report = ServeBenchReport {
        manifest: experiments::RunManifest::collect("serve-bench"),
        serve: section,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&args.out, json).expect("write report");
    eprintln!("report written to {}", args.out);
    if let Some(path) = &args.log_out {
        let file = std::fs::File::create(path).expect("create --log-out file");
        let mut w = std::io::BufWriter::new(file);
        recorder.write_jsonl(&mut w).expect("write --log-out file");
        std::io::Write::flush(&mut w).expect("flush --log-out file");
        eprintln!("telemetry log written to {path}");
    }
    if report.serve.errors > 0 {
        eprintln!(
            "error: {} queries answered with errors",
            report.serve.errors
        );
        std::process::exit(1);
    }
}

/// Cold baseline when the store came from disk: computed on a throwaway
/// advisor with pre-warmed micro-benchmarks.
fn cold_baseline(cfg: &advisor::AdvisorConfig, universe: &[advisor::Query]) -> f64 {
    let cold = advisor::Advisor::new(cfg.clone());
    let devices: Vec<DeviceConfig> = universe.iter().map(|q| q.workload.device.clone()).collect();
    let stencils: Vec<StencilDescriptor> = universe
        .iter()
        .map(|q| q.workload.stencil.clone())
        .collect();
    let sizes: Vec<usize> = universe.iter().map(|q| q.workload.size.space[0]).collect();
    prewarm_microbench(&cold, &devices, &stencils, &sizes);
    let t0 = Instant::now();
    for q in universe {
        std::hint::black_box(cold.advise(q));
    }
    universe.len() as f64 / t0.elapsed().as_secs_f64()
}

/// Run one throwaway query per (device, stencil) pair at a size outside
/// the universe, so the memoized `Citer` micro-benchmarks don't bill
/// their one-time cost to the cold throughput measurement.
fn prewarm_microbench(
    advisor: &advisor::Advisor,
    devices: &[DeviceConfig],
    stencils: &[StencilDescriptor],
    sizes: &[usize],
) {
    let mut warm_size = 56;
    while sizes.contains(&warm_size) {
        warm_size += 8;
    }
    for device in devices {
        for stencil in stencils {
            let Ok(queries) = advisor::grid_queries(
                std::slice::from_ref(device),
                std::slice::from_ref(stencil),
                &[warm_size],
                &[4],
                0.10,
                1,
            ) else {
                continue;
            };
            for q in &queries {
                std::hint::black_box(advisor.advise(q));
            }
        }
    }
}
