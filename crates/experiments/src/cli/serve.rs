//! The serving commands: `serve` (the advisory service), `precompute`
//! (the answer store it loads) and `serve-bench` (its load generator).

use super::flags::{
    server_config, Matches, ACCURACY_LOG, ADDR, CALIB, CONNECTIONS, DEVICES, LISTEN, LOG_OUT,
    MEM_CAP, OUT, PIPELINE, PORT_FILE, QUERIES, REQUESTS, SAMPLES, SEED, SIZES, STENCILS, STORE,
    STORE_STALE_OK, TIMES, TOP_N, WITHIN, ZIPF,
};
use super::{create, Telemetry};
use experiments::servebench::{
    query_jsonl, ClientStats, LatencySummary, ServeBenchReport, ServeSection, ZipfSampler,
};
use gpu_sim::DeviceConfig;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use stencil_core::StencilDescriptor;

/// Load the `--calib` store, if one was given.
fn calibration(m: &Matches) -> Result<Option<Arc<calib::CalibrationStore>>, String> {
    let Some(path) = m.opt(&CALIB) else {
        return Ok(None);
    };
    let store = calib::CalibrationStore::load(Path::new(&path))
        .map_err(|e| format!("{} {path}: {e}", CALIB.name))?;
    obs::gauge("calib.segments_active", store.active_segments() as f64);
    eprintln!(
        "calibration store: {} segments ({} active) from {path}, revision {}",
        store.len(),
        store.active_segments(),
        store.revision()
    );
    Ok(Some(Arc::new(store)))
}

/// Run the `serve` subcommand; returns the process exit code.
pub fn serve(m: &Matches) -> Result<i32, String> {
    let telemetry = Telemetry::open(m)?.install(experiments::DEFAULT_OUT_DIR);
    let accuracy_log = m.get(&ACCURACY_LOG)?;
    let accuracy = obs::AccuracyLog::open(&accuracy_log)
        .map_err(|e| format!("{} {accuracy_log}: {e}", ACCURACY_LOG.name))?;
    let calib = calibration(m)?;
    let calib_rev = calib.as_ref().map(|c| c.revision());
    let defaults = advisor::AdvisorConfig::default();
    let samples = m.get(&SAMPLES)?;
    let store = match m.opt(&STORE) {
        Some(path) => {
            let store = advisor::AnswerStore::open(
                Path::new(&path),
                m.on(&STORE_STALE_OK),
                calib_rev.as_deref(),
                defaults.seed,
                samples,
            )?;
            eprintln!("answer store: {} answers from {path}", store.len());
            Some(Arc::new(store))
        }
        None => None,
    };
    // Fault injection for tests and the CI calibration smoke job: bias
    // the advisor's view of the measured Citer so the closed loop has a
    // real model error to remove (mirrors HHC_ROOFLINE_BAND's style).
    let citer_scale = match std::env::var("HHC_CITER_SCALE") {
        Ok(v) => v
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| format!("invalid HHC_CITER_SCALE '{v}'"))?,
        Err(_) => 1.0,
    };
    if citer_scale != 1.0 {
        eprintln!("fault injection: Citer biased by x{citer_scale} (HHC_CITER_SCALE)");
    }
    let advisor = advisor::Advisor::new(advisor::AdvisorConfig {
        mem_capacity: m.get(&MEM_CAP)?,
        citer_samples: samples,
        accuracy: Some(Arc::new(accuracy)),
        store,
        calib,
        citer_scale,
        ..defaults
    });
    if let Some(addr) = m.opt(&LISTEN) {
        // Socket mode: serve until killed. The one-shot exporters below
        // never run; --metrics-out keeps streaming periodically.
        let listener = std::net::TcpListener::bind(&addr)
            .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        let config = server_config(m);
        let workers = config.workers;
        let server = advisor::Server::start(Arc::new(advisor), listener, config)
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let bound = server.addr();
        if let Some(path) = m.opt(&PORT_FILE) {
            std::fs::write(&path, format!("{}\n", bound.port()))
                .map_err(|e| format!("{} {path}: {e}", PORT_FILE.name))?;
        }
        eprintln!("advisor listening on {bound} ({workers} workers)");
        if m.opt(&LOG_OUT).is_some() {
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
    let served = match m.opt(&QUERIES) {
        Some(path) => {
            let file = std::fs::File::open(&path)
                .map_err(|e| format!("cannot open {} {path}: {e}", QUERIES.name))?;
            advisor::serve_lines(&advisor, std::io::BufReader::new(file), &mut out)
        }
        None => advisor::serve_lines(&advisor, std::io::stdin().lock(), &mut out),
    };
    drop(out);
    let stats = match served {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: serve I/O failed: {e}");
            return Ok(1);
        }
    };
    let snap = telemetry.finish()?;
    if snap.counter("advisor.degraded") > 0 {
        match obs::flight::dump(Path::new(experiments::DEFAULT_OUT_DIR), "advisor_degraded") {
            Ok(Some(path)) => eprintln!("flight recorder dumped to {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("flight recorder dump failed: {e}"),
        }
    }
    eprintln!(
        "served {} answers ({} parse errors)",
        stats.answered, stats.errors
    );
    Ok(if stats.errors > 0 { 1 } else { 0 })
}

/// Run the `precompute` subcommand; returns the process exit code.
pub fn precompute(m: &Matches) -> Result<i32, String> {
    let (devices, stencils) = (m.get(&DEVICES)?, m.get(&STENCILS)?);
    let (sizes, times) = (m.get(&SIZES)?, m.get(&TIMES)?);
    let queries = advisor::grid_queries(
        &devices,
        &stencils,
        &sizes,
        &times,
        m.get(&WITHIN)?,
        m.get(&TOP_N)?,
    )
    .map_err(|e| format!("invalid grid: {e}"))?;
    println!(
        "precomputing {} answers ({} devices x {} stencils x {} sizes x {} times) ...",
        queries.len(),
        devices.len(),
        stencils.len(),
        sizes.len(),
        times.len()
    );
    let calib = calibration(m)?;
    let calib_rev = calib.as_ref().map(|c| c.revision());
    let samples = m.get(&SAMPLES)?;
    let advisor = advisor::Advisor::new(advisor::AdvisorConfig {
        citer_samples: samples,
        seed: experiments::SEED,
        mem_capacity: queries.len().max(1),
        calib,
        ..advisor::AdvisorConfig::default()
    });
    let t0 = Instant::now();
    let mut store =
        advisor::AnswerStore::empty(experiments::SEED, samples).with_calib_rev(calib_rev);
    let added = store.precompute(&advisor, &queries);
    let elapsed = t0.elapsed().as_secs_f64();
    let out = m.get(&OUT)?;
    store
        .write(Path::new(&out))
        .map_err(|e| format!("{} {out}: {e}", OUT.name))?;
    println!(
        "{added} answers written to {out} in {elapsed:.1}s ({:.1} sweeps/s), git_rev {}",
        added as f64 / elapsed.max(1e-9),
        store.git_rev()
    );
    if added < queries.len() {
        eprintln!(
            "warning: {} grid cells not stored (degraded answers are never stored)",
            queries.len() - added
        );
    }
    Ok(0)
}

/// Run the `serve-bench` subcommand; returns the process exit code.
///
/// Without `--addr` it measures the whole serving claim in one process:
/// a cold model-only baseline over every distinct key of the universe,
/// then an answer store of that universe (or `--store`), then
/// `--connections` clients replaying `--requests` zipf-skewed requests
/// against an in-process server that holds only that store.
pub fn bench(m: &Matches) -> Result<i32, String> {
    let (devices, stencils) = (m.get(&DEVICES)?, m.get(&STENCILS)?);
    let (sizes, times) = (m.get(&SIZES)?, m.get(&TIMES)?);
    let (requests, connections) = (m.get(&REQUESTS)?, m.get(&CONNECTIONS)?);
    let (pipeline, zipf_s, seed) = (m.get(&PIPELINE)?, m.get(&ZIPF)?, m.get(&SEED)?);
    let samples = m.get(&SAMPLES)?;
    let out = m.get(&OUT)?;
    let mut report_file = create(&OUT, &out)?;
    let telemetry = Telemetry::open(m)?;

    // The replay universe: one wire line per (device, stencil, size,
    // time) cell, plus the matching grid queries for precompute/cold.
    let universe_queries = advisor::grid_queries(&devices, &stencils, &sizes, &times, 0.10, 10)
        .map_err(|e| format!("invalid universe: {e}"))?;
    let mut universe_lines = Vec::with_capacity(universe_queries.len());
    for device in &devices {
        for stencil in &stencils {
            for &s in &sizes {
                for &t in &times {
                    universe_lines.push(query_jsonl(device, stencil, s, t));
                }
            }
        }
    }
    assert_eq!(universe_lines.len(), universe_queries.len());
    eprintln!(
        "universe: {} distinct keys ({} devices x {} stencils x {} sizes x {} times)",
        universe_lines.len(),
        devices.len(),
        stencils.len(),
        sizes.len(),
        times.len()
    );

    let advisor_cfg = advisor::AdvisorConfig {
        citer_samples: samples,
        seed: experiments::SEED,
        ..advisor::AdvisorConfig::default()
    };

    // Phases 1+2 (spawn mode only): cold baseline, then the store.
    // Both run before telemetry is installed so the server-side counter
    // snapshot reports the replay alone.
    let external = m.opt(&ADDR);
    let (cold_qps, store) = if external.is_some() {
        (0.0, None)
    } else if let Some(path) = m.opt(&STORE) {
        let store = advisor::AnswerStore::load(Path::new(&path), m.on(&STORE_STALE_OK), None)?;
        eprintln!("store: loaded {} answers from {path}", store.len());
        (cold_baseline(&advisor_cfg, &universe_queries), Some(store))
    } else {
        let cold = advisor::Advisor::new(advisor_cfg.clone());
        let cold_qps = {
            prewarm_microbench(&cold, &devices, &stencils, &sizes);
            let t0 = Instant::now();
            for q in &universe_queries {
                std::hint::black_box(cold.advise(q));
            }
            universe_queries.len() as f64 / t0.elapsed().as_secs_f64()
        };
        // The cold advisor's mem cache now holds every universe key, so
        // building the store from it is pure cache hits.
        let mut store = advisor::AnswerStore::empty(experiments::SEED, samples);
        let added = store.precompute(&cold, &universe_queries);
        eprintln!("store: precomputed {added} answers in-memory");
        (cold_qps, Some(store))
    };
    if cold_qps > 0.0 {
        eprintln!("cold model-only baseline: {cold_qps:.1} queries/s");
    }

    // Phase 3: serve and replay.
    let telemetry = telemetry.install(experiments::DEFAULT_OUT_DIR);
    let (addr, server) = match external {
        Some(addr) => (addr, None),
        None => {
            let serve_cfg = advisor::AdvisorConfig {
                store: store.map(Arc::new),
                ..advisor_cfg
            };
            let listener = std::net::TcpListener::bind("127.0.0.1:0")
                .map_err(|e| format!("cannot bind an ephemeral port: {e}"))?;
            let server = advisor::Server::start(
                Arc::new(advisor::Advisor::new(serve_cfg)),
                listener,
                server_config(m),
            )
            .map_err(|e| format!("cannot start the server: {e}"))?;
            (server.addr(), Some(server))
        }
    };

    // Deterministic per-connection workloads: connection i draws its
    // own zipf stream from seed+i.
    let per_conn = requests / connections;
    let remainder = requests % connections;
    let universe = Arc::new(universe_lines);
    eprintln!(
        "replaying {requests} queries over {connections} connections (pipeline {pipeline}, zipf {zipf_s}) against {addr} ..."
    );
    let t0 = Instant::now();
    let clients: Vec<_> = (0..connections)
        .map(|c| {
            let universe = Arc::clone(&universe);
            let count = per_conn + usize::from(c < remainder);
            let seed = seed.wrapping_add(c as u64);
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
    let snap = telemetry.finish()?;

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
        connections,
        pipeline,
        universe: universe.len(),
        zipf_s,
        seed,
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
    report_file
        .write_all(json.as_bytes())
        .map_err(|e| format!("{} {out}: {e}", OUT.name))?;
    eprintln!("report written to {out}");
    if let Some(path) = m.opt(&LOG_OUT) {
        eprintln!("telemetry log written to {path}");
    }
    if report.serve.errors > 0 {
        eprintln!(
            "error: {} queries answered with errors",
            report.serve.errors
        );
        return Ok(1);
    }
    Ok(0)
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
