//! `serve-lookup` and `serve-mixed`: the advisor's socket server over a
//! precomputed answer store, fed by the benchmark's own load generator.
//!
//! * `serve-lookup` is an open loop on one connection: a zipf(1.1)
//!   stream over the 128 stored keys, at 5000 requests/s in untraced
//!   runs and up a ladder of rates in traced runs. Every request is a
//!   store hit, so parse, the coalescing window, lookup and
//!   serialization are the whole cost; the model never runs.
//! * `serve-mixed` is a closed loop of two connections with 32 requests
//!   in flight each: 90% stored keys, 10% drawn uniformly from 4096
//!   radius-1 keys outside the store (more than the 256-entry memory
//!   cache), which run the model and churn the cache.
//!
//! Every answer is checked against the per-key digests in
//! `fixtures/serve.json`.

use super::{device, label, stencil};
use crate::fixture::{fnv64, Checks, Fixture};
use crate::loadgen::{self, Outcome, Rung};
use crate::run::{self, layer, Ledger, Phase, Report, RunConfig, Tracer};
use crate::stats::{mean, median, percentile, ratio};
use advisor::{Advisor, AdvisorConfig, AnswerStore, Query, Server, ServerConfig};
use experiments::servebench::{query_jsonl, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tile_opt::{feasible_space, model_sweep_spec};
use time_model::{DimSpec, ModelParams};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Lookup,
    Mixed,
}

const DEVICES: &[&str] = &["GTX 980", "Titan X"];
const STENCILS: &[&str] = &["Heat2D", "Jacobi2D", "Gradient2D", "Heat3D"];
const STORE_SIZES: &[usize] = &[256, 512, 1024, 2048];
const STORE_TIMES: &[usize] = &[32, 64, 128, 256];
/// Off-store keys: 32 sizes x 16 time horizons per (device, stencil),
/// none of them in the store.
fn off_store_sizes() -> impl Iterator<Item = usize> + Clone {
    (0..32).map(|i| 300 + 36 * i)
}
fn off_store_times() -> impl Iterator<Item = usize> + Clone {
    (0..16).map(|j| 40 + 12 * j)
}

/// `serve-lookup` rate of the untraced runs, requests/s: well below
/// what one connection sustains, so the tail measures the serving path
/// rather than queueing at the edge of capacity.
const LOOKUP_RATE: f64 = 5000.0;
/// Rates of the `serve-lookup` ladder of the traced runs, requests/s.
const RATES: &[f64] = &[2500.0, 5000.0, 10000.0, 20000.0];
/// Length of each ablation phase of a traced run, s.
const ABLATION_SECONDS: f64 = 3.0;
/// Share of `serve-mixed` requests drawn from the store.
const HOT_SHARE: f64 = 0.9;
const CONNECTIONS: usize = 2;
/// Server worker threads: one per vCPU of the benchmark box.
const SERVER_WORKERS: usize = 2;
const PIPELINE: usize = 32;
/// A reply slower than this ends a connection (the rest count missing).
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// One (device, stencil, size, time) key.
#[derive(Debug, Clone, Copy)]
struct Key {
    device: &'static str,
    stencil: &'static str,
    size: usize,
    time: usize,
}

impl Key {
    fn label(&self) -> String {
        let rank = stencil(self.stencil).dim.rank();
        label(self.device, self.stencil, &vec![self.size; rank], self.time)
    }

    fn line(&self) -> String {
        query_jsonl(
            &device(self.device),
            &stencil(self.stencil),
            self.size,
            self.time,
        )
    }

    fn query(&self) -> Query {
        Query::parse_line(&self.line()).expect("benchmark keys parse")
    }
}

fn keys(
    sizes: impl Iterator<Item = usize> + Clone,
    times: impl Iterator<Item = usize> + Clone,
) -> Vec<Key> {
    let mut out = Vec::new();
    for &device in DEVICES {
        for &stencil in STENCILS {
            for size in sizes.clone() {
                for time in times.clone() {
                    out.push(Key {
                        device,
                        stencil,
                        size,
                        time,
                    });
                }
            }
        }
    }
    out
}

/// Every key the workloads send: the stored keys first, then the
/// off-store keys.
fn universe() -> (usize, Vec<Key>) {
    let mut all = keys(STORE_SIZES.iter().copied(), STORE_TIMES.iter().copied());
    let stored = all.len();
    all.extend(keys(off_store_sizes(), off_store_times()));
    (stored, all)
}

/// A running server and the advisor behind it.
struct Served {
    server: Server,
    advisor: Arc<Advisor>,
}

/// One set-up: precompute the store, start an advisor over it with its
/// micro-benchmarks measured, and start the server.
fn setup(stored: &[Query]) -> Served {
    let cfg = AdvisorConfig::default();
    let cold = Advisor::new(cfg.clone());
    let mut store = AnswerStore::empty(cfg.seed, cfg.citer_samples);
    store.precompute(&cold, stored);
    let advisor = Arc::new(Advisor::new(AdvisorConfig {
        store: Some(Arc::new(store)),
        ..cfg
    }));
    // One model-only query per (device, stencil) at a size no workload
    // sends: measures the micro-benchmarks the misses will need.
    for &dev in DEVICES {
        for &st in STENCILS {
            let warm = Key {
                device: dev,
                stencil: st,
                size: 64,
                time: 4,
            };
            std::hint::black_box(advisor.advise(&warm.query()));
        }
    }
    let server = start(&advisor, ServerConfig::default().batch_window);
    Served { server, advisor }
}

/// Start a server over `advisor` with the given coalescing window.
fn start(advisor: &Arc<Advisor>, batch_window: Duration) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    Server::start(
        Arc::clone(advisor),
        listener,
        ServerConfig {
            workers: SERVER_WORKERS,
            // Room for a few milliseconds of backlog at the top rung, so
            // a scheduling hiccup shows as latency instead of shedding.
            conn_queue_cap: 1024,
            batch_window,
            ..ServerConfig::default()
        },
    )
    .expect("start the advisor server")
}

/// One run of a serve workload.
struct Serve {
    mode: Mode,
    /// `serve-lookup` climbs the rate ladder (traced runs) instead of
    /// holding [`LOOKUP_RATE`].
    ladder: bool,
    seed: u64,
    stored: usize,
    lines: Vec<String>,
    digests: Vec<u64>,
}

impl Serve {
    fn check(&self) -> impl Fn(usize, &str) -> bool + Sync + '_ {
        move |key, line| fnv64(line.as_bytes()) == self.digests[key]
    }

    /// The `serve-lookup` schedule of a phase lasting `seconds`: the
    /// ladder's rungs share it equally.
    fn schedule(&self, seconds: f64) -> Vec<Rung> {
        let rates = if self.ladder { RATES } else { &[LOOKUP_RATE] };
        rates
            .iter()
            .map(|&rate| Rung {
                rate,
                duration: Duration::from_secs_f64(seconds / rates.len() as f64),
            })
            .collect()
    }

    /// Drive the server for about `seconds`, checking every answer;
    /// `salt` separates the key streams of successive phases.
    fn drive(&self, addr: SocketAddr, seconds: f64, salt: u64) -> Outcome {
        self.drive_with(addr, &self.schedule(seconds), seconds, salt, &self.check())
    }

    /// [`Serve::drive`] on the given `serve-lookup` schedule, with the
    /// given answer check.
    fn drive_with(
        &self,
        addr: SocketAddr,
        rungs: &[Rung],
        seconds: f64,
        salt: u64,
        check: loadgen::Check<'_>,
    ) -> Outcome {
        let seed = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match self.mode {
            Mode::Lookup => {
                let mut zipf = ZipfSampler::new(self.stored, 1.1, seed);
                let mut next = move || zipf.sample();
                loadgen::open_loop(addr, &self.lines, rungs, &mut next, check, IDLE_TIMEOUT)
                    .expect("connect to the server")
            }
            Mode::Mixed => {
                let until = Instant::now() + Duration::from_secs_f64(seconds);
                let off = self.lines.len() - self.stored;
                let mut total = Outcome::default();
                std::thread::scope(|scope| {
                    let clients: Vec<_> = (0..CONNECTIONS as u64)
                        .map(|c| {
                            scope.spawn(move || {
                                let mut rng = StdRng::seed_from_u64(seed ^ (c + 1));
                                let mut zipf =
                                    ZipfSampler::new(self.stored, 1.1, seed.wrapping_add(c));
                                let mut next = move || {
                                    if rng.gen_bool(HOT_SHARE) {
                                        zipf.sample()
                                    } else {
                                        self.stored + rng.gen_range(0..off)
                                    }
                                };
                                loadgen::closed_loop(
                                    addr,
                                    &self.lines,
                                    &mut next,
                                    PIPELINE,
                                    until,
                                    check,
                                    IDLE_TIMEOUT,
                                )
                                .expect("connect to the server")
                            })
                        })
                        .collect();
                    for c in clients {
                        total.merge(c.join().expect("client thread"));
                    }
                });
                total
            }
        }
    }

    /// Drive one phase. The outcome keeps its per-reply latencies, in
    /// send order, only when `keep` (the rung breakdown needs them).
    fn phase(
        &self,
        addr: SocketAddr,
        seconds: f64,
        salt: u64,
        checks: &mut Checks,
        keep: bool,
    ) -> (Phase, Outcome) {
        let mut out = self.drive(addr, seconds, salt);
        if out.wrong > 0 {
            checks.fail(format!(
                "{} answers differ from fixtures/serve.json",
                out.wrong
            ));
        }
        let op_ms = if keep {
            out.latency_ms.clone()
        } else {
            std::mem::take(&mut out.latency_ms)
        };
        let phase = Phase {
            op_ms,
            completed: out.answered as u64,
            seconds: out.wall_s,
            attempted: out.sent as u64,
            failed: out.failed() as u64,
        };
        (phase, out)
    }

    /// [`ABLATION_SECONDS`] of the untraced load against each of: the
    /// served server, the same advisor behind a server without the
    /// coalescing window, and a null server that answers every line at
    /// once with `reply` (the load generator and the sockets alone).
    /// Answers are not checked.
    fn ablate(&self, served: &Served, reply: &str) -> Ablation {
        let rungs = [Rung {
            rate: LOOKUP_RATE,
            duration: Duration::from_secs_f64(ABLATION_SECONDS),
        }];
        let measure = |addr, salt| {
            let cpu0 = run::process_cpu_s();
            let out = self.drive_with(addr, &rungs, ABLATION_SECONDS, salt, &|_, _| true);
            let cpu_ms = ratio((run::process_cpu_s() - cpu0) * 1e3, out.answered as f64);
            let lat: Vec<f64> = out.latency_ms.iter().map(|&x| f64::from(x)).collect();
            (percentile(&lat, 0.5), cpu_ms)
        };
        let (served_ms, served_cpu_ms) = measure(served.server.addr(), 10);
        let no_window = start(&served.advisor, Duration::ZERO);
        let (no_window_ms, _) = measure(no_window.addr(), 11);
        no_window.shutdown();
        let connections = match self.mode {
            Mode::Lookup => 1,
            Mode::Mixed => CONNECTIONS,
        };
        let (addr, null) = loadgen::null_server(reply, connections).expect("start the null server");
        let (null_ms, null_cpu_ms) = measure(addr, 12);
        null.join().expect("null server thread");
        Ablation {
            served_ms,
            served_cpu_ms,
            no_window_ms,
            null_ms,
            null_cpu_ms,
        }
    }
}

/// What [`Serve::ablate`] measured: median latencies, and process CPU
/// time per answered request, ms.
struct Ablation {
    served_ms: f64,
    served_cpu_ms: f64,
    no_window_ms: f64,
    null_ms: f64,
    null_cpu_ms: f64,
}

pub fn run(cfg: &RunConfig, mode: Mode) -> Report {
    let mut checks = Checks::new("serve");
    let (stored, keys) = universe();
    let mut digests = Vec::with_capacity(keys.len());
    for k in &keys {
        match checks.fixture().get(&k.label()) {
            Some(d) => digests.push(d),
            None => {
                checks.fail(format!("{}: no fixture entry (run --bless)", k.label()));
                digests.push(0);
            }
        }
    }
    let s = Serve {
        mode,
        ladder: cfg.trace,
        seed: cfg.seed,
        stored,
        lines: keys.iter().map(Key::line).collect(),
        digests,
    };
    let stored_queries: Vec<Query> = keys[..stored].iter().map(Key::query).collect();
    // Five set-ups, three before the load and two after it, so their
    // median samples the whole run; the third one serves the load.
    let (before, after) = if cfg.smoke { (1, 0) } else { (3, 2) };
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let (served, t) = run::timed(|| setup(&stored_queries));
        setups.push(t);
        served
    };
    for _ in 1..before {
        timed_setup().server.shutdown();
    }
    let served = timed_setup();
    let addr = served.server.addr();
    if !cfg.smoke {
        let warm_up = match mode {
            Mode::Lookup => 1.0,
            Mode::Mixed => 2.0,
        };
        s.phase(addr, warm_up, 1, &mut checks, false);
    }
    let report = if !cfg.trace {
        let (mut phase, _) = s.phase(addr, cfg.seconds, 2, &mut checks, false);
        for _ in 0..after {
            timed_setup().server.shutdown();
        }
        Report {
            attempted: phase.attempted,
            failed: phase.failed,
            metrics: run::end_to_end(&setups, &mut phase),
            checks,
        }
    } else {
        let half = cfg.seconds / 2.0;
        let (mut plain, plain_out) = s.phase(addr, half, 2, &mut checks, true);
        let reply = served.advisor.advise(&keys[0].query()).to_json_line();
        let ablation = s.ablate(&served, &reply);
        let tracer = Tracer::default();
        tracer.resume();
        let (mut traced, _) = s.phase(addr, half, 3, &mut checks, false);
        tracer.pause();
        let snap = tracer.snapshot();
        let mut ledger = Ledger::default();
        ledger.set_overhead(&mut plain, &mut traced);
        let ctx = LayerInputs {
            served: &served,
            keys: &keys,
            stored,
            snap: &snap,
            ablation: &ablation,
        };
        layers(&mut ledger, &ctx, mode, &mut plain, &traced);
        if mode == Mode::Lookup {
            rungs(&mut ledger, &s.schedule(half), &plain_out);
        }
        tracer.finish(&cfg.out_dir.join(format!("{}.trace.json", cfg.workload)));
        Report {
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            metrics: ledger.into_metrics(),
            checks,
        }
    };
    served.server.shutdown();
    report
}

struct LayerInputs<'a> {
    served: &'a Served,
    keys: &'a [Key],
    stored: usize,
    snap: &'a obs::Snapshot,
    ablation: &'a Ablation,
}

fn median_us(samples: &[f64]) -> f64 {
    median(samples) * 1e6
}

/// The per-layer ledger: the advisor's counters from the traced phase,
/// and timed calls into each stage a request passes (parse, canonical
/// key, store lookup, serialize; the model on a miss) with the
/// workload's own keys.
fn layers(
    ledger: &mut Ledger,
    ctx: &LayerInputs<'_>,
    mode: Mode,
    plain: &mut Phase,
    traced: &Phase,
) {
    let cfg = AdvisorConfig::default();
    let advisor = &ctx.served.advisor;
    let (mut parse, mut key, mut lookup, mut serialize) = (vec![], vec![], vec![], vec![]);
    for k in &ctx.keys[..ctx.stored] {
        let line = k.line();
        for _ in 0..8 {
            let (q, t) = layer("advisor.Query::parse_line", || Query::parse_line(&line));
            parse.push(t);
            let q = q.expect("benchmark keys parse");
            let (_, t) = layer("advisor.canonical_key", || advisor.canonical_key(&q));
            key.push(t);
            let (a, t) = layer("advisor.advise", || advisor.advise(&q));
            lookup.push(t);
            let (_, t) = layer("advisor.Advice::to_json_line", || a.to_json_line());
            serialize.push(t);
        }
    }
    let mut microbench = 0.0;
    for &dev in DEVICES {
        for &st in STENCILS {
            let (_, t) = layer("microbench.measured_params_sampled", || {
                microbench::measured_params_sampled(
                    &device(dev),
                    &stencil(st),
                    cfg.citer_samples,
                    cfg.seed,
                )
            });
            microbench += t;
        }
    }
    let c = |name: &str| ctx.snap.counter(name) as f64;
    // Coalesced requests share one `advise` call: hit ratios are per
    // call, work counts per request.
    let queries = c("advisor.queries");
    let requests = traced.attempted as f64;
    let model_frac = ratio(c("advisor.model_evals"), requests);
    let (mut model, mut space, mut sweep) = (vec![], vec![], vec![]);
    if mode == Mode::Mixed {
        // The model path of a miss, on a fresh advisor whose
        // micro-benchmarks are already measured.
        let cold = Advisor::new(cfg.clone());
        for k in ctx.keys[ctx.stored..].iter().step_by(64) {
            let q = k.query();
            let w = &q.workload;
            let mut warm = q.clone();
            warm.top_n += 1;
            cold.advise(&warm);
            let (_, t) = layer("advisor.advise", || cold.advise(&q));
            model.push(t);
            let measured = microbench::measured_params_sampled(
                &w.device,
                &w.stencil,
                cfg.citer_samples,
                cfg.seed,
            );
            let params = ModelParams::from_measured(&w.device, &measured);
            let (tiles, t) = layer("tile_opt.feasible_space", || feasible_space(w, &cfg.space));
            space.push(t);
            let (_, t) = layer("tile_opt.model_sweep_spec", || {
                model_sweep_spec(
                    DimSpec::for_stencil(&w.stencil),
                    &params,
                    &w.size,
                    &tiles,
                    None,
                )
            });
            sweep.push(t);
        }
    }
    let model_us = if model.is_empty() {
        0.0
    } else {
        median_us(&model)
    };
    // Server work per request: every request is parsed and keyed (for
    // grouping); each `advise` call looks up or runs the model, and is
    // serialized once for its group.
    let calls = ratio(queries, requests);
    let busy_us = median_us(&parse)
        + median_us(&key)
        + (calls - model_frac) * median_us(&lookup)
        + model_frac * model_us
        + calls * median_us(&serialize);
    let wait = |q: f64, plain: &mut Phase| (plain.percentile_ms(q) - busy_us * 1e-3).max(0.0);
    let ab = ctx.ablation;
    let window_ms = ab.served_ms - ab.no_window_ms;
    let coverage = match mode {
        // Open loop below capacity: a request's latency is the window,
        // the transport and the work.
        Mode::Lookup => ratio(busy_us * 1e-3 + window_ms + ab.null_ms, ab.served_ms),
        // Closed loop: latency is requests in flight over throughput,
        // so account for what bounds throughput, the CPU time each
        // answer costs: the work plus the transport.
        Mode::Mixed => ratio(busy_us * 1e-3 + ab.null_cpu_ms, ab.served_cpu_ms),
    };
    for (name, value) in [
        ("microbench.busy_ms", microbench * 1e3),
        ("tile_opt.space_busy_ms", mean(&space) * model_frac * 1e3),
        (
            "tile_opt.space_feasible_frac",
            ratio(c("opt.space_feasible"), c("opt.space_enumerated")),
        ),
        ("time_model.sweep_busy_ms", mean(&sweep) * model_frac * 1e3),
        (
            "time_model.predictions",
            ratio(c("opt.space_feasible"), requests),
        ),
        ("advisor.parse_us", median_us(&parse)),
        ("advisor.key_us", median_us(&key)),
        ("advisor.lookup_us", median_us(&lookup)),
        ("advisor.serialize_us", median_us(&serialize)),
        ("advisor.wait_p50_ms", wait(0.5, plain)),
        ("advisor.wait_p99_ms", wait(0.99, plain)),
        ("advisor.window_ms", window_ms),
        ("loadgen.transport_ms", ab.null_ms),
        ("advisor.model_us", model_us),
        ("advisor.model_evals", model_frac),
        (
            "advisor.mem_hit_frac",
            ratio(c("advisor.cache_hits_mem"), queries),
        ),
        (
            "advisor.store_hit_frac",
            ratio(c("advisor.store_hits"), queries),
        ),
        (
            "advisor.coalesced_frac",
            ratio(c("advisor.coalesced"), requests),
        ),
        ("coverage_frac", coverage),
    ] {
        ledger.set(name, value);
    }
}

/// Per-rung latencies of the untraced ladder, the highest rung that
/// held its latency limit, and how late the generator ran.
fn rungs(ledger: &mut Ledger, ladder: &[Rung], out: &Outcome) {
    let mut lo = 0;
    let mut max_rate = 0.0;
    for rung in ladder {
        let hi = (lo + rung.count()).min(out.latency_ms.len());
        let lat: Vec<f64> = out.latency_ms[lo..hi]
            .iter()
            .map(|&x| f64::from(x))
            .collect();
        let late: Vec<f64> = out.late_ms[lo..hi].iter().map(|&x| f64::from(x)).collect();
        let failed = out
            .failed_at
            .iter()
            .filter(|&&i| (lo..hi).contains(&i))
            .count();
        let answered = lat.len() - failed;
        let p99 = percentile(&lat, 0.99);
        let held = failed == 0
            && answered as f64 >= 0.99 * rung.count() as f64
            && p99 <= 5.0
            && percentile(&late, 0.99) <= 1.0;
        if held {
            max_rate = answered as f64 / rung.duration.as_secs_f64();
        }
        let tag = rung.rate as u64;
        if matches!(tag, 2500 | 20000) {
            ledger.set(&format!("r{tag}.p50_ms"), percentile(&lat, 0.5));
            ledger.set(&format!("r{tag}.p99_ms"), p99);
        }
        lo = hi;
    }
    let late: Vec<f64> = out.late_ms.iter().map(|&x| f64::from(x)).collect();
    ledger.set("max_rate_qps", max_rate);
    ledger.set("loadgen.late_p99_ms", percentile(&late, 0.99));
}

/// Recompute the serve fixtures: the answer digest of every key.
pub fn bless() -> Fixture {
    let (_, keys) = universe();
    let advisor = Advisor::new(AdvisorConfig::default());
    let mut f = Fixture::default();
    for k in &keys {
        f.insert(
            k.label(),
            fnv64(advisor.advise(&k.query()).to_json_line().as_bytes()),
        );
    }
    f
}
