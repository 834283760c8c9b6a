//! # advisor
//!
//! A tile-size advisory service over the paper's selection pipeline
//! (Section 6.1): given a device, a stencil, a problem size, and a time
//! horizon, answer with the ranked within-band candidate list and the
//! predicted `T_alg` of each — optionally validated by running the
//! candidates on the tiled executor, exactly as the paper measures its
//! "within 10 % of `T_alg min`" set.
//!
//! The engine is built for repeated, overlapping queries:
//!
//! * **Batched evaluation with dedup** — [`Advisor::advise_batch`]
//!   canonicalizes every query and computes each distinct one once (the
//!   Eqn-31 model sweep itself is sharded across the rayon pool);
//!   duplicates are answered from the batch, counted on
//!   `advisor.batch_dedup`.
//! * **Two answer tiers** — an optional [`store::AnswerStore`], the one
//!   persistent tier (bound to the git and calibration revisions; a
//!   store opened with [`AnswerStore::open`] appends every answer the
//!   model computes), in front of a sharded in-memory LRU
//!   ([`ShardedCache`]). Warm answers are byte-identical to cold ones;
//!   provenance lives only in the `advisor.store_hits` /
//!   `advisor.cache_hits_mem` counters.
//! * **Graceful degradation** — a per-query `timeout_ms` bounds the
//!   expensive validation phase. When the deadline expires the answer
//!   falls back to the model-only ranking, flagged `degraded: true`
//!   (and is *not* cached, so a later unhurried query recomputes).
//!
//! The `experiments serve` subcommand exposes the same engine over
//! JSON-lines stdin/stdout; see [`serve`]. `experiments serve --listen`
//! runs the concurrent socket front end ([`server`]) on the same
//! engine, and `experiments precompute` sweeps an ahead-of-time
//! [`store::AnswerStore`] so steady-state serving is pure lookup
//! (`advisor.store_hits`) with zero model evaluations
//! (`advisor.model_evals`).

pub mod advice;
pub mod cache;
pub mod jsonv;
pub mod query;
pub mod serve;
pub mod server;
pub mod shard;
pub mod store;

pub use advice::{Advice, Candidate, MeasuredBest, SkippedOut, ValidationReport};
pub use query::Query;
pub use serve::{serve_lines, ServeStats};
pub use server::{Server, ServerConfig};
pub use shard::ShardedCache;
pub use store::{grid_queries, AnswerStore};

use cache::Memo;
use calib::CalibrationStore;
use gpu_sim::DeviceConfig;
use hhc_tiling::{LaunchConfig, TileSizes};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stencil_core::{init, StencilDescriptor};
use tile_opt::{
    feasible_tiles, model_sweep_spec, run_candidates_until, simulate_point, within_fraction,
    DataPoint, SkipReason, SpaceConfig,
};
use time_model::{DimSpec, MeasuredParams, ModelParams};

/// `Citer` micro-benchmark samples unless told otherwise: the advisor's
/// default, and the default of every `experiments` command's
/// `--samples`, so a model command and an advisor answer for the same
/// tile print the same `T_alg`.
pub const CITER_SAMPLES: usize = 16;

/// Tuning knobs of one advisor instance. Everything that can change an
/// answer (micro-benchmark sampling, the enumerated space) is folded
/// into the canonical cache key.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Capacity of the in-memory LRU tier.
    pub mem_capacity: usize,
    /// Samples for the `Citer` micro-benchmark (the experiments crate
    /// uses 70 at paper scale; the advisor defaults lighter because it
    /// is interactive).
    pub citer_samples: usize,
    /// Seed of the micro-benchmark sampler and the validation grid.
    pub seed: u64,
    /// The enumerated feasible space of Eqn 31.
    pub space: SpaceConfig,
    /// Where `validate: true` traffic appends its predicted-vs-measured
    /// pairs; `None` disables accuracy telemetry. Not part of the cache
    /// key (telemetry never changes an answer).
    pub accuracy: Option<Arc<obs::AccuracyLog>>,
    /// Rolling-RMSE drift band for the accuracy log (the paper's §5.3
    /// within-10% claim by default).
    pub accuracy_band: f64,
    /// The persistent answer store, consulted before the memory tier
    /// and extended with every computed answer when it was opened on a
    /// file (see [`store::AnswerStore`]); `None` disables it. The store
    /// only ever changes *where* an answer comes from, never its bytes
    /// — provenance lives on `advisor.store_hits`.
    pub store: Option<Arc<AnswerStore>>,
    /// A calibration store whose per-segment corrections refine the
    /// model before ranking (see the `calib` crate); `None` serves the
    /// uncorrected model bit-identically. The store's revision is part
    /// of the canonical key, so answers minted under a different
    /// calibration are structurally unreachable from the caches.
    pub calib: Option<Arc<CalibrationStore>>,
    /// Fault-injection factor on the measured `Citer` (1.0 = off): the
    /// advisor's model sees `citer × citer_scale` while the validation
    /// executor keeps the truth, simulating a miscalibrated
    /// micro-benchmark. Exists so tests and the CI calibration smoke
    /// can create a known model bias for the closed loop to remove
    /// (`HHC_CITER_SCALE` in `experiments serve` sets it).
    pub citer_scale: f64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            mem_capacity: 256,
            citer_samples: CITER_SAMPLES,
            seed: 0x5EED,
            space: SpaceConfig::default(),
            accuracy: None,
            accuracy_band: 0.10,
            store: None,
            calib: None,
            citer_scale: 1.0,
        }
    }
}

/// The advisory engine. Cheap to share behind a reference; all interior
/// state (caches, memos) is lock-protected.
///
/// A miss runs the model sweep over the query's problem size and not
/// much more: what depends only on the device and the stencil is
/// memoized per advisor, in memos bounded at [`cache::MEMO_CAP`]
/// entries each — the device fingerprint, the micro-benchmarked
/// parameters, and the Eqn-31 feasible space. The memos live and die
/// with the advisor, so a fresh advisor recomputes everything.
pub struct Advisor {
    cfg: AdvisorConfig,
    mem: ShardedCache,
    /// The loaded calibration store's revision, computed once — the
    /// store is immutable while serving, so this is stable for the
    /// process lifetime and safe inside cache keys.
    calib_rev: Option<String>,
    /// FNV-64 of the serialized enumerated space, the `space=` field of
    /// every canonical key; the config never changes after `new`.
    space_fp: u64,
    /// FNV-64 of each device's JSON, the `dev=` field of every
    /// canonical key (answer stores are keyed by it, so it stays the
    /// hash of the same bytes), keyed by the device (see [`same_bits`]).
    device_fps: Memo<DeviceConfig, u64>,
    /// Measured `(L, τ_sync, T_sync, Citer)` per (device fingerprint,
    /// stencil fingerprint): the micro-benchmarks are deterministic for
    /// a fixed config, so one measurement serves every query against
    /// the pair. Descriptor fingerprints collapse equivalent spellings
    /// of the same stencil onto one measurement.
    measured: Memo<(u64, u64), MeasuredParams>,
    /// The Eqn-31 feasible space per (device fingerprint, stencil
    /// shape): it depends on neither the problem size nor `T`, and
    /// `cfg.space` is fixed for the advisor's lifetime.
    spaces: Memo<(u64, DimSpec), Arc<[TileSizes]>>,
}

impl Advisor {
    pub fn new(cfg: AdvisorConfig) -> Self {
        Advisor {
            mem: ShardedCache::new(cfg.mem_capacity),
            calib_rev: cfg.calib.as_ref().map(|c| c.revision()),
            space_fp: cache::fnv64(
                serde_json::to_string(&cfg.space)
                    .expect("space serializes")
                    .as_bytes(),
            ),
            device_fps: Memo::new(),
            measured: Memo::new(),
            spaces: Memo::new(),
            cfg,
        }
    }

    pub fn with_defaults() -> Self {
        Self::new(AdvisorConfig::default())
    }

    /// The canonical cache key of a query: every answer-determining
    /// input, none of the presentation-only ones (`id`, `timeout_ms`).
    /// `cal=` pins the calibration revision (`none` when no store is
    /// loaded), so answer-store entries minted under a different
    /// calibration can never be served: their keys simply
    /// don't exist under the current one. `fi=` appears only when the
    /// `citer_scale` fault injection is armed — a biased model must not
    /// share answers with an unbiased one.
    pub fn canonical_key(&self, q: &Query) -> String {
        let w = &q.workload;
        let mut key = format!(
            "v2|dev={:016x}|st={}|s={}x{}x{}|t={}|within={:016x}|top={}|val={}|mb={}x{}|space={:016x}|cal={}",
            self.device_fp(&w.device),
            w.stencil.key_token(),
            w.size.space[0],
            w.size.space[1],
            w.size.space[2],
            w.size.time,
            q.within.to_bits(),
            q.top_n,
            q.validate,
            self.cfg.citer_samples,
            self.cfg.seed,
            self.space_fp,
            self.calib_rev.as_deref().unwrap_or("none"),
        );
        if self.cfg.citer_scale != 1.0 {
            key.push_str(&format!("|fi={:016x}", self.cfg.citer_scale.to_bits()));
        }
        key
    }

    /// The revision of the loaded calibration store, if any.
    pub fn calib_rev(&self) -> Option<&str> {
        self.calib_rev.as_deref()
    }

    /// Answer one query, consulting the answer store and the memory
    /// tier first. Every exit path records its wall time on a
    /// per-outcome latency histogram
    /// (`advisor.latency_ms.{store,cache_mem,ok,degraded}`)
    /// so p99 under deadline pressure is measurable, not just hit
    /// counts. The query's own `timeout_ms` anchors the deadline here,
    /// at call time; a server that parsed the query earlier passes the
    /// arrival-anchored deadline through [`advise_at`](Self::advise_at)
    /// instead, so queue wait counts against the budget.
    pub fn advise(&self, q: &Query) -> Advice {
        let deadline = q
            .timeout_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        self.advise_at(q, deadline)
    }

    /// [`advise`](Self::advise) with an explicit absolute deadline.
    pub fn advise_at(&self, q: &Query, deadline: Option<Instant>) -> Advice {
        let t0 = Instant::now();
        self.advise_keyed(q, &self.canonical_key(q), t0, deadline)
    }

    /// The store or memory-tier answer under canonical key `key`: the
    /// one hit path, shared by [`advise_at`](Self::advise_at)
    /// and the socket server's reader. A hit counts `advisor.queries`
    /// and its tier's hit counter and records its latency since `t0`;
    /// a miss records nothing (the caller goes on to the model).
    pub(crate) fn warm(&self, key: &str, t0: Instant) -> Option<Warm<'_>> {
        let (hit, counter, outcome) = match self.cfg.store.as_ref().and_then(|s| s.entry(key)) {
            Some(entry) => (Warm::Store(entry), "advisor.store_hits", "store"),
            None => (
                Warm::Mem(self.mem.get(key)?),
                "advisor.cache_hits_mem",
                "cache_mem",
            ),
        };
        if obs::active() {
            obs::counter("advisor.queries", 1);
            obs::counter(counter, 1);
            record_latency(outcome, t0);
        }
        Some(hit)
    }

    /// [`advise_at`](Self::advise_at) for a query whose canonical key
    /// the caller already holds, timed from `t0`.
    pub(crate) fn advise_keyed(
        &self,
        q: &Query,
        key: &str,
        t0: Instant,
        deadline: Option<Instant>,
    ) -> Advice {
        let _span = obs::span("advisor.query", "advisor");
        if let Some(hit) = self.warm(key, t0) {
            return hit.advice(q.id.clone());
        }
        if obs::active() {
            obs::counter("advisor.queries", 1);
        }
        let answer = self.compute(q, deadline);
        if answer.degraded {
            if obs::active() {
                obs::counter("advisor.degraded", 1);
            }
            record_latency("degraded", t0);
        } else {
            self.mem.put(key.to_string(), answer.clone());
            if let Some(store) = &self.cfg.store {
                store.append(key, &answer);
            }
            record_latency("ok", t0);
        }
        answer
    }

    /// Answer a batch of queries, in input order. Queries that
    /// canonicalize to the same key are computed once; the duplicates
    /// are answered from the batch (with their own `id` echoed) and
    /// counted on `advisor.batch_dedup`.
    pub fn advise_batch(&self, queries: &[Query]) -> Vec<Advice> {
        let mut first: HashMap<String, usize> = HashMap::new();
        let mut answers: Vec<Advice> = Vec::with_capacity(queries.len());
        let mut dedup = 0u64;
        for (i, q) in queries.iter().enumerate() {
            let key = self.canonical_key(q);
            match first.get(&key) {
                Some(&j) => {
                    dedup += 1;
                    let mut a = answers[j].clone();
                    a.id = q.id.clone();
                    answers.push(a);
                }
                None => {
                    first.insert(key, i);
                    answers.push(self.advise(q));
                }
            }
        }
        if dedup > 0 && obs::active() {
            obs::counter("advisor.batch_dedup", dedup);
        }
        answers
    }

    /// Compute an answer from scratch: measured parameters → feasible
    /// space → parallel model sweep → within-band ranking → optional
    /// validation run, all under the caller's deadline. Every call is
    /// counted on `advisor.model_evals` — the "zero model evaluations
    /// in steady state" claim is `advisor.queries` growing while this
    /// counter stands still.
    fn compute(&self, q: &Query, deadline: Option<Instant>) -> Advice {
        let w = &q.workload;
        if obs::active() {
            obs::counter("advisor.model_evals", 1);
        }
        let dev_fp = self.device_fp(&w.device);
        let params = self.model_params(dev_fp, &w.device, &w.stencil);
        let dspec = DimSpec::for_stencil(&w.stencil);
        let tiles = self.space(dev_fp, &w.device, dspec);
        let rank = w.rank();
        // Calibration: a correction fires only when the store has
        // enough evidence for this exact (device, stencil, dim)
        // segment; otherwise the sweep below is the plain model,
        // bit-identical to a calibration-free advisor.
        let corr = self
            .cfg
            .calib
            .as_ref()
            .and_then(|c| c.correction(&w.device.name, &w.stencil.name, rank as u32));
        if corr.is_some() && obs::active() {
            obs::counter("calib.corrections_applied", 1);
        }
        let sweep = model_sweep_spec(dspec, &params, &w.size, &tiles, corr.as_ref());
        let within = within_fraction(&sweep, q.within);
        let candidates: Vec<Candidate> = within
            .iter()
            .take(q.top_n)
            .enumerate()
            .map(|(i, (t, p))| Candidate {
                rank: i,
                t_t: t.t_t,
                t_s: t.t_s[..rank].to_vec(),
                talg_s: p.talg,
                k: p.k,
                mtile_words: p.mtile_words,
                memory_bound: p.memory_bound(),
            })
            .collect();
        // Accuracy telemetry: validated traffic feeds the drift log
        // with (predicted T_alg, simulated time) pairs — same time
        // domain as the paper's §5.2 comparison, so the §5.3 band is
        // meaningful. The closed-form simulator costs microseconds per
        // candidate, so this never competes with the deadline.
        if q.validate {
            if let Some(log) = &self.cfg.accuracy {
                for (t, p) in within.iter().take(q.top_n) {
                    let point = DataPoint {
                        tiles: *t,
                        launch: LaunchConfig::empirical(w.dim(), t),
                    };
                    let Some(sim) = simulate_point(&w.device, &w.spec(), &w.size, &point) else {
                        continue;
                    };
                    // When a correction shaped this prediction, also
                    // log the raw model's view: the calibration fitter
                    // targets the raw prediction (corrections must not
                    // compound), and the attribution bit comes from the
                    // raw model's regime for the same reason.
                    let raw = corr.is_some().then(|| dspec.predict(&params, &w.size, t));
                    log.record(
                        &obs::accuracy::Pair {
                            source: "advisor".into(),
                            device: w.device.name.clone(),
                            stencil: w.stencil.name.clone(),
                            dim: rank as u32,
                            key: format!(
                                "{}x{}x{}t{}|tt{}|ts{:?}",
                                w.size.space[0],
                                w.size.space[1],
                                w.size.space[2],
                                w.size.time,
                                t.t_t,
                                &t.t_s[..rank]
                            ),
                            predicted_s: p.talg,
                            measured_s: sim.total_time,
                            raw_predicted_s: raw.as_ref().map(|r| r.talg),
                            memory_bound: Some(
                                raw.as_ref()
                                    .map_or_else(|| p.memory_bound(), |r| r.memory_bound()),
                            ),
                        },
                        self.cfg.accuracy_band,
                    );
                }
            }
        }
        let mut degraded = false;
        let validation = if q.validate {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                degraded = true;
                None
            } else {
                let spec = w.spec();
                let grid = init::random(w.size.space_extents(), self.cfg.seed);
                let cand_tiles: Vec<_> = within.iter().map(|(t, _)| *t).collect();
                let report = run_candidates_until(&spec, &w.size, &grid, &cand_tiles, deadline);
                if report
                    .skipped
                    .iter()
                    .any(|s| s.reason == SkipReason::DeadlineExceeded)
                {
                    degraded = true;
                }
                let best = report.best.map(|b| {
                    let run = &report.runs[b];
                    let rank_of = within
                        .iter()
                        .position(|(t, _)| *t == run.tiles)
                        .unwrap_or(usize::MAX);
                    MeasuredBest {
                        rank: rank_of,
                        t_t: run.tiles.t_t,
                        t_s: run.tiles.t_s[..rank].to_vec(),
                        wall_s: run.wall_s,
                    }
                });
                Some(ValidationReport {
                    requested: cand_tiles.len(),
                    executed: report.runs.len(),
                    skipped: report
                        .skipped
                        .iter()
                        .map(|s| SkippedOut {
                            index: s.index,
                            reason: s.reason.label().to_string(),
                        })
                        .collect(),
                    best,
                })
            }
        } else {
            None
        };
        Advice {
            id: q.id.clone(),
            device: w.device.name.clone(),
            stencil: w.stencil.name.clone(),
            size: w.size.space[..rank].to_vec(),
            time: w.size.time,
            feasible_points: tiles.len(),
            within: q.within,
            within_points: within.len(),
            degraded,
            calib_rev: if corr.is_some() {
                self.calib_rev.clone()
            } else {
                None
            },
            candidates,
            validation,
        }
    }

    /// The FNV-64 of `device`'s JSON, memoized per device.
    fn device_fp(&self, device: &DeviceConfig) -> u64 {
        self.device_fps.get_or_insert(
            |d| same_bits(d, device),
            || {
                let json = serde_json::to_string(device).expect("device serializes");
                (device.clone(), cache::fnv64(json.as_bytes()))
            },
        )
    }

    /// Measured model parameters for a (device, stencil) pair, memoized
    /// across queries; `dev_fp` is the device's fingerprint.
    fn model_params(
        &self,
        dev_fp: u64,
        device: &DeviceConfig,
        stencil: &StencilDescriptor,
    ) -> ModelParams {
        let key = (dev_fp, stencil.fingerprint());
        let mut measured = self.measured.get_or_insert(
            |k| *k == key,
            || {
                let _span = obs::span("advisor.microbench", "advisor");
                let m = microbench::measured_params_sampled(
                    device,
                    stencil,
                    self.cfg.citer_samples,
                    self.cfg.seed,
                );
                (key, m)
            },
        );
        // Fault injection (tests / CI calibration smoke): bias the
        // model's view of Citer while the memo keeps the true
        // measurement. The 1.0 case must not touch the value at all.
        if self.cfg.citer_scale != 1.0 {
            measured.citer *= self.cfg.citer_scale;
        }
        ModelParams::from_measured(device, &measured)
    }

    /// The feasible space of `device` (fingerprint `dev_fp`) for
    /// stencil shape `dspec`, enumerated on its first use only.
    fn space(&self, dev_fp: u64, device: &DeviceConfig, dspec: DimSpec) -> Arc<[TileSizes]> {
        let key = (dev_fp, dspec);
        self.spaces.get_or_insert(
            |k| *k == key,
            || (key, feasible_tiles(device, dspec, &self.cfg.space).into()),
        )
    }
}

/// Whether two devices serialize to the same JSON. `==` compares every
/// field but equates `0.0` with `-0.0`, which JSON spells apart, so the
/// float fields also compare by their bits.
fn same_bits(a: &DeviceConfig, b: &DeviceConfig) -> bool {
    let floats = |d: &DeviceConfig| {
        [
            d.word_time,
            d.mem_latency,
            d.tau_sync,
            d.t_launch,
            d.op_time,
            d.shared_access_time,
            d.spill_coeff,
        ]
        .map(f64::to_bits)
    };
    a == b && floats(a) == floats(b)
}

/// A warm-tier answer (see [`Advisor::warm`]). It lives for one call,
/// so the size gap between the variants costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Warm<'a> {
    /// Pre-serialized in the answer store.
    Store(&'a store::Entry),
    /// A clone out of the in-memory LRU.
    Mem(Advice),
}

impl Warm<'_> {
    /// The answer with `id` echoed.
    fn advice(self, id: Option<String>) -> Advice {
        let mut a = match self {
            Warm::Store(e) => e.advice.clone(),
            Warm::Mem(a) => a,
        };
        a.id = id;
        a
    }

    /// The answer line with `id` echoed, byte-identical to
    /// `self.advice(id).to_json_line()`.
    pub(crate) fn line(self, id: Option<&str>) -> String {
        match self {
            Warm::Store(e) => e.line(id),
            mem => mem.advice(id.map(str::to_string)).to_json_line(),
        }
    }
}

/// One sample on `advisor.latency_ms.{outcome}`, whose name is built
/// only when a recorder is installed.
fn record_latency(outcome: &str, t0: Instant) {
    if obs::active() {
        obs::histogram(
            &format!("advisor.latency_ms.{outcome}"),
            t0.elapsed().as_secs_f64() * 1e3,
        );
    }
}

/// Serializes the lib tests that install the process-global recorder
/// and those that feed the counters such a test checks, so one test's
/// counts never land in another's snapshot.
#[cfg(test)]
pub(crate) fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{ProblemSize, StencilDescriptor};

    fn heat_query(id: &str) -> Query {
        Query {
            id: Some(id.into()),
            workload: gpu_sim::Workload::new(
                DeviceConfig::gtx980(),
                StencilDescriptor::heat2d(),
                ProblemSize::new_2d(128, 128, 16),
            )
            .unwrap(),
            within: 0.10,
            top_n: 5,
            validate: false,
            timeout_ms: None,
        }
    }

    #[test]
    fn cold_answer_ranks_candidates_by_predicted_time() {
        let advisor = Advisor::with_defaults();
        let a = advisor.advise(&heat_query("q1"));
        assert_eq!(a.id.as_deref(), Some("q1"));
        assert_eq!(a.device, "GTX 980");
        assert_eq!(a.stencil, "Heat2D");
        assert_eq!(a.size, vec![128, 128]);
        assert!(!a.degraded);
        assert!(a.validation.is_none());
        assert!(a.feasible_points > 0);
        assert!(a.within_points > 0 && a.within_points <= a.feasible_points);
        assert!(!a.candidates.is_empty());
        assert!(a.candidates.len() <= 5);
        // Ranked ascending by predicted time, ranks dense from 0.
        for (i, c) in a.candidates.iter().enumerate() {
            assert_eq!(c.rank, i);
            assert_eq!(c.t_s.len(), 2);
        }
        assert!(a.candidates.windows(2).all(|w| w[0].talg_s <= w[1].talg_s));
    }

    #[test]
    fn canonical_key_ignores_id_and_timeout_but_not_inputs() {
        let advisor = Advisor::with_defaults();
        let a = heat_query("a");
        let mut b = heat_query("b");
        b.timeout_ms = Some(9999);
        assert_eq!(advisor.canonical_key(&a), advisor.canonical_key(&b));
        let mut c = heat_query("a");
        c.within = 0.2;
        assert_ne!(advisor.canonical_key(&a), advisor.canonical_key(&c));
        let mut d = heat_query("a");
        d.workload.device = DeviceConfig::titan_x();
        assert_ne!(advisor.canonical_key(&a), advisor.canonical_key(&d));
        let mut e = heat_query("a");
        e.validate = true;
        assert_ne!(advisor.canonical_key(&a), advisor.canonical_key(&e));
    }

    #[test]
    fn memos_stay_bounded_and_change_no_answer() {
        // More distinct inline devices than a memo holds: each is a new
        // fingerprint, measurement and space. The memos stay at their
        // cap, and every answer, the evicted first device's included,
        // is the one a fresh advisor gives.
        let advisor = Advisor::with_defaults();
        let query = |i: usize| {
            Query::parse_line(&format!(
                "{{\"device\": {{\"preset\": \"GTX 980\", \"name\": \"dev-{i}\"}}, \
                 \"stencil\": \"Jacobi1D\", \"size\": [256], \"time\": 8}}"
            ))
            .unwrap()
        };
        let n = cache::MEMO_CAP + 3;
        for i in (0..n).chain([0]) {
            let q = query(i);
            let fresh = Advisor::with_defaults();
            assert_eq!(advisor.canonical_key(&q), fresh.canonical_key(&q));
            assert_eq!(
                advisor.advise(&q).to_json_line(),
                fresh.advise(&q).to_json_line(),
                "device {i}"
            );
            assert!(advisor.measured.len() <= cache::MEMO_CAP);
            assert!(advisor.device_fps.len() <= cache::MEMO_CAP);
            assert!(advisor.spaces.len() <= cache::MEMO_CAP);
        }
        assert_eq!(advisor.measured.len(), cache::MEMO_CAP);
    }

    #[test]
    fn device_fingerprints_tell_signed_zeros_apart() {
        // `-0.0 == 0.0`, but the two serialize apart, so their keys
        // must differ exactly as a fresh advisor's do.
        let advisor = Advisor::with_defaults();
        let keys: Vec<String> = ["0.0", "-0.0", "0.0"]
            .iter()
            .map(|z| {
                let q = Query::parse_line(&format!(
                    "{{\"device\": {{\"spill_coeff\": {z}}}, \"stencil\": \"Heat2D\", \
                     \"size\": [128, 128], \"time\": 16}}"
                ))
                .unwrap();
                let key = advisor.canonical_key(&q);
                assert_eq!(key, Advisor::with_defaults().canonical_key(&q), "{z}");
                key
            })
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_eq!(keys[0], keys[2]);
    }

    #[test]
    fn validation_runs_the_within_set_and_reports_a_winner() {
        let advisor = Advisor::with_defaults();
        let mut q = heat_query("v");
        q.workload.size = ProblemSize::new_2d(48, 48, 8);
        q.validate = true;
        let a = advisor.advise(&q);
        assert!(!a.degraded);
        let v = a.validation.expect("validation requested");
        assert_eq!(v.requested, a.within_points);
        assert_eq!(v.executed + v.skipped.len(), v.requested);
        let best = v.best.expect("at least one candidate executed");
        assert!(best.wall_s > 0.0);
        assert!(best.rank < a.within_points);
    }

    #[test]
    fn zero_timeout_degrades_to_model_only_and_is_not_cached() {
        let advisor = Advisor::with_defaults();
        let mut q = heat_query("t");
        q.validate = true;
        q.timeout_ms = Some(0);
        let a = advisor.advise(&q);
        assert!(a.degraded);
        assert!(a.validation.is_none());
        assert!(!a.candidates.is_empty(), "model ranking is still served");
        // Degraded answers must not poison the cache: the same query
        // without a deadline gets the full validated answer.
        q.timeout_ms = None;
        q.workload.size = ProblemSize::new_2d(48, 48, 8);
        let b = advisor.advise(&q);
        assert!(!b.degraded);
        assert!(b.validation.is_some());
    }

    #[test]
    fn batch_answers_echo_ids_and_dedup_duplicates() {
        let advisor = Advisor::with_defaults();
        let qs = vec![heat_query("x"), heat_query("y")];
        let answers = advisor.advise_batch(&qs);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].id.as_deref(), Some("x"));
        assert_eq!(answers[1].id.as_deref(), Some("y"));
        let mut a = answers[0].clone();
        let mut b = answers[1].clone();
        a.id = None;
        b.id = None;
        assert_eq!(a, b, "duplicates share one computed answer");
    }
}
