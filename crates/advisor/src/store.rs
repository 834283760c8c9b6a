//! The answer store: the advisor's one persistent answer tier, a
//! precomputed Eqn-31 sweep table that serving extends.
//!
//! The analytical model is cheap enough to enumerate the whole query
//! space up front — the same move the codesign follow-up paper makes
//! when it turns the time model into an optimization objective. The
//! `experiments precompute` subcommand sweeps every (device preset,
//! stencil, size-bucket) cell of a configured grid through the normal
//! advisory pipeline and writes the answers to a compact JSONL table;
//! the server loads that table at startup and answers steady-state
//! traffic with a pure hash lookup — **zero model evaluations**, no
//! locks (asserted by the `advisor.store_hits` vs `advisor.model_evals`
//! counters). Each entry is serialized once, when it is inserted: a hit
//! is the echoed `id` spliced onto the stored bytes
//! ([`line`](AnswerStore::line)), never a re-serialization. A store
//! opened with [`open`](AnswerStore::open) also grows: every answer the
//! model computes on a miss is appended to the file, so a restarted
//! server answers it as a store hit.
//!
//! File format (one JSON object per line):
//!
//! ```text
//! {"kind":"advisor_store","version":1,"git_rev":...,"seed":...,
//!  "citer_samples":...,"entries":N}          <- header
//! {"key":"v2|dev=...","advice":{...}}        <- one line per answer
//! ```
//!
//! The header's `entries` counts the lines written with it; appended
//! lines follow them in the same shape, and when a key appears twice
//! the last line wins. Entries are keyed by the advisor's full
//! canonical key, so a lookup hits only when *every*
//! answer-determining input matches — device fingerprint, stencil,
//! exact size, band, `top_n`, micro-benchmark sampling, and the
//! enumerated space. A store is bound to the git revision that computed
//! it: loading a stale store is refused unless explicitly allowed,
//! because a model change anywhere in the workspace may change the
//! answers.

use crate::advice::Advice;
use crate::cache::current_git_rev;
use crate::jsonv::{as_map, as_str, as_u64, get};
use crate::query::Query;
use crate::Advisor;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How an id-less answer line starts; an [`Entry`] keeps what follows.
const ID_NULL: &str = "{\"id\":null";

/// One stored answer, serialized once at insert.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) advice: Advice,
    /// The answer line after [`ID_NULL`].
    tail: String,
}

impl Entry {
    /// The answer line with `id` echoed.
    pub(crate) fn line(&self, id: Option<&str>) -> String {
        let id = serde_json::to_string(&id).expect("id serializes");
        format!("{{\"id\":{id}{}", self.tail)
    }
}

/// The in-memory answer table: read-only after load, shared behind an
/// `Arc`, safe to probe from every worker with no lock at all.
#[derive(Debug)]
pub struct AnswerStore {
    map: HashMap<String, Entry>,
    git_rev: String,
    seed: u64,
    citer_samples: u64,
    calib_rev: Option<String>,
    /// The file [`append`](Self::append) extends; `None` for in-memory
    /// stores and for files whose header does not match the server.
    file: Option<Mutex<File>>,
}

impl AnswerStore {
    /// An empty store bound to the current tree (the builder's starting
    /// point), minted without calibration.
    pub fn empty(seed: u64, citer_samples: usize) -> AnswerStore {
        AnswerStore {
            map: HashMap::new(),
            git_rev: current_git_rev(),
            seed,
            citer_samples: citer_samples as u64,
            calib_rev: None,
            file: None,
        }
    }

    /// Open the store file at `path` for serving: [`load`](Self::load)
    /// it under the usual rules, or, when it does not exist, create it
    /// with a header-only [`write`](Self::write) for the current tree,
    /// calibration revision `calib`, `seed` and `citer_samples`. Answers
    /// the advisor computes on a miss are then appended
    /// to the file — unless its header does not match this server (a
    /// stale store loaded with `allow_stale`, or another seed or
    /// `citer_samples`), in which case a note on stderr says appending
    /// is off.
    pub fn open(
        path: &Path,
        allow_stale: bool,
        calib: Option<&str>,
        seed: u64,
        citer_samples: usize,
    ) -> Result<AnswerStore, String> {
        let mut store = if path.exists() {
            let store = AnswerStore::load(path, allow_stale, calib)?;
            let mismatch = [
                (store.git_rev != current_git_rev(), "git revision"),
                (store.calib_rev.as_deref() != calib, "calibration revision"),
                (store.seed != seed, "seed"),
                (store.citer_samples != citer_samples as u64, "citer_samples"),
            ]
            .into_iter()
            .find_map(|(differs, what)| differs.then_some(what));
            if let Some(what) = mismatch {
                eprintln!(
                    "note: {}: the store's {what} differs from this server's; \
                     new answers are not appended",
                    path.display()
                );
                return Ok(store);
            }
            store
        } else {
            let store =
                AnswerStore::empty(seed, citer_samples).with_calib_rev(calib.map(str::to_string));
            store
                .write(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            store
        };
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        store.file = Some(Mutex::new(file));
        Ok(store)
    }

    /// Bind the store to the calibration revision its answers were
    /// minted under (`None` = uncalibrated).
    pub fn with_calib_rev(mut self, calib_rev: Option<String>) -> AnswerStore {
        self.calib_rev = calib_rev;
        self
    }

    /// The calibration revision the answers were minted under, if any.
    pub fn calib_rev(&self) -> Option<&str> {
        self.calib_rev.as_deref()
    }

    /// Number of precomputed answers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The git revision the answers were computed at.
    pub fn git_rev(&self) -> &str {
        &self.git_rev
    }

    /// Pure lookup. Stored answers carry no `id`; the caller echoes the
    /// query's own.
    pub fn get(&self, key: &str) -> Option<Advice> {
        self.map.get(key).map(|e| e.advice.clone())
    }

    /// The steady-state serving path: the answer line for `key` with
    /// `id` echoed, byte-identical to `get(key)` with that `id` set and
    /// rendered by [`Advice::to_json_line`].
    pub fn line(&self, key: &str, id: Option<&str>) -> Option<String> {
        self.entry(key).map(|e| e.line(id))
    }

    pub(crate) fn entry(&self, key: &str) -> Option<&Entry> {
        self.map.get(key)
    }

    /// Add one precomputed answer under its canonical key. The `id` is
    /// stripped so the stored bytes are query-independent.
    pub fn insert(&mut self, key: String, mut advice: Advice) {
        advice.id = None;
        let line = advice.to_json_line();
        // `Advice` serializes `id` first, so everything after the null
        // id is the same for every id a query may echo.
        let tail = line
            .strip_prefix(ID_NULL)
            .expect("advice serializes its id first")
            .to_string();
        self.map.insert(key, Entry { advice, tail });
    }

    /// Compute and insert the answers for `queries` through `advisor`
    /// (cache tiers and all — recomputation of an already-known key is
    /// a cache hit, not a second sweep). Degraded answers are never
    /// stored. Returns how many entries were added or refreshed.
    pub fn precompute(&mut self, advisor: &Advisor, queries: &[Query]) -> usize {
        let _span = obs::span("advisor.precompute", "advisor");
        let mut added = 0;
        for q in queries {
            let key = advisor.canonical_key(q);
            let t0 = Instant::now();
            let deadline = q.timeout_ms.map(|ms| t0 + Duration::from_millis(ms));
            let answer = advisor.advise_keyed(q, &key, t0, deadline);
            if answer.degraded {
                continue;
            }
            self.insert(key, answer);
            added += 1;
        }
        added
    }

    /// Write the table to `path` (atomically: temp file + rename).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        {
            let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
            let mut header_fields = vec![
                ("kind".into(), Value::Str("advisor_store".into())),
                ("version".into(), Value::UInt(1)),
                ("git_rev".into(), Value::Str(self.git_rev.clone())),
                ("seed".into(), Value::UInt(self.seed)),
                ("citer_samples".into(), Value::UInt(self.citer_samples)),
            ];
            // Omitted (not null) when uncalibrated, so stores minted
            // before calibration existed parse identically.
            if let Some(rev) = &self.calib_rev {
                header_fields.push(("calib_rev".into(), Value::Str(rev.clone())));
            }
            header_fields.push(("entries".into(), Value::UInt(self.map.len() as u64)));
            let header = Value::Map(header_fields);
            writeln!(w, "{}", serde_json::to_string(&header).expect("header"))?;
            // Deterministic file bytes: entries in sorted key order.
            let mut keys: Vec<&String> = self.map.keys().collect();
            keys.sort();
            for key in keys {
                writeln!(w, "{}", entry_line(key, &self.map[key].advice))?;
            }
            w.flush()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Append a freshly computed answer to the file this store was
    /// [`open`](Self::open)ed on, as one `write_all` of one entry line.
    /// The in-memory table is left alone (it stays lock-free); a
    /// restarted server loads the line as a store entry. Best-effort:
    /// an I/O failure is an `advisor.store_append_failed` event and
    /// counter, never a failed query.
    pub(crate) fn append(&self, key: &str, advice: &Advice) {
        let Some(file) = &self.file else {
            return;
        };
        let mut advice = advice.clone();
        advice.id = None;
        let line = format!("{}\n", entry_line(key, &advice));
        let mut file = file.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = file.write_all(line.as_bytes()).and_then(|()| file.flush()) {
            obs::counter("advisor.store_append_failed", 1);
            obs::event(
                obs::Level::Info,
                "advisor.store_append_failed",
                &[("error", e.to_string().as_str().into())],
            );
        }
    }

    /// Load a table written by [`write`](AnswerStore::write). Unless
    /// `allow_stale`, a store computed at a different git revision or
    /// under a different calibration revision (`expected_calib` is the
    /// serving advisor's, `None` = no calibration) is refused — its
    /// answers may no longer match what the model would compute today.
    /// A calibration mismatch bumps `advisor.store_stale_calib` whether
    /// refused or tolerated; when tolerated, the stale entries are
    /// unreachable anyway (the canonical key embeds the calibration
    /// revision), so every query re-derives instead of serving a
    /// stale-calibration answer.
    pub fn load(
        path: &Path,
        allow_stale: bool,
        expected_calib: Option<&str>,
    ) -> Result<AnswerStore, String> {
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut lines = std::io::BufReader::new(file).lines();
        let header_line = lines
            .next()
            .ok_or_else(|| format!("{}: empty store file", path.display()))?
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let header = serde_json::from_str(&header_line)
            .map_err(|e| format!("{}: bad header: {e}", path.display()))?;
        let h = as_map(&header, "store header")?;
        match get(h, "kind") {
            Some(Value::Str(k)) if k == "advisor_store" => {}
            _ => return Err(format!("{}: not an advisor store", path.display())),
        }
        match get(h, "version") {
            Some(v) if as_u64(v, "version")? == 1 => {}
            _ => return Err(format!("{}: unsupported store version", path.display())),
        }
        let git_rev = as_str(
            get(h, "git_rev").ok_or("store header missing 'git_rev'")?,
            "git_rev",
        )?
        .to_string();
        let current = current_git_rev();
        if git_rev != current && !allow_stale {
            return Err(format!(
                "{}: store was computed at revision {git_rev} but the tree is at {current}; \
                 re-run `experiments precompute` (or pass --store-stale-ok)",
                path.display()
            ));
        }
        let calib_rev = match get(h, "calib_rev") {
            None | Some(Value::Null) => None,
            Some(v) => Some(as_str(v, "calib_rev")?.to_string()),
        };
        if calib_rev.as_deref() != expected_calib {
            obs::counter("advisor.store_stale_calib", 1);
            if !allow_stale {
                return Err(format!(
                    "{}: store was minted under calibration {} but the server is using {}; \
                     re-run `experiments precompute` with the current --calib \
                     (or pass --store-stale-ok to load it anyway and re-derive on miss)",
                    path.display(),
                    calib_rev.as_deref().unwrap_or("none"),
                    expected_calib.unwrap_or("none"),
                ));
            }
        }
        let seed = as_u64(get(h, "seed").ok_or("store header missing 'seed'")?, "seed")?;
        let citer_samples = as_u64(
            get(h, "citer_samples").ok_or("store header missing 'citer_samples'")?,
            "citer_samples",
        )?;
        let mut store = AnswerStore {
            map: HashMap::new(),
            git_rev,
            seed,
            citer_samples,
            calib_rev,
            file: None,
        };
        for (i, line) in lines.enumerate() {
            let line = line.map_err(|e| format!("{}: entry {}: {e}", path.display(), i + 1))?;
            if line.trim().is_empty() {
                continue;
            }
            let (key, advice) = parse_entry(&line)
                .map_err(|e| format!("{}: entry {}: {e}", path.display(), i + 1))?;
            store.insert(key, advice);
        }
        Ok(store)
    }
}

/// One `{"key":...,"advice":{...}}` line of a store file, without its
/// newline: what both [`AnswerStore::write`] and
/// [`AnswerStore::append`] emit.
fn entry_line(key: &str, advice: &Advice) -> String {
    let entry = Value::Map(vec![
        ("key".into(), Value::Str(key.to_string())),
        ("advice".into(), advice.to_value()),
    ]);
    serde_json::to_string(&entry).expect("entry")
}

/// One `{"key":...,"advice":{...}}` line of a store file. A line cut
/// off mid-entry (a crash during append) fails here as invalid JSON.
fn parse_entry(line: &str) -> Result<(String, Advice), String> {
    let value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let m = as_map(&value, "store entry")?;
    let key = as_str(get(m, "key").ok_or("store entry missing 'key'")?, "key")?;
    let advice = Advice::from_value(get(m, "advice").ok_or("store entry missing 'advice'")?)?;
    Ok((key.to_string(), advice))
}

/// The precompute grid: every (device, stencil, space-extent bucket,
/// time bucket) cell as a default-shaped query (model-only, default
/// band and `top_n`). Space extents are cubic/square per the stencil's
/// rank — a `size` bucket of 1024 means 1024² for a 2D stencil and
/// 1024³ for a 3D one. Both `experiments precompute` and `serve-bench`
/// build their universes through this one function, so precomputed
/// keys and replayed keys match by construction.
pub fn grid_queries(
    devices: &[gpu_sim::DeviceConfig],
    stencils: &[stencil_core::StencilDescriptor],
    sizes: &[usize],
    times: &[usize],
    within: f64,
    top_n: usize,
) -> Result<Vec<Query>, String> {
    let mut queries = Vec::new();
    for device in devices {
        for stencil in stencils {
            let rank = stencil.dim.rank();
            for &s in sizes {
                for &t in times {
                    let size = stencil_core::ProblemSize::from_extents(&vec![s; rank], t)?;
                    queries.push(Query {
                        id: None,
                        workload: gpu_sim::Workload::new(device.clone(), stencil.clone(), size)?,
                        within,
                        top_n,
                        validate: false,
                        timeout_ms: None,
                    });
                }
            }
        }
    }
    Ok(queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdvisorConfig;
    use gpu_sim::DeviceConfig;
    use stencil_core::StencilDescriptor;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "advisor-store-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn precompute_write_load_round_trips_byte_identical_answers() {
        let advisor = Advisor::new(AdvisorConfig::default());
        let queries = grid_queries(
            &[DeviceConfig::gtx980()],
            &[StencilDescriptor::heat2d()],
            &[96, 128],
            &[8],
            0.10,
            5,
        )
        .unwrap();
        assert_eq!(queries.len(), 2);
        let mut store = AnswerStore::empty(0x5EED, 16);
        assert_eq!(store.precompute(&advisor, &queries), 2);
        let path = temp_path("rt");
        store.write(&path).unwrap();
        let back = AnswerStore::load(&path, false, None).expect("fresh store loads");
        assert_eq!(back.len(), 2);
        for q in &queries {
            let key = advisor.canonical_key(q);
            let direct = advisor.advise(q); // mem-cache hit: the canonical bytes
            let stored = back.get(&key).expect("precomputed key present");
            assert_eq!(stored.to_json_line(), direct.to_json_line());
        }
        assert!(back.get("v2|no-such-key").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_an_error_naming_the_entry() {
        let advisor = Advisor::new(AdvisorConfig::default());
        let queries = grid_queries(
            &[DeviceConfig::gtx980()],
            &[StencilDescriptor::heat2d()],
            &[96, 128],
            &[8],
            0.10,
            5,
        )
        .unwrap();
        let mut store = AnswerStore::empty(0x5EED, 16);
        store.precompute(&advisor, &queries);
        let path = temp_path("torn");
        store.write(&path).unwrap();
        let whole = std::fs::read(&path).unwrap();
        // The file ends "...}\n"; the last entry starts after the
        // second-to-last newline.
        let last = whole[..whole.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        // Cuts strictly inside the last entry, as after a crash during
        // append (with or without a trailing newline), down to the one
        // that loses only its closing brace. A stride keeps the number
        // of loads (each asks git for the revision) small.
        let cuts = (last + 1..whole.len() - 1)
            .step_by(37)
            .chain([whole.len() - 2]);
        for cut in cuts {
            for tail in [&b""[..], &b"\n"[..]] {
                let mut torn = whole[..cut].to_vec();
                torn.extend_from_slice(tail);
                std::fs::write(&path, &torn).unwrap();
                let err =
                    AnswerStore::load(&path, false, None).expect_err("a torn entry must not load");
                assert!(err.contains("entry 2:"), "cut at {cut}: {err}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_revision_is_refused_unless_allowed() {
        let mut store = AnswerStore::empty(7, 4);
        store.git_rev = "deadbeef-elsewhere".into();
        let path = temp_path("stale");
        store.write(&path).unwrap();
        let err = AnswerStore::load(&path, false, None).unwrap_err();
        assert!(err.contains("deadbeef-elsewhere"), "{err}");
        let loaded = AnswerStore::load(&path, true, None).expect("--store-stale-ok path");
        assert_eq!(loaded.git_rev(), "deadbeef-elsewhere");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_calibration_is_refused_and_counted() {
        let _g = crate::obs_lock();
        let rec = std::sync::Arc::new(obs::ShardedRecorder::new(obs::Level::Info));
        obs::install(rec.clone());
        let store = AnswerStore::empty(7, 4).with_calib_rev(Some("aaaa000011112222".into()));
        let path = temp_path("stale-calib");
        store.write(&path).unwrap();
        // Server without calibration: mismatch, refused.
        let err = AnswerStore::load(&path, false, None).unwrap_err();
        assert!(err.contains("aaaa000011112222"), "{err}");
        // Server under a *different* calibration: mismatch, refused.
        let err = AnswerStore::load(&path, false, Some("bbbb000011112222")).unwrap_err();
        assert!(err.contains("bbbb000011112222"), "{err}");
        // Matching calibration: loads clean, not counted.
        let ok = AnswerStore::load(&path, false, Some("aaaa000011112222"));
        assert!(ok.is_ok(), "{ok:?}");
        assert_eq!(ok.unwrap().calib_rev(), Some("aaaa000011112222"));
        // --store-stale-ok tolerates the mismatch but still counts it.
        let tolerated = AnswerStore::load(&path, true, None).expect("stale-ok load");
        assert_eq!(tolerated.calib_rev(), Some("aaaa000011112222"));
        obs::uninstall();
        assert_eq!(rec.snapshot().counter("advisor.store_stale_calib"), 3);
        let _ = std::fs::remove_file(&path);
    }

    /// A default advisor serving `store`.
    fn serving(store: AnswerStore) -> Advisor {
        Advisor::new(AdvisorConfig {
            store: Some(std::sync::Arc::new(store)),
            ..AdvisorConfig::default()
        })
    }

    /// The default advisor's `open` of `path`.
    fn open(path: &Path, allow_stale: bool) -> Result<AnswerStore, String> {
        let cfg = AdvisorConfig::default();
        AnswerStore::open(path, allow_stale, None, cfg.seed, cfg.citer_samples)
    }

    fn heat_queries() -> Vec<Query> {
        grid_queries(
            &[DeviceConfig::gtx980()],
            &[StencilDescriptor::heat2d()],
            &[96, 128],
            &[8],
            0.10,
            5,
        )
        .unwrap()
    }

    #[test]
    fn opening_a_missing_path_writes_a_header_only_file() {
        let path = temp_path("open-missing");
        let _ = std::fs::remove_file(&path);
        let store = AnswerStore::open(&path, false, None, 7, 4).expect("missing path opens");
        assert!(store.is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.starts_with("{\"kind\":\"advisor_store\""), "{text}");
        assert!(text.contains("\"entries\":0"), "{text}");
        let back = AnswerStore::load(&path, false, None).expect("header-only store loads");
        assert!(back.is_empty());
        assert_eq!((back.seed, back.citer_samples), (7, 4));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn precompute_then_append_then_reopen_serves_both_kinds_of_entry() {
        let queries = heat_queries();
        let mut store = AnswerStore::empty(0x5EED, 16);
        store.precompute(&Advisor::new(AdvisorConfig::default()), &queries[..1]);
        let path = temp_path("extend");
        store.write(&path).unwrap();
        // The first query is a store hit, the second is computed and
        // appended.
        let advisor = serving(open(&path, false).expect("precomputed store opens"));
        let lines: Vec<String> = queries
            .iter()
            .map(|q| advisor.advise(q).to_json_line())
            .collect();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("\"entries\":1"), "{text}");
        let back = AnswerStore::load(&path, false, None).expect("extended store loads");
        assert_eq!(back.len(), 2);
        for (q, line) in queries.iter().zip(&lines) {
            let key = advisor.canonical_key(q);
            assert_eq!(back.line(&key, None).as_ref(), Some(line));
        }
        // The header still binds the extended file to its revision.
        let moved = text.replacen(back.git_rev(), "deadbeef-elsewhere", 1);
        std::fs::write(&path, moved).unwrap();
        let err = AnswerStore::load(&path, false, None).unwrap_err();
        assert!(err.contains("deadbeef-elsewhere"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_headers_append_nothing() {
        let query = &heat_queries()[0];
        let path = temp_path("no-append");
        // A stale revision tolerated by --store-stale-ok, then a current
        // one written under another seed.
        let mut stale = AnswerStore::empty(0x5EED, 16);
        stale.git_rev = "deadbeef-elsewhere".into();
        for (store, allow_stale) in [(stale, true), (AnswerStore::empty(1, 16), false)] {
            store.write(&path).unwrap();
            let before = std::fs::read(&path).unwrap();
            let advisor = serving(open(&path, allow_stale).expect("store opens"));
            assert!(!advisor.advise(query).degraded);
            assert_eq!(std::fs::read(&path).unwrap(), before);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn degraded_answers_are_not_appended() {
        let path = temp_path("degraded");
        let _ = std::fs::remove_file(&path);
        let advisor = serving(open(&path, false).expect("missing path opens"));
        let mut q = heat_queries()[0].clone();
        q.validate = true;
        q.timeout_ms = Some(0);
        assert!(advisor.advise(&q).degraded);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_duplicated_key_keeps_the_last_line() {
        let advisor = Advisor::new(AdvisorConfig::default());
        let queries = heat_queries();
        let first = advisor.advise(&queries[0]);
        let last = advisor.advise(&queries[1]);
        assert_ne!(first, last);
        let mut store = AnswerStore::empty(0x5EED, 16);
        store.insert("v2|dup".into(), first);
        let path = temp_path("dup");
        store.write(&path).unwrap();
        open(&path, false)
            .expect("store opens")
            .append("v2|dup", &last);
        let back = AnswerStore::load(&path, false, None).expect("store loads");
        assert_eq!(back.len(), 1);
        assert_eq!(back.get("v2|dup"), Some(last));
        let _ = std::fs::remove_file(&path);
    }
}
