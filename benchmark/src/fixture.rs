//! Output checks against committed fixtures.
//!
//! Every run compares what the program produced with digests committed
//! under `fixtures/` (one JSON object of `label -> 16-hex-digit FNV-64`
//! per workload). `--bless` recomputes them from scratch; a change that
//! alters an answer on purpose re-blesses and shows the new digests in
//! its diff.

use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

pub use advisor::cache::fnv64;

/// FNV-64 over the bit patterns of a grid's values.
pub fn grid_digest(values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv64(&bytes)
}

/// The fixture file of one workload family.
fn embedded(name: &str) -> &'static str {
    match name {
        "select" => include_str!("../fixtures/select.json"),
        "reproduce" => include_str!("../fixtures/reproduce.json"),
        "serve" => include_str!("../fixtures/serve.json"),
        other => panic!("no fixture named {other}"),
    }
}

fn path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(format!("{name}.json"))
}

/// Label -> digest table.
#[derive(Debug, Default)]
pub struct Fixture {
    entries: BTreeMap<String, u64>,
}

impl Fixture {
    /// The committed table compiled into this binary.
    pub fn load(name: &str) -> Result<Fixture, String> {
        let value = serde_json::from_str(embedded(name))
            .map_err(|e| format!("fixtures/{name}.json: {e}"))?;
        let Value::Map(entries) = value else {
            return Err(format!("fixtures/{name}.json: not a JSON object"));
        };
        let mut out = BTreeMap::new();
        for (label, v) in entries {
            let digest = match &v {
                Value::Str(hex) => u64::from_str_radix(hex, 16).ok(),
                _ => None,
            }
            .ok_or_else(|| format!("fixtures/{name}.json: bad digest for '{label}'"))?;
            out.insert(label, digest);
        }
        Ok(Fixture { entries: out })
    }

    pub fn insert(&mut self, label: String, digest: u64) {
        self.entries.insert(label, digest);
    }

    pub fn get(&self, label: &str) -> Option<u64> {
        self.entries.get(label).copied()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Write the table back to the package's `fixtures/` directory.
    pub fn save(&self, name: &str) -> std::io::Result<PathBuf> {
        let mut text = String::from("{\n");
        for (i, (label, digest)) in self.entries.iter().enumerate() {
            let sep = if i + 1 == self.entries.len() { "" } else { "," };
            text.push_str(&format!(
                "  {}: \"{digest:016x}\"{sep}\n",
                serde_json::to_string(label).expect("label renders")
            ));
        }
        text.push_str("}\n");
        let p = path(name);
        std::fs::write(&p, text)?;
        Ok(p)
    }
}

/// The output checks of one run: compares digests against the fixture
/// and collects every mismatch.
#[derive(Debug)]
pub struct Checks {
    fixture: Fixture,
    failures: Vec<String>,
}

impl Checks {
    pub fn new(fixture: &str) -> Checks {
        match Fixture::load(fixture) {
            Ok(f) => Checks {
                fixture: f,
                failures: Vec::new(),
            },
            Err(e) => Checks {
                fixture: Fixture::default(),
                failures: vec![e],
            },
        }
    }

    pub fn fixture(&self) -> &Fixture {
        &self.fixture
    }

    /// Check one produced digest against the fixture entry `label`.
    pub fn expect(&mut self, label: &str, digest: u64) {
        match self.fixture.get(label) {
            Some(want) if want == digest => {}
            Some(want) => self.fail(format!(
                "{label}: digest {digest:016x}, fixture {want:016x}"
            )),
            None => self.fail(format!("{label}: no fixture entry (run --bless)")),
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
