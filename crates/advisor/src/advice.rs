//! Advisory answers: what the service returns for one query.
//!
//! An [`Advice`] is rendered as one compact JSON line. It deliberately
//! carries **no** cache-provenance field: an answer served from the
//! answer store or the in-memory cache is byte-identical to the answer
//! computed cold (provenance lives in the `advisor.*` telemetry
//! counters instead). The struct both serializes (derive) and re-parses from the
//! shim's [`Value`] tree ([`Advice::from_value`]) so the answer store can
//! round-trip answers exactly — every numeric field is an integer or an
//! `f64`, and Rust's shortest-round-trip float formatting guarantees
//! `f64 → JSON → f64` is lossless.

use crate::jsonv::{as_bool, as_f64, as_map, as_seq, as_str, as_u64, get};
use serde::{Serialize, Value};

/// One ranked tile-size candidate from the model sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Candidate {
    /// Position in the within-band ranking (0 = predicted optimum).
    pub rank: usize,
    /// Time-tile extent `t_T`.
    pub t_t: usize,
    /// Space-tile extents, one per stencil dimension.
    pub t_s: Vec<usize>,
    /// Predicted execution time `T_alg` (s).
    pub talg_s: f64,
    /// Modeled hyper-threading factor `k`.
    pub k: usize,
    /// Modeled shared-memory footprint `M_tile` (words).
    pub mtile_words: u64,
    /// Whether the modeled tile is memory-bound (`m' > c`).
    pub memory_bound: bool,
}

/// The measured winner of a validation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MeasuredBest {
    /// The winner's rank in the model's candidate list.
    pub rank: usize,
    /// Time-tile extent.
    pub t_t: usize,
    /// Space-tile extents, one per stencil dimension.
    pub t_s: Vec<usize>,
    /// Measured wall-clock time (s).
    pub wall_s: f64,
}

/// A candidate the validation run did not execute.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SkippedOut {
    /// Index into the submitted candidate list.
    pub index: usize,
    /// Why (`"infeasible"` / `"deadline"`).
    pub reason: String,
}

/// Outcome of executing the within-band candidate set.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ValidationReport {
    /// Candidates submitted to the executor.
    pub requested: usize,
    /// Candidates actually executed.
    pub executed: usize,
    /// Candidates skipped, with reasons.
    pub skipped: Vec<SkippedOut>,
    /// The measured winner (absent when nothing executed).
    pub best: Option<MeasuredBest>,
}

/// The service's answer to one [`crate::Query`].
///
/// `Serialize` is hand-written rather than derived for one reason:
/// [`calib_rev`](Advice::calib_rev) must be *absent* — not `null` —
/// when no calibration store is loaded, so the bytes of an uncalibrated
/// answer are identical to what every pre-calibration release produced
/// (the shim derive renders `None` as `null`, which would break that).
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// The query's `id`, echoed verbatim.
    pub id: Option<String>,
    /// Resolved device name.
    pub device: String,
    /// Stencil name.
    pub stencil: String,
    /// Space extents, one per stencil dimension.
    pub size: Vec<usize>,
    /// Time steps.
    pub time: usize,
    /// Size of the enumerated feasible space (Eqn 31).
    pub feasible_points: usize,
    /// The candidate band fraction the query asked for.
    pub within: f64,
    /// How many feasible points fall within the band.
    pub within_points: usize,
    /// True when a per-query deadline cut the answer down to the
    /// model-only ranking (validation skipped or truncated).
    pub degraded: bool,
    /// Revision of the calibration store whose corrections shaped this
    /// ranking; `None` (omitted from the JSON) when the answer is the
    /// uncorrected model's.
    pub calib_rev: Option<String>,
    /// The ranked candidates (up to `top_n`), best predicted first.
    pub candidates: Vec<Candidate>,
    /// Validation outcome, when the query asked for it and the deadline
    /// allowed it to start.
    pub validation: Option<ValidationReport>,
}

impl Serialize for Advice {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".to_string(), self.id.to_value()),
            ("device".to_string(), self.device.to_value()),
            ("stencil".to_string(), self.stencil.to_value()),
            ("size".to_string(), self.size.to_value()),
            ("time".to_string(), self.time.to_value()),
            (
                "feasible_points".to_string(),
                self.feasible_points.to_value(),
            ),
            ("within".to_string(), self.within.to_value()),
            ("within_points".to_string(), self.within_points.to_value()),
            ("degraded".to_string(), self.degraded.to_value()),
        ];
        if let Some(rev) = &self.calib_rev {
            fields.push(("calib_rev".to_string(), Value::Str(rev.clone())));
        }
        fields.push(("candidates".to_string(), self.candidates.to_value()));
        fields.push(("validation".to_string(), self.validation.to_value()));
        Value::Map(fields)
    }
}

impl Advice {
    /// Render as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("advice serializes")
    }

    /// Reconstruct an advice from its parsed JSON tree — the inverse of
    /// the `Serialize` derive, used by the answer store.
    pub fn from_value(v: &Value) -> Result<Advice, String> {
        let m = as_map(v, "advice")?;
        let need = |k: &str| get(m, k).ok_or_else(|| format!("advice missing field '{k}'"));
        let id = match get(m, "id") {
            None | Some(Value::Null) => None,
            Some(v) => Some(as_str(v, "id")?.to_string()),
        };
        let candidates = as_seq(need("candidates")?, "candidates")?
            .iter()
            .map(candidate_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let validation = match get(m, "validation") {
            None | Some(Value::Null) => None,
            Some(v) => Some(validation_from_value(v)?),
        };
        let calib_rev = match get(m, "calib_rev") {
            None | Some(Value::Null) => None,
            Some(v) => Some(as_str(v, "calib_rev")?.to_string()),
        };
        Ok(Advice {
            id,
            device: as_str(need("device")?, "device")?.to_string(),
            stencil: as_str(need("stencil")?, "stencil")?.to_string(),
            size: usize_seq(need("size")?, "size")?,
            time: as_u64(need("time")?, "time")? as usize,
            feasible_points: as_u64(need("feasible_points")?, "feasible_points")? as usize,
            within: as_f64(need("within")?, "within")?,
            within_points: as_u64(need("within_points")?, "within_points")? as usize,
            degraded: as_bool(need("degraded")?, "degraded")?,
            calib_rev,
            candidates,
            validation,
        })
    }
}

fn usize_seq(v: &Value, what: &str) -> Result<Vec<usize>, String> {
    as_seq(v, what)?
        .iter()
        .map(|e| as_u64(e, what).map(|u| u as usize))
        .collect()
}

fn candidate_from_value(v: &Value) -> Result<Candidate, String> {
    let m = as_map(v, "candidate")?;
    let need = |k: &str| get(m, k).ok_or_else(|| format!("candidate missing field '{k}'"));
    Ok(Candidate {
        rank: as_u64(need("rank")?, "rank")? as usize,
        t_t: as_u64(need("t_t")?, "t_t")? as usize,
        t_s: usize_seq(need("t_s")?, "t_s")?,
        talg_s: as_f64(need("talg_s")?, "talg_s")?,
        k: as_u64(need("k")?, "k")? as usize,
        mtile_words: as_u64(need("mtile_words")?, "mtile_words")?,
        memory_bound: as_bool(need("memory_bound")?, "memory_bound")?,
    })
}

fn validation_from_value(v: &Value) -> Result<ValidationReport, String> {
    let m = as_map(v, "validation")?;
    let need = |k: &str| get(m, k).ok_or_else(|| format!("validation missing field '{k}'"));
    let skipped = as_seq(need("skipped")?, "skipped")?
        .iter()
        .map(|s| {
            let m = as_map(s, "skipped entry")?;
            Ok::<_, String>(SkippedOut {
                index: as_u64(
                    get(m, "index").ok_or("skipped entry missing 'index'")?,
                    "index",
                )? as usize,
                reason: as_str(
                    get(m, "reason").ok_or("skipped entry missing 'reason'")?,
                    "reason",
                )?
                .to_string(),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let best = match get(m, "best") {
        None | Some(Value::Null) => None,
        Some(v) => {
            let m = as_map(v, "best")?;
            let need = |k: &str| get(m, k).ok_or_else(|| format!("best missing field '{k}'"));
            Some(MeasuredBest {
                rank: as_u64(need("rank")?, "rank")? as usize,
                t_t: as_u64(need("t_t")?, "t_t")? as usize,
                t_s: usize_seq(need("t_s")?, "t_s")?,
                wall_s: as_f64(need("wall_s")?, "wall_s")?,
            })
        }
    };
    Ok(ValidationReport {
        requested: as_u64(need("requested")?, "requested")? as usize,
        executed: as_u64(need("executed")?, "executed")? as usize,
        skipped,
        best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Advice {
        Advice {
            id: Some("q7".into()),
            device: "GTX 980".into(),
            stencil: "Heat2D".into(),
            size: vec![512, 512],
            time: 64,
            feasible_points: 850,
            within: 0.1,
            within_points: 23,
            degraded: false,
            calib_rev: None,
            candidates: vec![Candidate {
                rank: 0,
                t_t: 16,
                t_s: vec![8, 128],
                talg_s: 1.25e-3,
                k: 2,
                mtile_words: 4096,
                memory_bound: true,
            }],
            validation: Some(ValidationReport {
                requested: 23,
                executed: 22,
                skipped: vec![SkippedOut {
                    index: 4,
                    reason: "deadline".into(),
                }],
                best: Some(MeasuredBest {
                    rank: 3,
                    t_t: 12,
                    t_s: vec![6, 96],
                    wall_s: 0.017,
                }),
            }),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let a = sample();
        let line = a.to_json_line();
        let back = Advice::from_value(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(a, back);
        // And re-serializing produces the same bytes — the property the
        // answer store relies on.
        assert_eq!(line, back.to_json_line());
    }

    #[test]
    fn optional_fields_round_trip_as_null() {
        let mut a = sample();
        a.id = None;
        a.validation = None;
        let line = a.to_json_line();
        assert!(line.contains("\"id\":null"));
        assert!(line.contains("\"validation\":null"));
        let back = Advice::from_value(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn calib_rev_is_omitted_when_absent_and_round_trips_when_set() {
        // Absence must be *byte* absence, not null — uncalibrated
        // answers keep their pre-calibration serialization.
        let a = sample();
        assert!(!a.to_json_line().contains("calib_rev"));
        let mut b = sample();
        b.calib_rev = Some("00c0ffee00c0ffee".into());
        let line = b.to_json_line();
        assert!(line.contains("\"calib_rev\":\"00c0ffee00c0ffee\""));
        let back = Advice::from_value(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(b, back);
        assert_eq!(line, back.to_json_line());
    }
}
