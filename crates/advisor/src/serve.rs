//! JSON-lines service loop: the transport behind `experiments serve`.
//!
//! The loop reads queries (one JSON object per line) to end-of-input,
//! answers the whole batch through [`Advisor::advise_batch`] — so
//! duplicate queries inside one request stream are computed once — and
//! writes one answer line per input line, in input order. A line that
//! fails to parse produces an `{"error": ...}` line in its slot instead
//! of aborting the stream; blank lines are ignored.

use crate::{Advisor, Query};
use serde::Value;
use std::io::{BufRead, Write};

/// What a service pass processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Lines answered with an advice.
    pub answered: usize,
    /// Lines answered with a parse error.
    pub errors: usize,
}

/// One output slot per non-blank input line.
enum Slot {
    /// Index into the parsed-query batch.
    Query(usize),
    Error(String),
}

/// Shared per-line request handling: `None` for a blank line (no
/// response slot), otherwise the parsed query or the error message that
/// the caller must answer with [`error_line`]. Every parse failure is
/// counted on `advisor.query_errors`, whichever transport saw it —
/// stdin, a `--queries` file, or a socket connection.
pub(crate) fn parse_slot(line: &str) -> Option<Result<Query, String>> {
    let text = line.trim();
    if text.is_empty() {
        return None;
    }
    Some(Query::parse_line(text).inspect_err(|_| {
        obs::counter("advisor.query_errors", 1);
    }))
}

/// The structured response for a malformed input line.
pub(crate) fn error_line(msg: &str) -> String {
    serde_json::to_string(&Value::Map(vec![(
        "error".to_string(),
        Value::Str(msg.to_string()),
    )]))
    .expect("error line serializes")
}

/// The backpressure response for a shed query: explicit, parseable, and
/// carrying the query's own `id` so a pipelining client can tell which
/// request was refused.
pub(crate) fn overloaded_line(id: Option<&str>) -> String {
    let mut fields = vec![("error".to_string(), Value::Str("overloaded".to_string()))];
    if let Some(id) = id {
        fields.push(("id".to_string(), Value::Str(id.to_string())));
    }
    serde_json::to_string(&Value::Map(fields)).expect("overloaded line serializes")
}

/// Run the service loop over `input`, writing answers to `out`.
pub fn serve_lines<R: BufRead, W: Write>(
    advisor: &Advisor,
    input: R,
    out: &mut W,
) -> std::io::Result<ServeStats> {
    let _span = obs::span("advisor.serve", "advisor");
    let mut queries = Vec::new();
    let mut slots = Vec::new();
    for line in input.lines() {
        let line = line?;
        match parse_slot(&line) {
            None => continue,
            Some(Ok(q)) => {
                slots.push(Slot::Query(queries.len()));
                queries.push(q);
            }
            Some(Err(e)) => slots.push(Slot::Error(e)),
        }
    }
    let answers = advisor.advise_batch(&queries);
    let mut stats = ServeStats {
        answered: 0,
        errors: 0,
    };
    for slot in slots {
        match slot {
            Slot::Query(i) => {
                stats.answered += 1;
                writeln!(out, "{}", answers[i].to_json_line())?;
            }
            Slot::Error(msg) => {
                stats.errors += 1;
                writeln!(out, "{}", error_line(&msg))?;
            }
        }
    }
    out.flush()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bad_lines_become_error_slots_in_order() {
        // Its two errors count on whatever recorder another test holds.
        let _g = crate::obs_lock();
        let advisor = Advisor::with_defaults();
        let input = "\nnot json\n\
            {\"device\": \"GTX 980\", \"stencil\": \"Heat2D\", \"size\": [64, 64], \"time\": 8}\n\
            {\"device\": \"nope\", \"stencil\": \"Heat2D\", \"size\": [64, 64], \"time\": 8}\n";
        let mut out = Vec::new();
        let stats = serve_lines(&advisor, input.as_bytes(), &mut out).unwrap();
        assert_eq!(
            stats,
            ServeStats {
                answered: 1,
                errors: 2
            }
        );
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"error\":"));
        assert!(lines[1].contains("\"stencil\":\"Heat2D\""));
        assert!(lines[2].contains("unknown device preset"));
    }

    /// `ci/advisor_smoke.jsonl`: the seeds the mutation fuzz starts from.
    const SMOKE: &str = include_str!("../../../ci/advisor_smoke.jsonl");

    /// Run `line` through `parse_slot` under a fresh recorder. Parsing
    /// must not panic; an error must render as one `{"error": ...}`
    /// line and add exactly 1 to `advisor.query_errors`.
    fn check_slot(line: &str) {
        let _g = crate::obs_lock();
        let rec = std::sync::Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
        obs::install(rec.clone());
        let slot = parse_slot(line);
        obs::uninstall();
        let errors = rec.snapshot().counter("advisor.query_errors");
        match slot {
            None => assert!(line.trim().is_empty()),
            Some(Ok(_)) => assert_eq!(errors, 0, "{line:?}"),
            Some(Err(msg)) => {
                assert_eq!(errors, 1, "{line:?}");
                let out = error_line(&msg);
                assert!(!out.contains('\n'), "{out}");
                let Ok(Value::Map(fields)) = serde_json::from_str(&out) else {
                    panic!("not a JSON object: {out}");
                };
                assert!(matches!(&fields[..], [(k, Value::Str(_))] if k == "error"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn random_bytes_never_panic_the_parser(
            bytes in prop::collection::vec(any::<u8>(), 0..200),
        ) {
            check_slot(&String::from_utf8_lossy(&bytes));
        }

        /// One byte of a smoke query replaced, inserted or deleted, or
        /// the line cut short.
        #[test]
        fn mutated_smoke_queries_never_panic_the_parser(
            line in 0usize..5,
            at in any::<usize>(),
            byte in any::<u8>(),
            how in 0u8..4,
        ) {
            let mut bytes = SMOKE.lines().nth(line).expect("five smoke queries").as_bytes().to_vec();
            let at = at % bytes.len();
            match how {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                2 => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
            check_slot(&String::from_utf8_lossy(&bytes));
        }
    }
}
