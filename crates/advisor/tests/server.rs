//! Integration tests of the concurrent socket server: round-trip byte
//! identity against the direct API, malformed-line survival,
//! cross-client and in-flight coalescing (with its deadline rule and
//! no state left by a shed miss), store-backed zero-model-eval serving,
//! input-order answers when hits overtake misses, spliced store answers
//! for any echoed id, oversized-line rejection, backpressure shedding,
//! and arrival-anchored deadlines.
//!
//! Tests that install a telemetry recorder share one process-global
//! lock — the obs recorder slot is process-wide.

use advisor::server::MAX_LINE_BYTES;
use advisor::{Advisor, AdvisorConfig, AnswerStore, Query, Server, ServerConfig};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn lock_obs() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn query_line(id: &str, stencil: &str, size: usize) -> String {
    format!(
        "{{\"id\": \"{id}\", \"device\": \"GTX 980\", \"stencil\": \"{stencil}\", \
         \"size\": [{size}, {size}], \"time\": 8}}"
    )
}

fn start_server(advisor: Advisor, cfg: ServerConfig) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    Server::start(Arc::new(advisor), listener, cfg).expect("server starts")
}

/// Send `lines` over one connection, shut down the write half, and
/// collect every response line.
fn roundtrip(server: &Server, lines: &[String]) -> Vec<String> {
    let mut bytes = Vec::new();
    for line in lines {
        writeln!(bytes, "{line}").unwrap();
    }
    roundtrip_bytes(server, &bytes)
}

/// [`roundtrip`] for raw input bytes.
fn roundtrip_bytes(server: &Server, bytes: &[u8]) -> Vec<String> {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(bytes).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("response line"))
        .collect()
}

#[test]
fn socket_answers_are_byte_identical_to_direct_advise() {
    let _g = lock_obs();
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    let lines = [
        query_line("s1", "Heat2D", 96),
        query_line("s2", "Jacobi2D", 96),
    ];
    let responses = roundtrip(&server, &lines);
    server.shutdown();
    assert_eq!(responses.len(), 2);

    let oracle = Advisor::with_defaults();
    for (line, response) in lines.iter().zip(&responses) {
        let q = Query::parse_line(line).unwrap();
        let direct = oracle.advise(&q).to_json_line();
        assert_eq!(*response, direct, "socket answer differs from direct API");
    }
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    let _g = lock_obs();
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    let lines = [
        "this is not json".to_string(),
        String::new(), // blank: ignored, no response slot
        query_line("ok", "Heat2D", 96),
        "{\"device\": \"no-such-gpu\", \"stencil\": \"Heat2D\", \"size\": [64, 64], \"time\": 8}"
            .to_string(),
    ];
    let responses = roundtrip(&server, &lines);
    server.shutdown();
    obs::uninstall();

    assert_eq!(responses.len(), 3, "one response per non-blank line");
    assert!(responses[0].starts_with("{\"error\":"), "{}", responses[0]);
    assert!(responses[1].contains("\"id\":\"ok\""), "{}", responses[1]);
    assert!(
        responses[2].contains("unknown device preset"),
        "{}",
        responses[2]
    );
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.query_errors"), 2);
    assert_eq!(snap.counter("advisor.queries"), 1);
    assert_eq!(snap.counter("advisor.connections"), 1);
}

#[test]
fn malformed_inline_descriptors_error_without_dropping_the_connection() {
    let _g = lock_obs();
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    // An inline descriptor with the wrong coefficient count, one with an
    // unknown footprint, one whose offset is i64::MIN (negating it
    // overflows), one whose coefficient is finite as f64 but infinite as
    // f32, then a well-formed inline star — proving the connection
    // survives descriptor validation failures.
    let bad_coeffs = "{\"id\": \"bc\", \"device\": \"GTX 980\", \"stencil\": \
         {\"name\": \"broken\", \"dim\": 2, \"coefficients\": [0.25, 0.25]}, \
         \"size\": [96, 96], \"time\": 8}";
    let bad_footprint = "{\"id\": \"bf\", \"device\": \"GTX 980\", \"stencil\": \
         {\"name\": \"hex\", \"dim\": 2, \"footprint\": \"hexagon\", \
          \"coefficients\": [0.2, 0.2, 0.2, 0.2, 0.2]}, \
         \"size\": [96, 96], \"time\": 8}";
    let far = "{\"id\": \"far\", \"device\": \"GTX 980\", \"stencil\": \
         {\"name\": \"far\", \"dim\": 1, \"offsets\": [[-9223372036854775808]], \
          \"coefficients\": [1.0]}, \
         \"size\": [96], \"time\": 8}";
    let huge = "{\"id\": \"huge\", \"device\": \"GTX 980\", \"stencil\": \
         {\"name\": \"huge\", \"dim\": 2, \
          \"coefficients\": [0.2, 0.2, 1e39, 0.2, 0.2]}, \
         \"size\": [96, 96], \"time\": 8}";
    let good = "{\"id\": \"inl\", \"device\": \"GTX 980\", \"stencil\": \
         {\"name\": \"mean5\", \"dim\": 2, \
          \"coefficients\": [0.2, 0.2, 0.2, 0.2, 0.2]}, \
         \"size\": [96, 96], \"time\": 8}";
    let lines = [bad_coeffs, bad_footprint, far, huge, good].map(String::from);
    let responses = roundtrip(&server, &lines);
    server.shutdown();
    obs::uninstall();

    assert_eq!(responses.len(), 5, "one response per line");
    assert!(responses[0].starts_with("{\"error\":"), "{}", responses[0]);
    assert!(
        responses[0].contains("invalid stencil descriptor"),
        "{}",
        responses[0]
    );
    assert!(responses[1].starts_with("{\"error\":"), "{}", responses[1]);
    assert!(responses[1].contains("'star' or 'box'"), "{}", responses[1]);
    assert!(responses[2].starts_with("{\"error\":"), "{}", responses[2]);
    assert!(
        responses[2].contains("Chebyshev radius"),
        "{}",
        responses[2]
    );
    assert!(responses[3].starts_with("{\"error\":"), "{}", responses[3]);
    assert!(responses[3].contains("is inf as f32"), "{}", responses[3]);
    assert!(
        responses[4].contains("\"id\":\"inl\"") && responses[4].contains("\"candidates\":"),
        "valid inline descriptor answered after the errors: {}",
        responses[4]
    );
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.query_errors"), 4);
    assert_eq!(snap.counter("advisor.queries"), 1);
}

#[test]
fn coalesced_duplicates_are_byte_identical_and_computed_once() {
    let _g = lock_obs();
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    // One worker and a generous batch window: concurrent duplicates
    // land in one batch deterministically.
    let server = start_server(
        Advisor::with_defaults(),
        ServerConfig {
            workers: 1,
            batch_window: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                writeln!(stream, "{}", query_line(&format!("c{i}"), "Heat2D", 96)).unwrap();
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let mut line = String::new();
                BufReader::new(stream).read_line(&mut line).unwrap();
                line.trim_end().to_string()
            })
        })
        .collect();
    let responses: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    server.shutdown();
    obs::uninstall();

    // Every client got its own id echoed on an otherwise byte-identical
    // answer — exactly what serial evaluation would have produced.
    let oracle = Advisor::with_defaults()
        .advise(&Query::parse_line(&query_line("c0", "Heat2D", 96)).unwrap())
        .to_json_line();
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(
            *r,
            oracle.replace("\"id\":\"c0\"", &format!("\"id\":\"c{i}\"")),
            "client {i}"
        );
    }
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.queries"), 1, "evaluated once");
    assert_eq!(snap.counter("advisor.coalesced"), 3, "three duplicates");
}

/// A cold validated query: validation runs the executor over the
/// within-band set, so its computation outlasts the parsing of the
/// lines sent with it.
fn validated_line(id: &str, extra: &str) -> String {
    format!(
        "{{\"id\": \"{id}\", \"device\": \"GTX 980\", \"stencil\": \"Heat2D\", \
         \"size\": [128, 128], \"time\": 16, \"validate\": true{extra}}}"
    )
}

/// `line`'s answer with the id and the measured winner cleared: the
/// winner of a validation run is a wall-clock measurement, so two runs
/// of one query may pick different ones.
fn without_measurements(line: &str) -> advisor::Advice {
    let mut a = advisor::Advice::from_value(&serde_json::from_str(line).unwrap()).unwrap();
    a.id = None;
    a.validation.as_mut().expect("validated").best = None;
    a
}

#[test]
fn duplicates_coalesce_in_flight_under_the_default_config() {
    let _g = lock_obs();
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    // No batch window: the three duplicates parsed while the first is
    // computing attach to its flight.
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    let lines: Vec<String> = (0..4)
        .map(|i| validated_line(&format!("v{i}"), ""))
        .collect();
    let responses = roundtrip(&server, &lines);
    server.shutdown();
    obs::uninstall();

    assert_eq!(responses.len(), 4);
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.queries"), 1, "evaluated once");
    assert_eq!(snap.counter("advisor.coalesced"), 3, "three duplicates");
    // One computation: the answers are byte-identical bar the id...
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(
            *r,
            responses[0].replace("\"id\":\"v0\"", &format!("\"id\":\"v{i}\"")),
            "line {i}"
        );
    }
    // ...and agree with a serial evaluation in all but measurement.
    let serial = Advisor::with_defaults()
        .advise(&Query::parse_line(&lines[0]).unwrap())
        .to_json_line();
    assert_eq!(
        without_measurements(&responses[0]),
        without_measurements(&serial)
    );
}

#[test]
fn a_patient_duplicate_never_inherits_a_hurried_flights_degraded_answer() {
    let _g = lock_obs();
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    // The first line's deadline expires at parse, so its flight
    // degrades; the second has none, so it may not attach to that
    // flight, however the two overlap.
    let lines = [
        validated_line("hurried", ", \"timeout_ms\": 0"),
        validated_line("patient", ""),
    ];
    let responses = roundtrip(&server, &lines);
    server.shutdown();
    assert_eq!(responses.len(), 2);
    assert!(
        responses[0].contains("\"degraded\":true"),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].contains("\"id\":\"patient\"") && !responses[1].contains("\"degraded\":true"),
        "{}",
        responses[1]
    );
}

#[test]
fn a_shed_miss_leaves_no_in_flight_state_behind() {
    let _g = lock_obs();
    // A queue of 1 on one worker, and the default per-connection cap: a
    // burst of distinct cold queries sheds at the queue, not the cap.
    let server = start_server(
        Advisor::with_defaults(),
        ServerConfig {
            workers: 1,
            queue_cap: 1,
            batch_window: Duration::ZERO,
            max_batch: 1,
            ..ServerConfig::default()
        },
    );
    let lines: Vec<String> = (0..20)
        .map(|i| query_line(&format!("b{i}"), "Heat2D", 64 + 2 * i))
        .collect();
    let responses = roundtrip(&server, &lines);
    let shed = responses
        .iter()
        .position(|r| r.contains("\"error\":\"overloaded\""))
        .expect("burst over a queue of 1 must shed");
    // Were the shed line still registered as in flight, its re-send
    // would attach to a computation nobody runs and never be answered:
    // the read timeout turns that hang into a failure.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    writeln!(stream, "{}", lines[shed]).unwrap();
    let mut again = String::new();
    BufReader::new(stream)
        .read_line(&mut again)
        .expect("the re-sent line is answered");
    server.shutdown();
    assert!(
        again.contains(&format!("\"id\":\"b{shed}\"")) && again.contains("\"candidates\":"),
        "{again}"
    );
}

#[test]
fn store_hits_serve_with_zero_model_evaluations() {
    let _g = lock_obs();
    // Precompute the answers outside telemetry...
    let universe = [
        query_line("p1", "Heat2D", 96),
        query_line("p2", "Heat2D", 128),
    ];
    let queries: Vec<Query> = universe
        .iter()
        .map(|l| Query::parse_line(l).unwrap())
        .collect();
    let precomputer = Advisor::with_defaults();
    let mut store = AnswerStore::empty(0x5EED, 16);
    assert_eq!(store.precompute(&precomputer, &queries), 2);

    // ...then serve them from a fresh advisor whose only warm tier is
    // the store.
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let server = start_server(
        Advisor::new(AdvisorConfig {
            store: Some(Arc::new(store)),
            ..AdvisorConfig::default()
        }),
        ServerConfig::default(),
    );
    let responses = roundtrip(&server, &universe);
    server.shutdown();
    obs::uninstall();

    assert_eq!(responses.len(), 2);
    for (line, response) in universe.iter().zip(&responses) {
        let direct = precomputer
            .advise(&Query::parse_line(line).unwrap())
            .to_json_line();
        assert_eq!(*response, direct, "store answer differs from computed");
    }
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.store_hits"), 2);
    assert_eq!(snap.counter("advisor.model_evals"), 0, "pure lookup");
    assert_eq!(snap.histogram("advisor.latency_ms.store").unwrap().count, 2);
}

#[test]
fn overload_sheds_with_an_explicit_response_instead_of_buffering() {
    let _g = lock_obs();
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    // A queue of 1 on one worker, and a per-connection cap of 2: a
    // burst of distinct (slow, cold) queries must shed most of itself.
    let server = start_server(
        Advisor::with_defaults(),
        ServerConfig {
            workers: 1,
            queue_cap: 1,
            conn_queue_cap: 2,
            batch_window: Duration::ZERO,
            max_batch: 1,
        },
    );
    let lines: Vec<String> = (0..20)
        .map(|i| query_line(&format!("b{i}"), "Heat2D", 64 + 2 * i))
        .collect();
    let responses = roundtrip(&server, &lines);
    server.shutdown();
    obs::uninstall();

    assert_eq!(responses.len(), 20, "every line gets exactly one response");
    let shed = responses
        .iter()
        .filter(|r| r.contains("\"error\":\"overloaded\""))
        .count();
    let answered = responses
        .iter()
        .filter(|r| r.contains("\"candidates\":"))
        .count();
    assert_eq!(shed + answered, 20);
    assert!(shed > 0, "burst over a queue of 1 must shed");
    assert!(answered > 0, "admitted queries still answered");
    // Shed responses carry the query's own id.
    let first_shed = responses
        .iter()
        .find(|r| r.contains("\"error\":\"overloaded\""))
        .unwrap();
    assert!(first_shed.contains("\"id\":\"b"), "{first_shed}");
    assert_eq!(snapshot_counter(&rec, "advisor.shed"), shed as u64);
}

fn snapshot_counter(rec: &obs::ShardedRecorder, name: &str) -> u64 {
    rec.snapshot().counter(name)
}

#[test]
fn deadline_is_anchored_at_arrival_so_queue_wait_degrades() {
    let _g = lock_obs();
    // timeout_ms 0 with validate: the deadline expires the moment the
    // line is parsed, so however fast the worker is, the answer must
    // degrade to the model-only ranking — never blow the budget.
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    let line = "{\"id\": \"dl\", \"device\": \"GTX 980\", \"stencil\": \"Heat2D\", \
                \"size\": [64, 64], \"time\": 8, \"validate\": true, \"timeout_ms\": 0}";
    let responses = roundtrip(&server, &[line.to_string()]);
    server.shutdown();
    assert_eq!(responses.len(), 1);
    assert!(
        responses[0].contains("\"degraded\":true"),
        "{}",
        responses[0]
    );
    assert!(
        responses[0].contains("\"candidates\":[{\"rank\":0"),
        "model ranking still served: {}",
        responses[0]
    );
}

/// A store holding the answer to each of `lines`, precomputed by
/// `advisor`.
fn store_of(advisor: &Advisor, lines: &[String]) -> AnswerStore {
    let queries: Vec<Query> = lines
        .iter()
        .map(|l| Query::parse_line(l).unwrap())
        .collect();
    let mut store = AnswerStore::empty(0x5EED, 16);
    assert_eq!(store.precompute(advisor, &queries), queries.len());
    store
}

#[test]
fn hits_overtaking_misses_keep_input_order_and_bytes() {
    let _g = lock_obs();
    let oracle = Advisor::with_defaults();
    let b = "{\"device\": \"GTX 980\", \"stencil\": \"Heat2D\", \"size\": [128, 128], \"time\": 8}";
    let store = store_of(&oracle, &[b.to_string()]);

    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    // A long window holds the cold miss in the queue while the hits
    // behind it are answered on the reader.
    let server = start_server(
        Advisor::new(AdvisorConfig {
            store: Some(Arc::new(store)),
            ..AdvisorConfig::default()
        }),
        ServerConfig {
            workers: 1,
            batch_window: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    );
    let lines = [
        query_line("a1", "Jacobi2D", 96),    // cold miss
        b.to_string(),                       // store hit, no id
        "{\"device\": ".to_string(),         // malformed
        b.replace("{", "{\"id\": \"b2\", "), // store hit, with an id
        query_line("a2", "Jacobi2D", 96),    // the miss again
    ];
    let responses = roundtrip(&server, &lines);
    server.shutdown();
    obs::uninstall();

    assert_eq!(responses.len(), 5);
    for i in [0, 1, 3, 4] {
        let serial = oracle.advise(&Query::parse_line(&lines[i]).unwrap());
        assert_eq!(responses[i], serial.to_json_line(), "line {i}");
    }
    assert!(responses[2].starts_with("{\"error\":"), "{}", responses[2]);
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.model_evals"), 1);
    assert_eq!(snap.counter("advisor.store_hits"), 2);
    assert_eq!(snap.counter("advisor.query_errors"), 1);
}

#[test]
fn oversized_line_gets_an_error_and_the_next_query_its_answer() {
    let _g = lock_obs();
    let rec = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(rec.clone());
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    // 1 MiB of a JSON string: it would parse if it were read whole.
    let long = format!("{{\"id\": \"{}\"}}", "x".repeat(1 << 20));
    let ok = query_line("after", "Heat2D", 96);
    let responses = roundtrip(&server, &[long, ok.clone()]);
    server.shutdown();
    obs::uninstall();

    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0], "{\"error\":\"line too long\"}");
    let direct = Advisor::with_defaults().advise(&Query::parse_line(&ok).unwrap());
    assert_eq!(responses[1], direct.to_json_line());
    let snap = rec.snapshot();
    assert_eq!(snap.counter("advisor.line_too_long"), 1);
    assert_eq!(snap.counter("advisor.query_errors"), 0);
}

#[test]
fn line_edges_a_line_at_the_cap_is_read_and_bad_utf8_is_an_error() {
    let _g = lock_obs();
    let server = start_server(Advisor::with_defaults(), ServerConfig::default());
    // Leading blanks bring the line to exactly the cap; one more blank
    // (a line that would otherwise be skipped as blank) is over it.
    let q = query_line("cap", "Heat2D", 96);
    let mut input = " ".repeat(MAX_LINE_BYTES - q.len()).into_bytes();
    input.extend_from_slice(format!("{q}\n").as_bytes());
    input.extend_from_slice(" ".repeat(MAX_LINE_BYTES + 1).as_bytes());
    input.extend_from_slice(b"\n{\"id\": \"\xff\xfe\"}\n");
    input.extend_from_slice(query_line("end", "Heat2D", 96).as_bytes()); // unterminated
    let responses = roundtrip_bytes(&server, &input);
    server.shutdown();
    assert_eq!(responses.len(), 4);
    assert!(responses[0].contains("\"id\":\"cap\""), "{}", responses[0]);
    assert_eq!(responses[1], "{\"error\":\"line too long\"}");
    assert_eq!(responses[2], "{\"error\":\"line is not valid UTF-8\"}");
    assert!(responses[3].contains("\"id\":\"end\""), "{}", responses[3]);
}

/// Characters an echoed id may hold that JSON must escape, or that are
/// multi-byte in UTF-8.
const ID_CHARS: &[char] = &[
    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€',
    '\u{2028}', '😀',
];

fn ids() -> impl Strategy<Value = Option<String>> {
    (0u8..6, prop::collection::vec(0..ID_CHARS.len(), 0..10)).prop_map(|(tag, chars)| {
        (tag > 0).then(|| chars.into_iter().map(|i| ID_CHARS[i]).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spliced_store_lines_equal_serialized_answers(id in ids()) {
        static SETUP: OnceLock<(Advisor, AnswerStore, Query)> = OnceLock::new();
        let (advisor, store, q) = SETUP.get_or_init(|| {
            let advisor = Advisor::with_defaults();
            let line = query_line("x", "Heat2D", 64);
            let store = store_of(&advisor, std::slice::from_ref(&line));
            (advisor, store, Query::parse_line(&line).unwrap())
        });
        let mut q = q.clone();
        q.id = id;
        let spliced = store.line(&advisor.canonical_key(&q), q.id.as_deref()).unwrap();
        prop_assert_eq!(spliced, advisor.advise(&q).to_json_line());
    }
}
