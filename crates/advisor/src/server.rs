//! The concurrent socket front end: many JSON-lines connections, one
//! advisor.
//!
//! `experiments serve --listen ADDR` runs this server. Each accepted
//! connection gets a reader thread (reads and parses lines, answers
//! warm hits, admits misses) and a writer thread (delivers answers back
//! **in input order**); a shared worker pool drains one bounded queue
//! of distinct in-flight misses. The moving parts, and the load-shedding
//! story:
//!
//! * **Hits answered on the reader** — the reader computes each query's
//!   canonical key and probes the answer store and the in-memory cache
//!   itself. A hit is answered on the spot: a store hit is the echoed
//!   `id` spliced onto the entry's pre-serialized bytes, with no queue,
//!   no worker hand-off and no coalescing window. Only misses go on to
//!   the miss path, carrying the key the reader already computed.
//! * **Bounded admission** — the global queue and a per-connection
//!   outstanding-line cap are both hard bounds. A line that would
//!   exceed either is *shed* immediately with an explicit
//!   `{"error":"overloaded", ...}` response (counted on
//!   `advisor.shed`) instead of buffering without bound; the client
//!   sees backpressure as data, not as silence. The per-connection cap
//!   applies to hits too.
//! * **Bounded lines** — a line longer than [`MAX_LINE_BYTES`] gets
//!   `{"error":"line too long"}` in its slot (counted on
//!   `advisor.line_too_long`); the rest of it is discarded unread into
//!   memory and the connection survives.
//! * **Cross-client coalescing of misses** — coalescing happens at
//!   admission, while a miss is in flight: an in-flight registry maps
//!   each queued or computing canonical key to the lines waiting on it.
//!   A miss whose key is already in flight attaches to that computation
//!   instead of queueing (counted on `advisor.coalesced`, which
//!   therefore counts coalesced misses only), whoever sent it; the
//!   worker that computes the key answers every waiter, byte-identical
//!   to a serially computed answer bar the echoed `id`. Nothing waits
//!   for duplicates to arrive: `batch_window` defaults to zero, so a
//!   lone miss starts as soon as a worker is free.
//! * **Deadlines from arrival** — a query's `timeout_ms` clock starts
//!   when the line is parsed, so time spent waiting in the queue
//!   counts against it: under load a deadlined validation query
//!   degrades to the model-only ranking rather than blowing its
//!   budget. A miss attaches to an in-flight computation only when that
//!   computation's deadline is at least as permissive as its own (none,
//!   or no earlier); otherwise it is computed separately, so a patient
//!   query never inherits a hurried one's degraded answer.
//! * **Malformed input** — a bad line gets an `{"error": ...}`
//!   response in its slot (the same shared per-line handling as the
//!   stdin and `--queries` modes, counting `advisor.query_errors`);
//!   the connection survives.

use crate::serve::{error_line, overloaded_line, parse_slot};
use crate::{Advisor, Query};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Longest input line the server reads, in bytes (terminator
/// excluded); a longer line is answered with an error and skipped.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the shared queue.
    pub workers: usize,
    /// Bound of the shared work queue; an admission beyond it sheds.
    pub queue_cap: usize,
    /// Bound on unanswered lines per connection; beyond it, sheds.
    pub conn_queue_cap: usize,
    /// How long a worker tops up a non-full batch before running it.
    /// Zero (the default) disables the wait: a worker takes whatever is
    /// queued and runs. Duplicates coalesce at admission either way.
    pub batch_window: Duration,
    /// Most requests a worker evaluates per batch.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().max(2)),
            queue_cap: 1024,
            conn_queue_cap: 128,
            batch_window: Duration::ZERO,
            max_batch: 64,
        }
    }
}

/// One admitted miss waiting for a worker. Who receives its answer is
/// the in-flight registry's business, not the request's.
struct Request {
    query: Query,
    /// The query's canonical key, computed once on the reader.
    key: String,
    /// Absolute deadline, anchored at parse time (queue wait counts).
    deadline: Option<Instant>,
}

/// A line waiting for an in-flight computation's answer.
struct Waiter {
    id: Option<String>,
    conn: Arc<Conn>,
    seq: u64,
}

/// One computation of a key, queued or running, and its waiters.
struct Flight {
    /// The deadline it computes under. A key's concurrent flights have
    /// distinct deadlines (a newcomer with an equal one attaches), so
    /// the deadline also names the flight.
    deadline: Option<Instant>,
    waiters: Vec<Waiter>,
}

/// Whether a computation under `flight` serves a line due at `wanted`:
/// it has no deadline, or one no earlier than the line's.
fn covers(flight: Option<Instant>, wanted: Option<Instant>) -> bool {
    flight.is_none_or(|f| wanted.is_some_and(|w| f >= w))
}

/// The miss path: the bounded work queue and the in-flight registry
/// of the keys it holds or its workers are computing.
struct Misses {
    queue: Queue,
    flights: Mutex<HashMap<String, Vec<Flight>>>,
}

impl Misses {
    /// Attach a miss to a covering in-flight computation of its key, or
    /// queue and register a new one; shed it when the queue is full.
    /// The registry lock is held across the push, so a worker cannot
    /// land the flight before it is registered, and a shed miss leaves
    /// nothing behind.
    fn admit(&self, request: Request, waiter: Waiter) {
        let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(f) = flights.get_mut(&request.key).and_then(|same_key| {
            same_key
                .iter_mut()
                .find(|f| covers(f.deadline, request.deadline))
        }) {
            f.waiters.push(waiter);
            if obs::active() {
                obs::counter("advisor.coalesced", 1);
            }
            return;
        }
        let (key, deadline) = (request.key.clone(), request.deadline);
        if !self.queue.try_push(request) {
            drop(flights);
            obs::counter("advisor.shed", 1);
            waiter
                .conn
                .complete(waiter.seq, overloaded_line(waiter.id.as_deref()));
            return;
        }
        flights.entry(key).or_default().push(Flight {
            deadline,
            waiters: vec![waiter],
        });
    }

    /// Unregister the flight of `key` under `deadline`, handing back
    /// everyone waiting on it.
    fn land(&self, key: &str, deadline: Option<Instant>) -> Vec<Waiter> {
        let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
        let Some(same_key) = flights.get_mut(key) else {
            return Vec::new();
        };
        let waiters = match same_key.iter().position(|f| f.deadline == deadline) {
            Some(i) => same_key.swap_remove(i).waiters,
            None => Vec::new(),
        };
        if same_key.is_empty() {
            flights.remove(key);
        }
        waiters
    }
}

/// The shared bounded work queue (mutex + condvars; `try_push` never
/// blocks — over capacity is the caller's signal to shed).
struct Queue {
    state: Mutex<QueueState>,
    /// Signaled on push and on close.
    ready: Condvar,
    cap: usize,
}

struct QueueState {
    items: VecDeque<Request>,
    closed: bool,
}

impl Queue {
    fn new(cap: usize) -> Queue {
        Queue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admit `r`, or report false when the queue is at capacity (the
    /// caller sheds).
    fn try_push(&self, r: Request) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.closed || s.items.len() >= self.cap {
            return false;
        }
        s.items.push_back(r);
        drop(s);
        self.ready.notify_one();
        true
    }

    /// Block for the first request, then top the batch up to `max` for
    /// at most `window`. An empty vector means the queue was closed and
    /// fully drained — the worker should exit.
    fn pop_batch(&self, max: usize, window: Duration) -> Vec<Request> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !s.items.is_empty() {
                break;
            }
            if s.closed {
                return Vec::new();
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        let mut batch = Vec::with_capacity(max.min(s.items.len()));
        while batch.len() < max {
            match s.items.pop_front() {
                Some(r) => batch.push(r),
                None => break,
            }
        }
        if batch.len() < max && !window.is_zero() {
            let top_up_until = Instant::now() + window;
            loop {
                let now = Instant::now();
                if now >= top_up_until || s.closed {
                    break;
                }
                if s.items.is_empty() {
                    let (guard, _) = self
                        .ready
                        .wait_timeout(s, top_up_until - now)
                        .unwrap_or_else(|e| e.into_inner());
                    s = guard;
                }
                while batch.len() < max {
                    match s.items.pop_front() {
                        Some(r) => batch.push(r),
                        None => break,
                    }
                }
                if batch.len() >= max {
                    break;
                }
            }
        }
        batch
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// Per-connection response state: answers complete in any order (hits
/// on the reader overtake misses, and workers interleave connections)
/// but are written strictly in input-line order via a seq-indexed
/// reorder buffer.
struct Conn {
    /// Unanswered admitted lines — the per-connection backpressure bound.
    outstanding: AtomicUsize,
    out: Mutex<Outbox>,
    ready: Condvar,
}

struct Outbox {
    /// Next seq the writer will emit.
    next_write: u64,
    /// Completed answers waiting for their turn.
    done: HashMap<u64, String>,
    /// Total lines the reader admitted, fixed at connection EOF.
    total: Option<u64>,
}

impl Conn {
    fn new() -> Arc<Conn> {
        Arc::new(Conn {
            outstanding: AtomicUsize::new(0),
            out: Mutex::new(Outbox {
                next_write: 0,
                done: HashMap::new(),
                total: None,
            }),
            ready: Condvar::new(),
        })
    }

    /// Deliver the response line for input line `seq`.
    fn complete(&self, seq: u64, line: String) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        out.done.insert(seq, line);
        drop(out);
        self.ready.notify_one();
    }

    /// The reader reached EOF after `total` lines.
    fn finish(&self, total: u64) {
        self.out.lock().unwrap_or_else(|e| e.into_inner()).total = Some(total);
        self.ready.notify_one();
    }
}

/// A running server. Dropping without [`shutdown`](Server::shutdown)
/// leaks the listener thread (the process usually exits right after);
/// tests and the bench call `shutdown` for a clean join.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    misses: Arc<Misses>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
}

impl Server {
    /// Bind the worker pool and acceptor over `listener` and return.
    /// The server runs until [`shutdown`](Server::shutdown).
    pub fn start(
        advisor: Arc<Advisor>,
        listener: TcpListener,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let misses = Arc::new(Misses {
            queue: Queue::new(cfg.queue_cap),
            flights: Mutex::new(HashMap::new()),
        });
        // Live connections, by id, so `shutdown` can force-close them.
        // A connection removes itself when it finishes — the registry
        // must not hold a duplicate handle past that point, or the
        // client would never see EOF.
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));

        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let advisor = Arc::clone(&advisor);
                let misses = Arc::clone(&misses);
                let cfg = cfg.clone();
                std::thread::spawn(move || worker_loop(&advisor, &misses, &cfg))
            })
            .collect();

        let acceptor = {
            let stop = Arc::clone(&stop);
            let misses = Arc::clone(&misses);
            let conns = Arc::clone(&conns);
            let advisor = Arc::clone(&advisor);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut next_id = 0u64;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    obs::counter("advisor.connections", 1);
                    let id = next_id;
                    next_id += 1;
                    if let Ok(handle) = stream.try_clone() {
                        conns
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .insert(id, handle);
                    }
                    let advisor = Arc::clone(&advisor);
                    let misses = Arc::clone(&misses);
                    let cfg = cfg.clone();
                    let conns = Arc::clone(&conns);
                    std::thread::spawn(move || {
                        serve_connection(stream, &advisor, &misses, &cfg);
                        conns.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
                    });
                }
            })
        };

        Ok(Server {
            addr,
            stop,
            misses,
            acceptor: Some(acceptor),
            workers,
            conns,
        })
    }

    /// The bound address (useful with a `:0` ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, force-close open connections, drain the queue,
    /// and join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `incoming()`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for stream in self
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        self.misses.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Reader + writer of one connection. Runs on the reader's thread; the
/// writer is spawned here and joined before returning.
fn serve_connection(stream: TcpStream, advisor: &Advisor, misses: &Misses, cfg: &ServerConfig) {
    let _span = obs::span("advisor.connection", "advisor");
    let conn = Conn::new();
    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = {
        let conn = Arc::clone(&conn);
        std::thread::spawn(move || write_loop(&conn, write_stream))
    };

    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut seq = 0u64;
    loop {
        let parsed = match read_line(&mut reader, &mut buf) {
            Ok(Line::Eof) | Err(_) => break,
            Ok(Line::TooLong) => {
                obs::counter("advisor.line_too_long", 1);
                Err("line too long".to_string())
            }
            Ok(Line::Read) => match std::str::from_utf8(&buf) {
                Ok(text) => match parse_slot(text) {
                    Some(parsed) => parsed,
                    None => continue, // blank line
                },
                Err(_) => {
                    obs::counter("advisor.query_errors", 1);
                    Err("line is not valid UTF-8".to_string())
                }
            },
        };
        // Backpressure: the per-connection bound is checked before
        // admission, the queue's at the push.
        let over_cap = conn.outstanding.load(Ordering::SeqCst) >= cfg.conn_queue_cap;
        conn.outstanding.fetch_add(1, Ordering::SeqCst);
        match parsed {
            Err(msg) => conn.complete(seq, error_line(&msg)),
            Ok(query) if over_cap => {
                obs::counter("advisor.shed", 1);
                conn.complete(seq, overloaded_line(query.id.as_deref()));
            }
            Ok(query) => admit(advisor, misses, &conn, seq, query),
        }
        seq += 1;
    }
    conn.finish(seq);
    let _ = writer.join();
}

/// Answer a warm hit on the spot; hand a miss to the miss path.
fn admit(advisor: &Advisor, misses: &Misses, conn: &Arc<Conn>, seq: u64, query: Query) {
    let t0 = Instant::now();
    let key = advisor.canonical_key(&query);
    if let Some(hit) = advisor.warm(&key, t0) {
        conn.complete(seq, hit.line(query.id.as_deref()));
        return;
    }
    let waiter = Waiter {
        id: query.id.clone(),
        conn: Arc::clone(conn),
        seq,
    };
    let deadline = query.timeout_ms.map(|ms| t0 + Duration::from_millis(ms));
    misses.admit(
        Request {
            query,
            key,
            deadline,
        },
        waiter,
    );
}

/// What [`read_line`] found.
enum Line {
    /// A line of at most [`MAX_LINE_BYTES`], now in the buffer.
    Read,
    /// A longer line, discarded through its terminator.
    TooLong,
    /// End of input.
    Eof,
}

/// Read the next line, without its `\n`, into `buf`, holding at most
/// [`MAX_LINE_BYTES`] + 1 bytes of it in memory.
fn read_line(r: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Line> {
    buf.clear();
    let n = r
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        return Ok(Line::Read);
    }
    if buf.len() <= MAX_LINE_BYTES {
        return Ok(Line::Read); // the last line, unterminated
    }
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                r.consume(i + 1);
                break;
            }
            None => {
                let len = chunk.len();
                r.consume(len);
            }
        }
    }
    Ok(Line::TooLong)
}

/// Drain completed answers to the socket in input order. Every ready
/// run of consecutive answers goes out under one flush — at high
/// pipelining depth this collapses per-response syscalls into one per
/// wakeup.
fn write_loop(conn: &Conn, stream: TcpStream) {
    let mut w = BufWriter::new(stream);
    let mut ready = Vec::new();
    let mut out = conn.out.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        loop {
            let next = out.next_write;
            match out.done.remove(&next) {
                Some(line) => {
                    out.next_write += 1;
                    ready.push(line);
                }
                None => break,
            }
        }
        if !ready.is_empty() {
            drop(out);
            for line in ready.drain(..) {
                if writeln!(w, "{line}").is_err() {
                    return; // client went away; workers still drain safely
                }
                conn.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
            if w.flush().is_err() {
                return;
            }
            out = conn.out.lock().unwrap_or_else(|e| e.into_inner());
            continue;
        }
        if out.total == Some(out.next_write) {
            // Every admitted line answered and written: half-close so a
            // read-to-EOF client unblocks even if another handle to the
            // socket is still alive somewhere.
            let _ = w.get_ref().shutdown(std::net::Shutdown::Write);
            return;
        }
        out = conn.ready.wait(out).unwrap_or_else(|e| e.into_inner());
    }
}

/// One worker: pop a batch of distinct in-flight misses, compute each,
/// and answer everyone who attached to it meanwhile.
fn worker_loop(advisor: &Advisor, misses: &Misses, cfg: &ServerConfig) {
    loop {
        let batch = misses.queue.pop_batch(cfg.max_batch, cfg.batch_window);
        if batch.is_empty() {
            return; // closed and drained
        }
        for r in batch {
            let answer = advisor.advise_keyed(&r.query, &r.key, Instant::now(), r.deadline);
            // Serialize once; a waiter only pays for its own
            // serialization when its echoed id differs (candidate
            // float formatting dominates the response cost).
            let base_line = answer.to_json_line();
            for w in misses.land(&r.key, r.deadline) {
                let line = if w.id == answer.id {
                    base_line.clone()
                } else {
                    let mut a = answer.clone();
                    a.id = w.id;
                    a.to_json_line()
                };
                w.conn.complete(w.seq, line);
            }
        }
    }
}
