//! Load generators for the serve workloads: an open loop that sends on
//! a schedule whatever the server does, and a closed loop whose clients
//! wait for replies.
//!
//! The open loop times every request from when it was *due*, not from
//! when it was sent: a stalled server delays the sends queued behind the
//! stall, and that wait belongs to the requests' latency. How late the
//! generator itself ran is reported beside it, so a run whose generator
//! could not keep the schedule is visible as such.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A check on one answered reply line (trailing newline removed), by
/// the index of the request's line.
pub type Check<'a> = &'a (dyn Fn(usize, &str) -> bool + Sync);

/// What a connection saw. Latencies are in reply order, which is send
/// order (the server answers each connection in input order).
#[derive(Debug, Default)]
pub struct Outcome {
    pub sent: usize,
    pub answered: usize,
    /// Explicit `{"error":"overloaded"}` backpressure replies.
    pub shed: usize,
    /// Any other `{"error": ...}` reply.
    pub errors: usize,
    /// Answered replies that failed the output check.
    pub wrong: usize,
    /// Requests with no reply when the connection ended.
    pub missing: usize,
    /// Reply positions of the shed and error replies.
    pub failed_at: Vec<usize>,
    /// Per-reply latency, ms.
    pub latency_ms: Vec<f32>,
    /// Per-reply generator lateness, ms (open loop only).
    pub late_ms: Vec<f32>,
    /// From the start of the load to the last reply, s.
    pub wall_s: f64,
}

impl Outcome {
    /// Requests that did not get a correct answer.
    pub fn failed(&self) -> usize {
        self.shed + self.errors + self.missing
    }

    pub fn merge(&mut self, other: Outcome) {
        let offset = self.latency_ms.len();
        self.sent += other.sent;
        self.answered += other.answered;
        self.shed += other.shed;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.missing += other.missing;
        self.failed_at
            .extend(other.failed_at.iter().map(|i| i + offset));
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    /// Classify one reply; its latency has just been pushed.
    fn record(&mut self, line: &str, key: usize, verify: &mut Verify<'_>) {
        let at = self.latency_ms.len() - 1;
        if line.starts_with("{\"error\":\"overloaded\"") {
            self.shed += 1;
            self.failed_at.push(at);
        } else if line.starts_with("{\"error\":") {
            self.errors += 1;
            self.failed_at.push(at);
        } else {
            self.answered += 1;
            if !verify.ok(key, line) {
                self.wrong += 1;
            }
        }
    }
}

/// The caller's check, memoized per connection: once a key's reply has
/// passed, later replies for that key only need a byte comparison.
struct Verify<'a> {
    check: Check<'a>,
    passed: Vec<Option<Box<str>>>,
}

impl<'a> Verify<'a> {
    fn new(check: Check<'a>, keys: usize) -> Verify<'a> {
        Verify {
            check,
            passed: vec![None; keys],
        }
    }

    fn ok(&mut self, key: usize, line: &str) -> bool {
        if let Some(known) = &self.passed[key] {
            return **known == *line;
        }
        let ok = (self.check)(key, line);
        if ok {
            self.passed[key] = Some(line.into());
        }
        ok
    }
}

fn ms(d: Duration) -> f32 {
    (d.as_secs_f64() * 1e3) as f32
}

fn connect(addr: SocketAddr, idle_timeout: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(idle_timeout))?;
    Ok(stream)
}

/// One rung of an open-loop schedule: `rate` requests per second for
/// `duration`.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate: f64,
    pub duration: Duration,
}

impl Rung {
    /// Requests this rung sends.
    pub fn count(&self) -> usize {
        (self.rate * self.duration.as_secs_f64()).round() as usize
    }
}

/// Send `lines[next_key()]` over one connection on the rungs' schedule
/// (request `i` of a rung at rate `r` is due `i / r` seconds after the
/// rung starts), with a sender thread that never waits for replies and
/// a receiver on the calling thread. A reply not arriving within
/// `idle_timeout` ends the run; the requests still unanswered count as
/// missing.
pub fn open_loop(
    addr: SocketAddr,
    lines: &[String],
    rungs: &[Rung],
    next_key: &mut (dyn FnMut() -> usize + Send),
    check: Check<'_>,
    idle_timeout: Duration,
) -> io::Result<Outcome> {
    let stream = connect(addr, idle_timeout)?;
    let write_half = stream.try_clone()?;
    let (tx, rx) = mpsc::channel::<(Instant, f32, usize)>();
    let mut out = Outcome::default();
    let mut verify = Verify::new(check, lines.len());
    let start = Instant::now();
    std::thread::scope(|scope| {
        // Returns how many requests went out; a write error (the receiver
        // gave up and closed the socket) ends the schedule early.
        let sender = scope.spawn(move || {
            let mut w = BufWriter::new(write_half);
            let mut sent = 0usize;
            let mut rung_start = start;
            'schedule: for rung in rungs {
                for i in 0..rung.count() {
                    let due = rung_start + Duration::from_secs_f64(i as f64 / rung.rate);
                    let now = Instant::now();
                    if due > now {
                        // Push out what is queued before sleeping.
                        if w.flush().is_err() {
                            break 'schedule;
                        }
                        std::thread::sleep(due - now);
                    }
                    let late = ms(Instant::now().saturating_duration_since(due));
                    let key = next_key();
                    let line = lines[key].as_bytes();
                    if tx.send((due, late, key)).is_err()
                        || w.write_all(line).and_then(|()| w.write_all(b"\n")).is_err()
                    {
                        break 'schedule;
                    }
                    sent += 1;
                }
                rung_start += rung.duration;
            }
            let _ = w.flush();
            let _ = w.get_ref().shutdown(Shutdown::Write);
            sent
        });

        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => break,
            }
            let now = Instant::now();
            let Ok((due, late, key)) = rx.recv() else {
                break;
            };
            out.wall_s = (now - start).as_secs_f64();
            out.latency_ms.push(ms(now.saturating_duration_since(due)));
            out.late_ms.push(late);
            out.record(line.trim_end(), key, &mut verify);
        }
        // Unblock a sender stuck writing to a server that stopped reading.
        drop(rx);
        let _ = stream.shutdown(Shutdown::Both);
        out.sent = sender.join().expect("sender thread");
    });
    let received = out.answered + out.shed + out.errors;
    out.missing = out.sent.saturating_sub(received);
    Ok(out)
}

/// A server that answers every line at once with `reply`: the load
/// generator and the loopback sockets with no server work behind them.
/// It serves `connections` connections, each until its client closes,
/// and then its thread ends.
pub fn null_server(
    reply: &str,
    connections: usize,
) -> io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let reply = format!("{reply}\n");
    let handle = std::thread::spawn(move || {
        std::thread::scope(|scope| {
            for _ in 0..connections {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let reply = reply.as_bytes();
                scope.spawn(move || {
                    // A client that goes away ends its connection.
                    let _ = answer_each_line(stream, reply);
                });
            }
        });
    });
    Ok((addr, handle))
}

fn answer_each_line(stream: TcpStream, reply: &[u8]) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut w = BufWriter::new(stream);
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 {
        line.clear();
        w.write_all(reply)?;
        // Flush once the lines already received are all answered.
        if reader.buffer().is_empty() {
            w.flush()?;
        }
    }
    w.flush()
}

/// One client of a closed loop: keep up to `pipeline` requests in
/// flight, sending `lines[next_key()]` until `until`, then drain. Each
/// request is timed from its send.
pub fn closed_loop(
    addr: SocketAddr,
    lines: &[String],
    next_key: &mut dyn FnMut() -> usize,
    pipeline: usize,
    until: Instant,
    check: Check<'_>,
    idle_timeout: Duration,
) -> io::Result<Outcome> {
    let stream = connect(addr, idle_timeout)?;
    let mut w = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(&stream);
    let mut verify = Verify::new(check, lines.len());
    let mut in_flight: VecDeque<(Instant, usize)> = VecDeque::with_capacity(pipeline);
    let mut out = Outcome::default();
    let mut line = String::new();
    let start = Instant::now();
    let mut read_one = |out: &mut Outcome, in_flight: &mut VecDeque<(Instant, usize)>| {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                let (sent_at, key) = in_flight.pop_front().expect("reply without a request");
                out.wall_s = start.elapsed().as_secs_f64();
                out.latency_ms.push(ms(sent_at.elapsed()));
                out.record(line.trim_end(), key, &mut verify);
                true
            }
            _ => false,
        }
    };
    let mut alive = true;
    while alive && Instant::now() < until {
        if in_flight.len() >= pipeline.max(1) {
            w.flush()?;
            alive = read_one(&mut out, &mut in_flight);
            continue;
        }
        let key = next_key();
        in_flight.push_back((Instant::now(), key));
        w.write_all(lines[key].as_bytes())?;
        w.write_all(b"\n")?;
        out.sent += 1;
    }
    w.flush()?;
    let _ = stream.shutdown(Shutdown::Write);
    while alive && !in_flight.is_empty() {
        alive = read_one(&mut out, &mut in_flight);
    }
    out.missing = in_flight.len();
    Ok(out)
}
