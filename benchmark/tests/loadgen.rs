//! The open-loop generator against stalling fake servers: latency counts
//! from each request's due time, and a generator that falls behind its
//! schedule says so.

use hhc_benchmark::loadgen::{open_loop, Rung};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::thread;
use std::time::Duration;

/// A one-connection server answering `{}` per line, after sleeping
/// `stall_before_read` once and `stall_at.1` before answering line
/// `stall_at.0`.
fn fake_server(
    stall_before_read: Duration,
    stall_at: (usize, Duration),
) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut w = stream.try_clone().expect("clone");
        thread::sleep(stall_before_read);
        for (i, line) in BufReader::new(stream).lines().enumerate() {
            if line.is_err() {
                break;
            }
            if i == stall_at.0 {
                thread::sleep(stall_at.1);
            }
            if writeln!(w, "{{}}").is_err() {
                break;
            }
        }
    });
    (addr, handle)
}

#[test]
fn latency_counts_from_the_due_time_through_a_server_stall() {
    // 1000 requests/s for 0.5 s; the server stalls 200 ms at request 10.
    let (addr, server) = fake_server(Duration::ZERO, (10, Duration::from_millis(200)));
    let lines = vec!["q".to_string()];
    let rungs = [Rung {
        rate: 1000.0,
        duration: Duration::from_millis(500),
    }];
    let out = open_loop(
        addr,
        &lines,
        &rungs,
        &mut || 0,
        &|_, _| true,
        Duration::from_secs(10),
    )
    .expect("run the open loop");
    server.join().expect("server thread");
    assert_eq!((out.sent, out.answered, out.missing), (500, 500, 0));
    // Request 10 waits out the whole stall; request 110, due 100 ms
    // into it, still waits for the rest of it: its latency runs from
    // when it was due, not from when the server got to it.
    assert!(out.latency_ms[10] >= 190.0, "{}", out.latency_ms[10]);
    assert!(
        (80.0..200.0).contains(&out.latency_ms[110]),
        "{}",
        out.latency_ms[110]
    );
    // The stall backed up the requests behind it in order.
    assert!(out.latency_ms[10] > out.latency_ms[110]);
    assert!(out.latency_ms[110] > out.latency_ms[400]);
}

#[test]
fn a_generator_behind_schedule_reports_its_lateness() {
    // 1 MiB requests against a server that reads nothing for 300 ms:
    // the socket buffers fill and the sender blocks behind schedule.
    let (addr, server) = fake_server(Duration::from_millis(300), (usize::MAX, Duration::ZERO));
    let lines = vec!["x".repeat(1 << 20)];
    let rungs = [Rung {
        rate: 100.0,
        duration: Duration::from_millis(500),
    }];
    let out = open_loop(
        addr,
        &lines,
        &rungs,
        &mut || 0,
        &|_, _| true,
        Duration::from_secs(10),
    )
    .expect("run the open loop");
    server.join().expect("server thread");
    assert_eq!((out.sent, out.answered, out.missing), (50, 50, 0));
    let worst = out.late_ms.iter().copied().fold(0.0f32, f32::max);
    assert!(worst >= 50.0, "generator lateness {worst} ms not reported");
    // A late send still counts from its due time.
    for (lat, late) in out.latency_ms.iter().zip(&out.late_ms) {
        assert!(lat >= late, "latency {lat} < lateness {late}");
    }
}

#[test]
fn wrong_answers_are_counted() {
    let (addr, server) = fake_server(Duration::ZERO, (usize::MAX, Duration::ZERO));
    let lines = vec!["a".to_string(), "b".to_string()];
    let rungs = [Rung {
        rate: 1000.0,
        duration: Duration::from_millis(20),
    }];
    let mut i = 0;
    let mut next = move || {
        i += 1;
        i % 2
    };
    // The check rejects every answer to key 1.
    let out = open_loop(
        addr,
        &lines,
        &rungs,
        &mut next,
        &|key, _| key == 0,
        Duration::from_secs(10),
    )
    .expect("run the open loop");
    server.join().expect("server thread");
    assert_eq!(out.answered, 20);
    assert_eq!(out.wrong, 10);
}
