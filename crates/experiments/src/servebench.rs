//! The serve benchmark: load generation and reporting behind
//! `experiments serve-bench`.
//!
//! The command spawns (or connects to) the advisor's socket server and
//! replays a zipf-skewed stream of queries over N concurrent
//! pipelined connections — the traffic shape of a multi-tenant
//! advisory service, where a few hot (device, stencil, size) cells
//! dominate. Everything here is deterministic for a fixed seed: the
//! key universe, the per-connection sample sequence, and the
//! classification of responses. Only the measured times vary run to
//! run, which is why `bench-diff` gates the *ratio* metrics (hit
//! rates, answered rate, warm speedup) and never raw QPS.

use gpu_sim::DeviceConfig;
use rand::prelude::*;
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;
use stencil_core::StencilDescriptor;

/// The JSON-lines request for one (device, stencil, size, time) cell —
/// the wire twin of one `advisor::grid_queries` entry: the server
/// parses this line back into the same canonical key the precompute
/// grid produced, because the preset name resolves to the identical
/// `DeviceConfig` and `within`/`top_n` ride on their documented
/// defaults.
pub fn query_jsonl(
    device: &DeviceConfig,
    stencil: &StencilDescriptor,
    size: usize,
    time: usize,
) -> String {
    let extents = vec![size.to_string(); stencil.dim.rank()];
    format!(
        "{{\"device\": \"{}\", \"stencil\": \"{}\", \"size\": [{}], \"time\": {}}}",
        device.name,
        stencil.name,
        extents.join(", "),
        time
    )
}

/// Deterministic zipf(s) sampler over `{0, .., n-1}` by inverse CDF:
/// weight of rank `i` is `1 / (i+1)^s`. `s = 0` is uniform; larger `s`
/// concentrates traffic on the low ranks.
pub struct ZipfSampler {
    /// Cumulative normalized weights; `cdf[n-1] == 1.0`.
    cdf: Vec<f64>,
    rng: StdRng,
}

impl ZipfSampler {
    pub fn new(n: usize, s: f64, seed: u64) -> ZipfSampler {
        assert!(n > 0, "zipf over an empty universe");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler {
            cdf,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn sample(&mut self) -> usize {
        // 53 uniform mantissa bits in [0, 1).
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// What one replay connection saw.
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    pub sent: usize,
    pub answered: usize,
    /// Explicit `{"error":"overloaded"}` backpressure responses.
    pub shed: usize,
    /// Any other `{"error": ...}` response.
    pub errors: usize,
    /// Per-response wall latency (send → matching response), ms.
    pub latencies_ms: Vec<f64>,
}

impl ClientStats {
    pub fn merge(&mut self, other: ClientStats) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.shed += other.shed;
        self.errors += other.errors;
        self.latencies_ms.extend(other.latencies_ms);
    }
}

/// Replay `lines` over one connection with at most `pipeline` requests
/// in flight. The server answers every line of a connection in input
/// order, so the oldest outstanding send time always matches the next
/// response — latency needs no request ids.
pub fn replay_connection(
    addr: SocketAddr,
    lines: &[String],
    pipeline: usize,
) -> std::io::Result<ClientStats> {
    let pipeline = pipeline.max(1);
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    // Buffered writes: a full pipeline window goes out in one syscall,
    // flushed only when this client is about to block on a response.
    let mut writer = std::io::BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let mut stats = ClientStats::default();
    let mut in_flight: std::collections::VecDeque<Instant> = std::collections::VecDeque::new();
    let mut response = String::new();

    let mut read_one = |reader: &mut BufReader<TcpStream>,
                        in_flight: &mut std::collections::VecDeque<Instant>,
                        stats: &mut ClientStats|
     -> std::io::Result<()> {
        response.clear();
        if reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-replay",
            ));
        }
        let sent_at = in_flight.pop_front().expect("response without a request");
        stats
            .latencies_ms
            .push(sent_at.elapsed().as_secs_f64() * 1e3);
        if response.starts_with("{\"error\":\"overloaded\"") {
            stats.shed += 1;
        } else if response.starts_with("{\"error\":") {
            stats.errors += 1;
        } else {
            stats.answered += 1;
        }
        Ok(())
    };

    for line in lines {
        if in_flight.len() >= pipeline {
            writer.flush()?;
            read_one(&mut reader, &mut in_flight, &mut stats)?;
        }
        in_flight.push_back(Instant::now());
        writeln!(writer, "{line}")?;
        stats.sent += 1;
    }
    writer.flush()?;
    stream_half_close(writer.get_ref());
    while !in_flight.is_empty() {
        read_one(&mut reader, &mut in_flight, &mut stats)?;
    }
    Ok(stats)
}

fn stream_half_close(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// Exact percentile by nearest-rank over a sorted copy (the sample
/// counts here are small enough that a full sort is irrelevant next to
/// the replay itself).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Client-side latency summary (exact order statistics, milliseconds).
#[derive(Debug, Clone, Serialize)]
pub struct LatencySummary {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl LatencySummary {
    pub fn from_samples(samples: &mut [f64]) -> LatencySummary {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        LatencySummary {
            p50: percentile(samples, 0.50),
            p90: percentile(samples, 0.90),
            p99: percentile(samples, 0.99),
            max: samples.last().copied().unwrap_or(f64::NAN),
        }
    }
}

/// The `serve` section of `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSection {
    /// Concurrent replay connections.
    pub connections: usize,
    /// Max in-flight requests per connection.
    pub pipeline: usize,
    /// Distinct canonical keys in the replayed universe.
    pub universe: usize,
    /// Zipf skew exponent of the key distribution.
    pub zipf_s: f64,
    pub seed: u64,
    pub queries_sent: usize,
    pub answered: usize,
    pub shed: usize,
    pub errors: usize,
    /// Replay wall time (first send to last response), seconds.
    pub wall_s: f64,
    /// Answered queries per second over the replay wall time.
    pub qps: f64,
    pub latency_ms: LatencySummary,
    /// Model-only throughput: distinct universe keys computed cold
    /// (microbench pre-warmed) per second, no serving stack at all.
    pub cold_qps: f64,
    /// `qps / cold_qps` — the acceptance headline (>= 5x warm).
    pub warm_speedup: f64,
    /// Server-side counters snapshotted after the replay (absent when
    /// benchmarking an external server with `--addr`).
    pub store_hits: u64,
    pub mem_hits: u64,
    pub model_evals: u64,
    pub queries: u64,
    /// `store_hits / queries` — steady-state pure-lookup fraction.
    pub store_hit_rate: f64,
    /// `(store_hits + mem_hits) / queries`.
    pub cache_hit_rate: f64,
    /// `shed / queries_sent` (client-observed).
    pub shed_rate: f64,
    /// `answered / queries_sent` (client-observed).
    pub answered_rate: f64,
}

/// The full report, serialized to `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchReport {
    pub manifest: crate::RunManifest,
    pub serve: ServeSection,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let mut a = ZipfSampler::new(16, 1.1, 42);
        let mut b = ZipfSampler::new(16, 1.1, 42);
        let sa: Vec<usize> = (0..1000).map(|_| a.sample()).collect();
        let sb: Vec<usize> = (0..1000).map(|_| b.sample()).collect();
        assert_eq!(sa, sb, "same seed, same sequence");
        assert!(sa.iter().all(|&k| k < 16));
        // Rank 0 must dominate any single tail rank under s > 1.
        let hot = sa.iter().filter(|&&k| k == 0).count();
        let cold = sa.iter().filter(|&&k| k == 15).count();
        assert!(hot > cold, "zipf skew missing: hot={hot} cold={cold}");
        // Every rank is reachable in principle: s=0 is uniform.
        let mut u = ZipfSampler::new(4, 0.0, 7);
        let counts = (0..4000).map(|_| u.sample()).fold([0usize; 4], |mut c, k| {
            c[k] += 1;
            c
        });
        assert!(counts.iter().all(|&c| c > 500), "{counts:?}");
    }

    #[test]
    fn wire_lines_canonicalize_to_the_precompute_grid_keys() {
        // The whole store design rests on this: a replayed line must
        // hit the key its grid twin was precomputed under.
        let devices = vec![DeviceConfig::gtx980()];
        let stencils = vec![StencilDescriptor::heat2d(), StencilDescriptor::jacobi3d()];
        let sizes = vec![96, 128];
        let times = vec![8];
        let grid = advisor::grid_queries(&devices, &stencils, &sizes, &times, 0.10, 10).unwrap();
        let advisor = advisor::Advisor::with_defaults();
        let grid_keys: std::collections::HashSet<String> =
            grid.iter().map(|q| advisor.canonical_key(q)).collect();
        let mut wire_keys = std::collections::HashSet::new();
        for device in &devices {
            for stencil in &stencils {
                for &s in &sizes {
                    for &t in &times {
                        let line = query_jsonl(device, stencil, s, t);
                        let q = advisor::Query::parse_line(&line).expect("wire line parses");
                        wire_keys.insert(advisor.canonical_key(&q));
                    }
                }
            }
        }
        assert_eq!(wire_keys, grid_keys);
        assert_eq!(wire_keys.len(), 4);
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let mut samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_samples(&mut samples);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
        let mut one = vec![3.5];
        let s = LatencySummary::from_samples(&mut one);
        assert_eq!(s.p50, 3.5);
        assert_eq!(s.p99, 3.5);
        assert_eq!(s.max, 3.5);
    }
}
