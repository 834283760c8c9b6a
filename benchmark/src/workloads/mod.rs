//! The four workloads, and what they share.

pub mod reproduce;
pub mod select;
pub mod serve;

use crate::run::{Report, RunConfig, Tracer};
use gpu_sim::DeviceConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use stencil_core::StencilDescriptor;

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Report {
    match cfg.workload.as_str() {
        "select" => select::run(cfg),
        "reproduce" => reproduce::run(cfg),
        "serve-lookup" => serve::run(cfg, serve::Mode::Lookup),
        "serve-mixed" => serve::run(cfg, serve::Mode::Mixed),
        other => unreachable!("unknown workload {other} passed argument parsing"),
    }
}

/// Recompute every fixture from scratch.
pub fn bless() -> std::io::Result<()> {
    for (name, fixture) in [
        ("select", select::bless()),
        ("reproduce", reproduce::bless()),
        ("serve", serve::bless()),
    ] {
        let path = fixture.save(name)?;
        eprintln!("blessed {} entries into {}", fixture.len(), path.display());
    }
    Ok(())
}

/// A device preset by name (the names below are the presets').
pub fn device(name: &str) -> DeviceConfig {
    DeviceConfig::preset(name).unwrap_or_else(|| panic!("device preset '{name}'"))
}

/// A named stencil descriptor.
pub fn stencil(name: &str) -> StencilDescriptor {
    StencilDescriptor::from_name(name).unwrap_or_else(|| panic!("stencil '{name}'"))
}

/// Fixture label of one (device, stencil, size, time) input.
pub fn label(device: &str, stencil: &str, extents: &[usize], time: usize) -> String {
    let size: Vec<String> = extents.iter().map(|e| e.to_string()).collect();
    format!("{device}|{stencil}|{}|T{time}", size.join("x"))
}

/// A seeded permutation of `0..n` (the order a round visits its inputs).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

/// Run whole rounds of a fixed-work workload for about `seconds`, and at
/// least `min` of them: a round starts only while the previous round's
/// length, halved, still fits. Smoke runs stop at `min`. Whole rounds
/// keep the mix of operations identical on every run, whatever the seed.
pub fn rounds(seconds: f64, min: usize, smoke: bool, mut round: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0;
    loop {
        let t0 = Instant::now();
        round(n);
        n += 1;
        let last = t0.elapsed().as_secs_f64();
        let out_of_time = smoke || start.elapsed().as_secs_f64() + 0.5 * last >= seconds;
        if n >= min && out_of_time {
            return;
        }
    }
}

/// Which of a traced run's rounds are traced: every second one, so that
/// drift over the run falls on both sides of the tracing overhead.
pub fn traced_round(tracer: Option<&Tracer>, n: usize) -> Option<&Tracer> {
    tracer.filter(|_| n % 2 == 1)
}
