//! # hhc-benchmark
//!
//! The repository benchmark. One process runs one named workload for a
//! fixed number of seconds, checks the program's outputs against
//! committed fixtures, and reports either the end-to-end metrics
//! (untraced run) or the per-layer ledger (traced run). The workloads,
//! metrics and bounds live in [`spec`]; `BENCHMARK.json` at the
//! repository root is that table, rendered.
//!
//! Stencils are named only through `StencilDescriptor::from_name` and
//! devices only through `DeviceConfig::preset`, so refactors of the
//! stencil representation or the cache tiers need no benchmark edit.

pub mod compare;
pub mod fixture;
pub mod loadgen;
pub mod run;
pub mod spec;
pub mod stats;
pub mod workloads;
