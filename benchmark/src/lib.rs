//! The repo benchmark: six output-checked workloads measured end to end,
//! and a traced run per workload that walks the layer ladder.
//!
//! `src/main.rs` is the command the driver runs; see `README.md` for the
//! workloads, the metrics and how to read a trace. Only `surface` calls
//! into the program's crates.

pub mod check;
pub mod compare;
pub mod host;
pub mod http;
pub mod ladder;
pub mod loadgen;
pub mod names;
pub mod report;
pub mod scrape;
pub mod stats;
pub mod surface;
pub mod trace;
pub mod wire;
pub mod workloads;

/// A pass-through that counts only while armed: in traced runs and in
/// the memory phase of end-to-end runs (see [`trace`]).
#[global_allocator]
static ALLOCATOR: trace::CountingAllocator = trace::CountingAllocator;
