//! Support library of the `doda-bench` binary (`src/bin/doda-bench.rs`).
//!
//! The binary renders the paper's checked reproduction (`--experiments`,
//! the committed `EXPERIMENTS.md`) and hosts the machine-readable perf
//! harness: [`perf`] runs pinned scenario grids that the binary
//! emits/validates as `BENCH_*.json` trajectory files; [`compare`] is the
//! perf-regression gate that diffs a fresh run against the committed
//! baseline (CI fails on regressions beyond tolerance); [`memory`] holds
//! the heap counters behind `peak_mem_bytes`; [`json`] is the
//! dependency-free JSON support beneath it all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod memory;
pub mod perf;
