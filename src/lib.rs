//! # doda — Distributed Online Data Aggregation in Dynamic Graphs
//!
//! Facade crate of the reproduction of *"Distributed Online Data
//! Aggregation in Dynamic Graphs"* (Bramas, Masuzawa, Tixeuil — ICDCS
//! 2016). It re-exports the workspace crates under a single name and hosts
//! the runnable examples and the cross-crate integration tests.
//!
//! | module | contents |
//! |--------|----------|
//! | [`graph`] | static graph substrate (`doda-graph`) |
//! | [`stats`] | statistics substrate (`doda-stats`) |
//! | [`core`] | the paper's model, algorithms, convergecast and cost (`doda-core`) |
//! | [`adversary`] | oblivious / adaptive / randomized adversaries (`doda-adversary`) |
//! | [`workloads`] | synthetic interaction-sequence generators (`doda-workloads`) |
//! | [`sim`] | trial runner, batches, the scenario registry, tables (`doda-sim`) |
//! | [`analysis`] | scaling studies and the E1–E14 experiment harness (`doda-analysis`) |
//! | [`service`] | multi-tenant session service: scheduler, wire format, transports (`doda-service`) |
//!
//! [`Sweep`](prelude::Sweep) is the one entry point for running trials:
//! pick an algorithm and an interaction family, set the shape fluently,
//! and the sweep resolves the fastest admissible execution tier (lanes,
//! streamed or materialized — byte-identical wherever they overlap):
//!
//! ```
//! use doda::prelude::*;
//!
//! let results = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
//!     .n(8)
//!     .trials(4)
//!     .seed(42)
//!     .run();
//! assert!(results.iter().all(|r| r.terminated()));
//! ```
//!
//! The engine layer stays available for single executions — it pulls one
//! interaction per step from a seeded [`sim::Scenario`] source:
//!
//! ```
//! use doda::graph::NodeId;
//! use doda::prelude::*;
//!
//! let mut algo = Gathering::new();
//! let outcome = engine::run_with_id_sets(
//!     &mut algo,
//!     Scenario::Uniform.source(8, 42).as_mut(),
//!     NodeId(0),
//!     EngineConfig::sweep(10_000),
//! )?;
//! assert!(outcome.terminated());
//! # Ok::<(), doda::core::error::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use doda_adversary as adversary;
pub use doda_analysis as analysis;
pub use doda_core as core;
pub use doda_graph as graph;
pub use doda_service as service;
pub use doda_sim as sim;
pub use doda_stats as stats;
pub use doda_workloads as workloads;

/// One-stop prelude: the core prelude plus the most used simulation and
/// service types.
pub mod prelude {
    pub use doda_core::prelude::*;
    pub use doda_service::prelude::*;
    pub use doda_sim::prelude::*;
    pub use doda_workloads::Workload;
}
