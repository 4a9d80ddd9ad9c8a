//! Simulation harness for the DODA reproduction.
//!
//! This crate turns the building blocks of `doda-core`, `doda-adversary`
//! and `doda-workloads` into repeatable experiments:
//!
//! * [`spec::AlgorithmSpec`] names an algorithm plus its
//!   [`spec::KnowledgeRequirement`] — which decides whether sweeps stream
//!   it straight off the adversary (`O(n)` memory at any horizon) or must
//!   materialise the sequence for its oracles;
//! * [`scenario::Scenario`] is the unified registry of interaction
//!   processes: synthetic workloads, the oblivious / weighted / adaptive
//!   adversaries, *and* the round scenarios (random matchings,
//!   tournaments, interval-connected graphs, the sink-unmatched round
//!   trap), all enumerable by the same sweep;
//! * [`scenario::FaultedScenario`] crosses that registry with the fault
//!   axis of `doda_core::fault` — crash faults, node churn, lossy
//!   interactions — so every scenario also runs under a seeded,
//!   deterministic fault plan;
//! * [`trial`] runs one algorithm over one stream (or sequence) and
//!   extracts metrics;
//! * [`sweep::Sweep`] is the unified batch builder: scenario or workload ×
//!   algorithm × trials × seed × parallelism × execution tier
//!   ([`sweep::ExecutionTier`]: auto / scalar / lockstep **lanes** /
//!   hierarchical);
//! * [`runner`] holds the batch shape and summary, and
//!   [`runner::claim_chunks`], the claim-based dispatcher that shards a
//!   sweep's trials, and the service's sessions, over worker threads;
//! * [`table`] renders result rows as Markdown for EXPERIMENTS.md and
//!   the examples.
//!
//! # Example
//!
//! ```
//! use doda_sim::prelude::*;
//!
//! let results = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
//!     .n(16)
//!     .trials(5)
//!     .seed(7)
//!     .run();
//! assert_eq!(results.len(), 5);
//! assert!(results.iter().all(|r| r.completion.terminated()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod datum;
pub mod runner;
pub mod scenario;
pub mod spec;
pub mod sweep;
pub mod table;
pub mod test_support;
pub mod trial;

pub use datum::{
    AggregateKind, CountFamily, DatumFamily, DistinctFamily, ExactOrigins, MaxFamily, MinFamily,
    QuantileFamily, SumFamily,
};
pub use runner::{BatchConfig, BatchResult};
pub use scenario::{FaultedScenario, Scenario};
pub use spec::{AlgorithmSpec, KnowledgeRequirement};
pub use sweep::{ExecutionTier, Sweep};
pub use trial::{
    finish_trial, finish_trial_with, run_trial_on_sequence, ByzantineInjection, FaultInjection,
    TrialConfig, TrialResult, TrialRunner,
};

/// Commonly used items for examples and benches.
pub mod prelude {
    pub use crate::datum::{AggregateKind, DatumFamily, ExactOrigins};
    pub use crate::runner::{BatchConfig, BatchResult};
    pub use crate::scenario::{FaultedScenario, Scenario};
    pub use crate::spec::{AlgorithmSpec, KnowledgeRequirement};
    pub use crate::sweep::{ExecutionTier, Sweep};
    pub use crate::table::{markdown_table, Table};
    pub use crate::trial::{
        finish_trial, finish_trial_with, run_trial_on_sequence, ByzantineInjection, FaultInjection,
        TrialConfig, TrialResult, TrialRunner,
    };
}
