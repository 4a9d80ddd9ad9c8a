//! Adversary models for the DODA reproduction.
//!
//! The paper studies three adversaries that choose the sequence of pairwise
//! interactions:
//!
//! * the **oblivious adversary** fixes the whole sequence before the
//!   execution starts — modelled here by replaying an
//!   [`doda_core::InteractionSequence`] (see [`oblivious`]);
//! * the **online adaptive adversary** builds the sequence while observing
//!   the effect of the algorithm's past decisions — modelled by
//!   [`doda_core::InteractionSource`] implementations that inspect the
//!   ownership view (see [`adaptive`] and [`constructions`]);
//! * the **randomized adversary** draws every interaction uniformly at
//!   random among all pairs (see [`randomized`]), with a weighted variant
//!   in [`nonuniform`] for the paper's concluding question 3.
//!
//! The [`constructions`] module implements the explicit adversarial
//! sequences used in the impossibility proofs of Theorems 1, 2 and 3.
//!
//! # Example
//!
//! ```
//! use doda_adversary::randomized::RandomizedAdversary;
//! use doda_core::prelude::*;
//! use doda_graph::NodeId;
//!
//! let mut adversary = RandomizedAdversary::new(8, 42);
//! let mut algo = Gathering::new();
//! let outcome = engine::run_with_id_sets(
//!     &mut algo,
//!     &mut adversary,
//!     NodeId(0),
//!     EngineConfig::default(),
//! )?;
//! assert!(outcome.terminated());
//! # Ok::<(), doda_core::error::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod constructions;
pub mod nonuniform;
pub mod oblivious;
pub mod randomized;
pub mod round_trap;

pub use adaptive::{CrashAwareIsolator, IsolatorAdversary};
pub use constructions::{AdaptiveTrap, CycleTrap, ObliviousTrap};
pub use nonuniform::WeightedRandomAdversary;
pub use oblivious::ObliviousAdversary;
pub use randomized::RandomizedAdversary;
pub use round_trap::RoundIsolator;
