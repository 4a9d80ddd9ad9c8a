//! Experiment harness for the DODA reproduction.
//!
//! The paper has no tables or figures — its evaluation is a collection of
//! theorems. This crate turns each theorem into an *experiment* that can be
//! run, measured and compared against the theorem's claim:
//!
//! * [`scaling`] — sweeps the node count `n`, measures interaction counts
//!   and fits power laws, so that "Gathering is `Θ(n²)`" becomes a checkable
//!   statement about a fitted exponent;
//! * [`whp`] — measures the fraction of trials that finish within a bound,
//!   the empirical counterpart of "with high probability";
//! * [`crossover`] — checks that algorithms keep one order of mean
//!   interaction counts at every `n` measured by both;
//! * [`experiments`] — one self-contained function per theorem (E1–E15),
//!   each returning an [`experiments::ExperimentReport`];
//! * [`report`] — renders the collected reports as the Markdown used in
//!   EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crossover;
pub mod experiments;
pub mod report;
pub mod scaling;
pub mod whp;

pub use experiments::ExperimentReport;
pub use scaling::{ScalingPoint, ScalingResult, ScalingStudy};
