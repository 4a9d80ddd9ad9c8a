//! Statistics substrate for the DODA reproduction.
//!
//! The evaluation of "Distributed Online Data Aggregation in Dynamic
//! Graphs" is a set of asymptotic theorems (expected interaction counts and
//! high-probability bounds). Verifying those empirically requires:
//!
//! * **deterministic randomness** — every experiment must be reproducible
//!   from a seed ([`rng`]);
//! * **closed-form quantities** the proofs use — harmonic numbers and the
//!   expectations of the coupon-collector-like processes ([`harmonic`]);
//! * **descriptive statistics** over repeated trials ([`descriptive`]);
//! * **scaling-law estimation** — fitting `T(n) ≈ c · n^α` on log–log axes
//!   to check that Gathering grows like `n²`, Waiting Greedy like
//!   `n^{3/2}`, the offline optimum like `n log n`, etc. ([`regression`]);
//! * **bootstrap confidence intervals** for reported ratios ([`bootstrap`]);
//! * **weighted sampling** for non-uniform adversaries ([`weighted`]).
//!
//! # Example
//!
//! ```
//! use doda_stats::regression::fit_power_law;
//!
//! // Perfect quadratic data: T(n) = 3 n².
//! let ns = [8.0, 16.0, 32.0, 64.0];
//! let ts: Vec<f64> = ns.iter().map(|n| 3.0 * n * n).collect();
//! let fit = fit_power_law(&ns, &ts).unwrap();
//! assert!((fit.exponent - 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bootstrap;
pub mod descriptive;
pub mod harmonic;
pub mod regression;
pub mod rng;
pub mod summary;
pub mod weighted;

pub use descriptive::Descriptive;
pub use regression::{fit_power_law, PowerLawFit};
pub use rng::{seeded_rng, SeedSequence};
pub use summary::Summary;
pub use weighted::WeightedSampler;
