//! The aggregation algebra: the commutative-monoid contract behind every
//! datum, plus constant-size sketch aggregates.
//!
//! The paper aggregates two data into one "whose size is that of a single
//! input". This module captures what that requires algebraically and what
//! it buys operationally:
//!
//! * [`Aggregate`] is the contract — `merge` must be **commutative** and
//!   **associative**, so the value at the sink is independent of the
//!   aggregation order the adversary's schedule induces. Two marker
//!   consts refine the contract: [`Aggregate::IDEMPOTENT`]
//!   (`merge(a, a) == a`) and [`Aggregate::DUPLICATE_INSENSITIVE`]
//!   (re-aggregating the same *origin's* datum twice cannot change the
//!   result — the property that makes gossip-style dissemination safe).
//! * The fixed-size impls live in [`crate::data`]: [`crate::data::Count`],
//!   [`crate::data::SumData`], total-order [`crate::data::MinData`] /
//!   [`crate::data::MaxData`], and the deliberately growing
//!   [`crate::data::IdSet`] used for exact conservation checks.
//! * Two **sketches** are implemented here, giving constant-size per-node
//!   state where the exact answer would need `O(n)` bytes:
//!   [`DistinctSketch`] (register-based distinct counting, merge by
//!   register-wise max — idempotent *and* duplicate-insensitive) and
//!   [`QuantileSketch`] (a fixed-bin histogram whose counts add — lawful
//!   but duplicate-sensitive, like a sum).
//!
//! Both sketches keep a **sparse one-item representation** until their
//! first real merge: a node that never receives anything carries no heap
//! allocation at all, which is what keeps a sketch-backed `n = 10^5`
//! sweep's peak heap strictly below the `IdSet` equivalent (asserted by
//! `doda-bench --algebra-guard`).
//!
//! Lawfulness is not aspirational: `tests/algebra_laws.rs` pins
//! commutativity, associativity and the claimed marker properties for
//! every implementation with property-based tests, including NaN inputs
//! (the total-order `MinData`/`MaxData` semantics exist because
//! `f64::min`/`max` silently violate commutativity when one operand is
//! NaN).

use std::cmp::Ordering;

use doda_stats::rng::SeedSequence;

/// An aggregation function together with the aggregated value it carries.
///
/// # Contract
///
/// `merge` must be **commutative** (`merge(a, b) == merge(b, a)`) and
/// **associative** (`merge(merge(a, b), c) == merge(a, merge(b, c))`), so
/// that the final value at the sink does not depend on the aggregation
/// order. Floating-point impls satisfy associativity up to rounding
/// ([`crate::data::SumData`]); everything else is exact. The marker
/// consts declare the two optional strengthenings; `tests/algebra_laws.rs`
/// checks every claim property-based.
pub trait Aggregate: Clone + std::fmt::Debug {
    /// `true` when `merge(a, a) == a` for every value `a` — merging a
    /// value into itself is a no-op (min, max, set union, register max).
    const IDEMPOTENT: bool = false;

    /// `true` when aggregating the same *origin's* datum more than once
    /// cannot change the result. This is what makes an aggregate safe
    /// under at-least-once delivery (gossip, retransmission): duplicates
    /// are absorbed instead of double-counted.
    const DUPLICATE_INSENSITIVE: bool = false;

    /// `true` when the aggregate is **exactly conserved**: the sink's
    /// final value is a lossless function of exactly which original data
    /// reached it, so reconciling it against a transfer ledger exposes
    /// any forged, duplicated or dropped contribution. This is what lets
    /// the Byzantine audit ([`crate::byzantine::Tally`]) *detect*
    /// corruption instead of merely tolerating or missing it. True for
    /// [`crate::data::Count`], [`crate::data::SumData`] and
    /// [`crate::data::IdSet`]; deliberately `false` for
    /// [`QuantileSketch`] — its histogram counts add like a sum, but the
    /// binning already loses the per-contribution resolution a ledger
    /// reconciliation needs.
    const EXACT_CONSERVATION: bool = false;

    /// Merges another aggregated value into this one.
    fn merge(&mut self, other: Self);
}

/// The total-order minimum of two floats ([`f64::total_cmp`] semantics):
/// commutative, associative and idempotent even when NaN is involved,
/// unlike [`f64::min`], which returns the non-NaN operand and therefore
/// depends on argument order.
pub fn total_min(a: f64, b: f64) -> f64 {
    if b.total_cmp(&a) == Ordering::Less {
        b
    } else {
        a
    }
}

/// The total-order maximum of two floats; see [`total_min`].
pub fn total_max(a: f64, b: f64) -> f64 {
    if b.total_cmp(&a) == Ordering::Greater {
        b
    } else {
        a
    }
}

// ---------------------------------------------------------------------
// Distinct-count sketch
// ---------------------------------------------------------------------

/// Register-address bits of [`DistinctSketch`]: `2^8 = 256` one-byte
/// registers, a ~6.5% standard error on the distinct-count estimate —
/// and at most 256 bytes of heap per *merged-into* node (un-merged nodes
/// stay heap-free in the sparse representation).
pub const DISTINCT_REGISTER_BITS: u32 = 8;

const DISTINCT_REGISTERS: usize = 1 << DISTINCT_REGISTER_BITS;

/// A register-based distinct-count sketch (HyperLogLog-style) over `u64`
/// items, hashed with a seeded SplitMix64 mix via
/// [`doda_stats::rng::SeedSequence`].
///
/// The state is a pure function of the *set* of items inserted — never of
/// the merge order — which makes `merge` exactly commutative,
/// associative, idempotent and duplicate-insensitive:
///
/// * one distinct item → the sparse [`One`](self) representation (just
///   the item's hash, no heap);
/// * two or more → 256 one-byte registers, each holding the maximum
///   "leading-zero rank" of the hashes routed to it; merging is
///   register-wise max.
///
/// Two sketches may only be merged when they share a hash seed (the
/// registers of differently-seeded hashes are unrelated); merging across
/// seeds is a logic error caught by a debug assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    seed: u64,
    state: DistinctState,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum DistinctState {
    /// Exactly one distinct item has been inserted: its hash.
    One(u64),
    /// Two or more distinct items: the dense register file.
    Dense(Box<[u8]>),
}

impl DistinctSketch {
    /// The sketch of a single item under the given hash seed — the
    /// initial datum of a node whose identity (or reading id) is `item`.
    /// Allocation-free: the dense registers appear only on first merge
    /// with a different item.
    pub fn singleton(seed: u64, item: u64) -> Self {
        DistinctSketch {
            seed,
            state: DistinctState::One(hash_item(seed, item)),
        }
    }

    /// The estimated number of distinct items inserted (over all merged
    /// sketches). Exactly `1.0` in the sparse one-item state; the
    /// standard estimator with small-range (linear counting) correction
    /// once dense.
    pub fn estimate(&self) -> f64 {
        match &self.state {
            DistinctState::One(_) => 1.0,
            DistinctState::Dense(regs) => {
                let m = DISTINCT_REGISTERS as f64;
                let alpha = 0.7213 / (1.0 + 1.079 / m);
                let mut inverse_sum = 0.0f64;
                let mut zeros = 0usize;
                for &r in regs.iter() {
                    inverse_sum += (-(f64::from(r))).exp2();
                    if r == 0 {
                        zeros += 1;
                    }
                }
                let raw = alpha * m * m / inverse_sum;
                if raw <= 2.5 * m && zeros > 0 {
                    // Linear counting is the better estimator while most
                    // registers are still empty.
                    m * (m / zeros as f64).ln()
                } else {
                    raw
                }
            }
        }
    }

    /// The hash seed this sketch was built with; only sketches sharing a
    /// seed are mergeable.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Routes one item hash into a register file: register index from the top
/// address bits, rank = leading zeros of the remaining bits + 1.
fn insert_hash(regs: &mut [u8], h: u64) {
    let idx = (h >> (64 - DISTINCT_REGISTER_BITS)) as usize;
    let tail = h << DISTINCT_REGISTER_BITS;
    let rank = (tail.leading_zeros() + 1).min(64 - DISTINCT_REGISTER_BITS + 1) as u8;
    if rank > regs[idx] {
        regs[idx] = rank;
    }
}

/// Seeded item hash: the SplitMix64 output mix [`SeedSequence`] uses for
/// sub-seed derivation doubles as a well-spread 64-bit hash.
fn hash_item(seed: u64, item: u64) -> u64 {
    SeedSequence::new(seed).seed(item)
}

impl Aggregate for DistinctSketch {
    const IDEMPOTENT: bool = true;
    const DUPLICATE_INSENSITIVE: bool = true;

    fn merge(&mut self, other: Self) {
        debug_assert_eq!(
            self.seed, other.seed,
            "distinct sketches are only mergeable under one hash seed"
        );
        match (&mut self.state, other.state) {
            (DistinctState::One(a), DistinctState::One(b)) => {
                if *a != b {
                    let mut regs = vec![0u8; DISTINCT_REGISTERS].into_boxed_slice();
                    insert_hash(&mut regs, *a);
                    insert_hash(&mut regs, b);
                    self.state = DistinctState::Dense(regs);
                }
            }
            (DistinctState::One(a), DistinctState::Dense(mut regs)) => {
                insert_hash(&mut regs, *a);
                self.state = DistinctState::Dense(regs);
            }
            (DistinctState::Dense(regs), DistinctState::One(b)) => {
                insert_hash(regs, b);
            }
            (DistinctState::Dense(regs), DistinctState::Dense(other_regs)) => {
                for (r, o) in regs.iter_mut().zip(other_regs.iter()) {
                    if *o > *r {
                        *r = *o;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Quantile sketch
// ---------------------------------------------------------------------

/// Bin count of [`QuantileSketch`]: 64 equi-width bins over the sketch's
/// value range, i.e. at most 512 bytes of heap per merged-into node and a
/// worst-case quantile error of one bin width.
pub const QUANTILE_BINS: usize = 64;

/// A fixed-size quantile sketch: an equi-width histogram over a value
/// range fixed at construction, with exact count/min/max tracking.
///
/// Merging adds bin counts — **exactly** commutative and associative
/// (bin counts are integers; no floating-point rounding is involved in
/// `merge`), but *not* idempotent or duplicate-insensitive: like a sum,
/// merging the same readings twice counts them twice. The state is a
/// pure function of the multiset of inserted readings, never of the
/// merge order, and stays sparse (one reading, no heap) until the first
/// merge.
///
/// Only sketches built over the same `[lo, hi)` range are mergeable;
/// mixing ranges is a logic error caught by a debug assertion. Readings
/// outside the range clamp into the edge bins (min/max remain exact, in
/// [`f64::total_cmp`] order, so NaN readings cannot re-order a merge).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    lo: f64,
    hi: f64,
    state: QuantileState,
}

#[derive(Debug, Clone, PartialEq)]
enum QuantileState {
    /// Exactly one reading inserted.
    One(f64),
    /// Two or more readings: the dense histogram.
    Hist {
        count: u64,
        min: f64,
        max: f64,
        bins: Box<[u64]>,
    },
}

impl QuantileSketch {
    /// The sketch of a single reading over the value range `[lo, hi)` —
    /// the initial datum of a node whose sensor reads `value`.
    /// Allocation-free until the first merge.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and both are finite (the bin geometry
    /// would be meaningless otherwise).
    pub fn singleton(lo: f64, hi: f64, value: f64) -> Self {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "quantile sketch needs a finite, non-empty value range"
        );
        QuantileSketch {
            lo,
            hi,
            state: QuantileState::One(value),
        }
    }

    /// Number of readings aggregated so far (exact).
    pub fn count(&self) -> u64 {
        match &self.state {
            QuantileState::One(_) => 1,
            QuantileState::Hist { count, .. } => *count,
        }
    }

    /// The exact minimum reading, in total order.
    pub fn min(&self) -> f64 {
        match &self.state {
            QuantileState::One(v) => *v,
            QuantileState::Hist { min, .. } => *min,
        }
    }

    /// The exact maximum reading, in total order.
    pub fn max(&self) -> f64 {
        match &self.state {
            QuantileState::One(v) => *v,
            QuantileState::Hist { max, .. } => *max,
        }
    }

    /// The estimated `q`-quantile (`q` clamped into `[0, 1]`) of the
    /// aggregated readings: linear interpolation inside the histogram bin
    /// holding the target rank, clamped to the exact `[min, max]`.
    /// Error is bounded by one bin width.
    pub fn quantile(&self, q: f64) -> f64 {
        match &self.state {
            QuantileState::One(v) => *v,
            QuantileState::Hist {
                count,
                min,
                max,
                bins,
            } => {
                let q = q.clamp(0.0, 1.0);
                let target = q * (*count as f64 - 1.0);
                let width = (self.hi - self.lo) / QUANTILE_BINS as f64;
                let mut cum = 0u64;
                for (i, &c) in bins.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let first_rank = cum as f64;
                    cum += c;
                    if target < cum as f64 {
                        let within = if c > 1 {
                            ((target - first_rank) / (c as f64 - 1.0)).clamp(0.0, 1.0)
                        } else {
                            0.5
                        };
                        let est = self.lo + (i as f64 + within) * width;
                        return total_min(total_max(est, *min), *max);
                    }
                }
                *max
            }
        }
    }

    /// The histogram bin a reading falls into; out-of-range and NaN
    /// readings clamp into the edge bins (0 for NaN/below-range — the
    /// float-to-int cast saturates — and the last bin for above-range).
    fn bin_of(&self, value: f64) -> usize {
        let frac = (value - self.lo) / (self.hi - self.lo);
        let idx = (frac * QUANTILE_BINS as f64) as usize;
        idx.min(QUANTILE_BINS - 1)
    }

    fn insert(&self, bins: &mut [u64], value: f64) {
        bins[self.bin_of(value)] += 1;
    }
}

impl Aggregate for QuantileSketch {
    fn merge(&mut self, other: Self) {
        debug_assert!(
            self.lo == other.lo && self.hi == other.hi,
            "quantile sketches are only mergeable over one value range"
        );
        match (&self.state, other.state) {
            (&QuantileState::One(a), QuantileState::One(b)) => {
                let mut bins = vec![0u64; QUANTILE_BINS].into_boxed_slice();
                self.insert(&mut bins, a);
                self.insert(&mut bins, b);
                self.state = QuantileState::Hist {
                    count: 2,
                    min: total_min(a, b),
                    max: total_max(a, b),
                    bins,
                };
            }
            (
                &QuantileState::One(a),
                QuantileState::Hist {
                    count,
                    min,
                    max,
                    mut bins,
                },
            ) => {
                self.insert(&mut bins, a);
                self.state = QuantileState::Hist {
                    count: count + 1,
                    min: total_min(min, a),
                    max: total_max(max, a),
                    bins,
                };
            }
            (QuantileState::Hist { .. }, QuantileState::One(b)) => {
                let bin = self.bin_of(b);
                if let QuantileState::Hist {
                    count,
                    min,
                    max,
                    bins,
                } = &mut self.state
                {
                    *count += 1;
                    *min = total_min(*min, b);
                    *max = total_max(*max, b);
                    bins[bin] += 1;
                }
            }
            (
                QuantileState::Hist { .. },
                QuantileState::Hist {
                    count: oc,
                    min: omin,
                    max: omax,
                    bins: obins,
                },
            ) => {
                if let QuantileState::Hist {
                    count,
                    min,
                    max,
                    bins,
                } = &mut self.state
                {
                    *count += oc;
                    *min = total_min(*min, omin);
                    *max = total_max(*max, omax);
                    for (b, o) in bins.iter_mut().zip(obins.iter()) {
                        *b += o;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------

/// The constant-size summary a trial reports of the sink's final
/// aggregate — the figure of merit of a sweep that runs a real
/// aggregation function instead of the exact-conservation `IdSet`.
/// Carried on `TrialResult` and over the service wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregateSummary {
    /// The sink's [`crate::data::Count`].
    Count {
        /// Number of original data aggregated at the sink.
        value: u64,
    },
    /// The sink's [`crate::data::SumData`].
    Sum {
        /// Sum of the aggregated readings.
        value: f64,
    },
    /// The sink's [`crate::data::MinData`].
    Min {
        /// Minimum aggregated reading (total order).
        value: f64,
    },
    /// The sink's [`crate::data::MaxData`].
    Max {
        /// Maximum aggregated reading (total order).
        value: f64,
    },
    /// The sink's [`DistinctSketch`].
    Distinct {
        /// Estimated number of distinct origins aggregated.
        estimate: f64,
    },
    /// The sink's [`QuantileSketch`].
    Quantile {
        /// Exact number of readings aggregated.
        count: u64,
        /// Estimated median reading.
        median: f64,
        /// Estimated 95th-percentile reading.
        p95: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_sketch_stays_sparse_until_a_real_merge() {
        let a = DistinctSketch::singleton(7, 1);
        assert!(matches!(a.state, DistinctState::One(_)));
        assert_eq!(a.estimate(), 1.0);

        // Merging the same item keeps the sparse state (idempotent).
        let mut same = a.clone();
        same.merge(DistinctSketch::singleton(7, 1));
        assert!(matches!(same.state, DistinctState::One(_)));
        assert_eq!(same, a);

        // A different item densifies.
        let mut two = a.clone();
        two.merge(DistinctSketch::singleton(7, 2));
        assert!(!matches!(two.state, DistinctState::One(_)));
        assert!(two.estimate() > 1.0);
    }

    #[test]
    fn distinct_estimate_tracks_the_true_cardinality() {
        for &n in &[10u64, 100, 1_000, 10_000] {
            let mut sketch = DistinctSketch::singleton(42, 0);
            for item in 1..n {
                sketch.merge(DistinctSketch::singleton(42, item));
            }
            let estimate = sketch.estimate();
            let error = (estimate - n as f64).abs() / n as f64;
            // 256 registers give ~6.5% standard error; 25% is a loose,
            // deterministic-seed-safe bound.
            assert!(
                error < 0.25,
                "n = {n}: estimate {estimate:.1} is off by {:.1}%",
                error * 100.0
            );
        }
    }

    #[test]
    fn distinct_merge_is_duplicate_insensitive() {
        let mut once = DistinctSketch::singleton(3, 10);
        for item in 11..60 {
            once.merge(DistinctSketch::singleton(3, item));
        }
        let mut twice = once.clone();
        for item in 10..60 {
            twice.merge(DistinctSketch::singleton(3, item));
        }
        assert_eq!(once, twice);
    }

    #[test]
    fn quantile_sketch_estimates_quantiles_within_a_bin() {
        let mut sketch = QuantileSketch::singleton(0.0, 1.0, 0.0);
        for k in 1..1_000u32 {
            sketch.merge(QuantileSketch::singleton(0.0, 1.0, f64::from(k) / 1_000.0));
        }
        assert_eq!(sketch.count(), 1_000);
        assert_eq!(sketch.min(), 0.0);
        let bin_width = 1.0 / QUANTILE_BINS as f64;
        for &(q, truth) in &[(0.5, 0.4995), (0.95, 0.9495), (0.0, 0.0), (1.0, 0.999)] {
            let est = sketch.quantile(q);
            assert!(
                (est - truth).abs() <= bin_width,
                "q = {q}: estimate {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn quantile_merge_handles_out_of_range_and_nan_readings() {
        let mut sketch = QuantileSketch::singleton(0.0, 1.0, -5.0);
        sketch.merge(QuantileSketch::singleton(0.0, 1.0, 7.0));
        sketch.merge(QuantileSketch::singleton(0.0, 1.0, f64::NAN));
        assert_eq!(sketch.count(), 3);
        assert_eq!(sketch.min(), -5.0);
        // Total order puts the (positive) NaN above every number.
        assert!(sketch.max().is_nan());
        // Quantile estimates stay clamped inside [min, max].
        let median = sketch.quantile(0.5);
        assert!((-5.0..=1.0).contains(&median), "median {median}");
    }

    #[test]
    fn total_order_min_max_are_commutative_on_nan() {
        let nan = f64::NAN;
        assert_eq!(total_min(nan, 1.0).to_bits(), total_min(1.0, nan).to_bits());
        assert_eq!(total_max(nan, 1.0).to_bits(), total_max(1.0, nan).to_bits());
        // f64::min — what MinData used before — is not: it returns the
        // non-NaN operand, so the merge result depended on order.
        assert!(f64::min(nan, 1.0) == 1.0 && f64::min(1.0, nan) == 1.0);
    }
}
