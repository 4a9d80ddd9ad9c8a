//! The Byzantine data plane: lying nodes, transfer receipts, and the
//! sink-side tally that classifies a run.
//!
//! The paper's adversary controls the *schedule*; the fault model
//! ([`crate::fault`]) covers *honest* failures (crash, churn, loss). This
//! module adds the missing axis: nodes that participate in the schedule
//! exactly as asked but **lie on the data plane** while doing so. A
//! [`ByzantineProfile`] picks a seeded fraction of non-sink nodes and a
//! [`ByzantineStrategy`]; during the audited execution
//! ([`crate::engine::Engine::run_audited`]) each lying node corrupts the
//! one transmission the model allows it:
//!
//! * [`Forge`] — mint a datum that was never introduced and merge it into
//!   the carried aggregate before transmitting;
//! * [`Duplicate`] — deliver the carried aggregate twice (an
//!   at-least-once replay);
//! * [`DropCarried`] — claim to transmit but deliver nothing; the carried
//!   aggregate silently vanishes;
//! * [`Equivocate`] — discard everything aggregated so far and transmit a
//!   fresh self-datum instead.
//!
//! The schedule is untouched: oracles, adversaries and fault plans
//! compose unchanged, and a profile with zero lying nodes reproduces the
//! honest execution byte for byte (pinned by
//! `tests/byzantine_conformance.rs`).
//!
//! # Auditable aggregation
//!
//! Every applied transmission — honest or not — produces a [`Receipt`]
//! keyed by the interaction index: the transfer log a verifying sink
//! would keep. Receipts feed any [`ReceiptSink`]; the interesting one is
//! [`Tally`], which accumulates the carried/delivered unit ledger and
//! classifies the run via [`Tally::verdict`]:
//!
//! * **`Clean`** — no transfer was corrupted;
//! * **`Detected`** — the aggregate is *exactly conserved*
//!   ([`Aggregate::EXACT_CONSERVATION`]): cross-checking the sink value
//!   against the receipt ledger exposes the discrepancy, with the first
//!   corrupted transfer as [`Evidence`];
//! * **`Tolerated`** — the aggregate absorbs this strategy by
//!   construction (e.g. [`Aggregate::DUPLICATE_INSENSITIVE`] sketches
//!   under [`Duplicate`]): the value is still right, no alarm needed;
//! * **`Corrupted`** — the aggregate can neither detect nor absorb the
//!   lie: the sink value is silently wrong.
//!
//! Which aggregate lands where for which strategy is pinned by the
//! conformance suite; see the detect/tolerate matrix in the README.
//!
//! [`Forge`]: ByzantineStrategy::Forge
//! [`Duplicate`]: ByzantineStrategy::Duplicate
//! [`DropCarried`]: ByzantineStrategy::DropCarried
//! [`Equivocate`]: ByzantineStrategy::Equivocate

use doda_graph::NodeId;
use doda_stats::rng::{seeded_rng, DodaRng, SeedSequence};
use rand::Rng;

use crate::data::Aggregate;
use crate::interaction::Time;

/// How a lying node corrupts the one transmission it is allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineStrategy {
    /// Merge a forged datum — one that was never introduced into the
    /// population — into the carried aggregate before transmitting.
    Forge,
    /// Deliver the carried aggregate twice (an at-least-once replay):
    /// duplicate-sensitive aggregates double-count it.
    Duplicate,
    /// Claim to transmit but deliver nothing: the carried aggregate
    /// silently vanishes from the protocol.
    DropCarried,
    /// Discard everything aggregated so far and transmit a fresh
    /// self-datum instead, shedding every merged contribution.
    Equivocate,
}

impl ByzantineStrategy {
    /// A stable, human-readable label: `"forge"`, `"duplicate"`,
    /// `"drop-carried"`, `"equivocate"`.
    pub fn label(&self) -> &'static str {
        match self {
            ByzantineStrategy::Forge => "forge",
            ByzantineStrategy::Duplicate => "duplicate",
            ByzantineStrategy::DropCarried => "drop-carried",
            ByzantineStrategy::Equivocate => "equivocate",
        }
    }
}

/// An invalid Byzantine configuration, rejected before execution —
/// the [`crate::fault::FaultConfigError`] analogue for the data plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ByzantineConfigError {
    /// The lying-node fraction is outside `[0, 1]` (or not finite).
    InvalidFraction {
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for ByzantineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ByzantineConfigError::InvalidFraction { value } => {
                write!(f, "byzantine fraction {value} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ByzantineConfigError {}

/// A seeded Byzantine plan: the fraction of lying nodes and the strategy
/// they all follow.
///
/// The profile is pure configuration (`Copy`, comparable, serialisable
/// by label); the stateful injector built from it is
/// [`ByzantineInjector`]. A fraction of `0` is a valid plan with zero
/// liars — the audited execution then reproduces the honest one byte for
/// byte (wrapper transparency, pinned by the conformance suite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineProfile {
    /// Fraction of the population (rounded to the nearest node count,
    /// sink excluded) that lies on the data plane.
    pub fraction: f64,
    /// The strategy every lying node follows.
    pub strategy: ByzantineStrategy,
}

impl ByzantineProfile {
    /// A plan where `fraction` of the nodes forge data
    /// ([`ByzantineStrategy::Forge`]).
    pub fn forge(fraction: f64) -> Self {
        ByzantineProfile {
            fraction,
            strategy: ByzantineStrategy::Forge,
        }
    }

    /// A plan where `fraction` of the nodes deliver twice
    /// ([`ByzantineStrategy::Duplicate`]).
    pub fn duplicate(fraction: f64) -> Self {
        ByzantineProfile {
            fraction,
            strategy: ByzantineStrategy::Duplicate,
        }
    }

    /// A plan where `fraction` of the nodes drop their carried aggregate
    /// ([`ByzantineStrategy::DropCarried`]).
    pub fn drop_carried(fraction: f64) -> Self {
        ByzantineProfile {
            fraction,
            strategy: ByzantineStrategy::DropCarried,
        }
    }

    /// A plan where `fraction` of the nodes equivocate
    /// ([`ByzantineStrategy::Equivocate`]).
    pub fn equivocate(fraction: f64) -> Self {
        ByzantineProfile {
            fraction,
            strategy: ByzantineStrategy::Equivocate,
        }
    }

    /// `true` iff the plan fields no liars at all.
    pub fn is_none(&self) -> bool {
        self.fraction == 0.0
    }

    /// A stable, human-readable label for registries, reports and
    /// `BENCH_*.json`: `"none"`, or e.g. `"forge(0.1)"`.
    pub fn label(&self) -> String {
        if self.is_none() {
            return "none".to_string();
        }
        format!("{}({})", self.strategy.label(), self.fraction)
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns a [`ByzantineConfigError`] if the fraction is outside
    /// `[0, 1]` or not finite.
    pub fn validate(&self) -> Result<(), ByzantineConfigError> {
        if !(0.0..=1.0).contains(&self.fraction) || !self.fraction.is_finite() {
            return Err(ByzantineConfigError::InvalidFraction {
                value: self.fraction,
            });
        }
        Ok(())
    }
}

/// The stateful Byzantine plan for one population: the seeded set of
/// lying nodes plus the forgery stream.
///
/// The liar set is a pure function of `(profile, n, sink, seed)` — the
/// sink is never a liar — and stays fixed for the injector's lifetime;
/// only the forgery stream (which origins a [`Forge`] liar mints) is
/// stateful, and [`ByzantineInjector::reset`] rewinds it, so one injector
/// can be reused across executions deterministically (the engine resets
/// it at the start of every audited run).
///
/// [`Forge`]: ByzantineStrategy::Forge
#[derive(Debug, Clone)]
pub struct ByzantineInjector {
    profile: ByzantineProfile,
    forge_seed: u64,
    liars: Vec<bool>,
    liar_count: usize,
    rng: DodaRng,
}

impl ByzantineInjector {
    /// Builds the injector for a population of `n` nodes with the given
    /// sink, drawing the liar subset and the forgery stream from
    /// dedicated sub-streams of `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`ByzantineConfigError`] if the profile is invalid (see
    /// [`ByzantineProfile::validate`]).
    pub fn new(
        profile: ByzantineProfile,
        n: usize,
        sink: NodeId,
        seed: u64,
    ) -> Result<Self, ByzantineConfigError> {
        profile.validate()?;
        let seeds = SeedSequence::new(seed);
        let mut select_rng = seeded_rng(seeds.seed(0));
        let forge_seed = seeds.seed(1);
        let mut liars = vec![false; n];
        let mut pool: Vec<usize> = (0..n).filter(|&i| NodeId(i) != sink).collect();
        let target = ((n as f64) * profile.fraction).round() as usize;
        let count = target.min(pool.len());
        // Partial Fisher–Yates: the first `count` slots become the liar
        // subset, uniformly over all subsets of that size.
        for k in 0..count {
            let j = select_rng.gen_range(k..pool.len());
            pool.swap(k, j);
            liars[pool[k]] = true;
        }
        Ok(ByzantineInjector {
            profile,
            forge_seed,
            liars,
            liar_count: count,
            rng: seeded_rng(forge_seed),
        })
    }

    /// The profile in force.
    pub fn profile(&self) -> &ByzantineProfile {
        &self.profile
    }

    /// The strategy every liar follows.
    pub fn strategy(&self) -> ByzantineStrategy {
        self.profile.strategy
    }

    /// Number of lying nodes in this population.
    pub fn liar_count(&self) -> usize {
        self.liar_count
    }

    /// `true` if `node` lies on the data plane.
    pub fn is_liar(&self, node: NodeId) -> bool {
        self.liars.get(node.index()).copied().unwrap_or(false)
    }

    /// Rewinds the forgery stream for a fresh execution (the liar set is
    /// seed-determined and never changes).
    pub fn reset(&mut self) {
        self.rng = seeded_rng(self.forge_seed);
    }

    /// The origin a [`ByzantineStrategy::Forge`] liar mints its forged
    /// datum from: a uniformly chosen node id, drawn from the dedicated
    /// forgery stream.
    pub fn forged_origin(&mut self, n: usize) -> NodeId {
        NodeId(self.rng.gen_range(0..n))
    }
}

/// One applied transmission as the audit trail records it: the transfer
/// log entry a verifying sink keeps, keyed by the interaction index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receipt {
    /// Interaction index at which the transfer was applied.
    pub time: Time,
    /// The transmitting node.
    pub sender: NodeId,
    /// The receiving node.
    pub receiver: NodeId,
    /// Original data units the sender carried going into the transfer.
    pub carried_units: u64,
    /// Original data units actually delivered to the receiver
    /// (`carried_units` for an honest transfer).
    pub delivered_units: u64,
    /// `Some(strategy)` when the sender lied on this transfer.
    pub corruption: Option<ByzantineStrategy>,
}

impl Receipt {
    /// `true` when the transfer was honest: nothing forged, dropped,
    /// duplicated or replaced.
    pub fn is_honest(&self) -> bool {
        self.corruption.is_none()
    }
}

/// Observer of audit receipts, called once per applied transmission in
/// time order by [`crate::engine::Engine::run_audited`] — the
/// [`crate::engine::TransmissionSink`] analogue for the audit trail.
pub trait ReceiptSink {
    /// Records one transfer receipt.
    fn record(&mut self, receipt: Receipt);
}

impl ReceiptSink for Vec<Receipt> {
    #[inline]
    fn record(&mut self, receipt: Receipt) {
        self.push(receipt);
    }
}

/// The first corrupted transfer of a run: who lied, when, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evidence {
    /// Interaction index of the corrupted transfer.
    pub time: Time,
    /// The lying node.
    pub liar: NodeId,
    /// The strategy it applied.
    pub strategy: ByzantineStrategy,
}

/// How a run classifies once the receipt ledger is reconciled against
/// the aggregate's guarantees — the figure of merit of the Byzantine
/// axis, carried on `TrialResult` and over the service wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No transfer was corrupted.
    Clean,
    /// The aggregate is exactly conserved and the ledger exposes the
    /// discrepancy: the corruption is caught, with evidence.
    Detected {
        /// The first corrupted transfer.
        evidence: Evidence,
    },
    /// The aggregate absorbs this strategy by construction: the value is
    /// still right despite the lie.
    Tolerated,
    /// The aggregate can neither detect nor absorb the lie: the sink
    /// value is silently wrong.
    Corrupted,
}

impl Verdict {
    /// A stable, human-readable label: `"clean"`, `"detected"`,
    /// `"tolerated"`, `"corrupted"`.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::Detected { .. } => "detected",
            Verdict::Tolerated => "tolerated",
            Verdict::Corrupted => "corrupted",
        }
    }
}

/// The sink-side audit accumulator: a constant-size reduction of the
/// receipt ledger, enough to classify the run via [`Tally::verdict`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    transfers: u64,
    corrupted: u64,
    carried_units: u64,
    delivered_units: u64,
    first_evidence: Option<Evidence>,
}

impl Tally {
    /// A fresh tally with no receipts recorded.
    pub fn new() -> Self {
        Tally::default()
    }

    /// Total transfers recorded (honest and corrupted).
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Corrupted transfers recorded.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// Sum of the units senders carried into their transfers.
    pub fn carried_units(&self) -> u64 {
        self.carried_units
    }

    /// Sum of the units actually delivered: differs from
    /// [`Tally::carried_units`] exactly when a corrupting transfer
    /// slipped into the run.
    pub fn delivered_units(&self) -> u64 {
        self.delivered_units
    }

    /// `true` when no corrupted transfer was recorded.
    pub fn is_clean(&self) -> bool {
        self.corrupted == 0
    }

    /// Classifies the run for an aggregate of type `A`: the corruption
    /// evidence in the ledger reconciled against the aggregate's
    /// guarantees ([`Aggregate::EXACT_CONSERVATION`],
    /// [`Aggregate::DUPLICATE_INSENSITIVE`], [`Aggregate::IDEMPOTENT`]).
    ///
    /// * No corrupted transfer → [`Verdict::Clean`].
    /// * [`Duplicate`](ByzantineStrategy::Duplicate) — absorbed by
    ///   duplicate-insensitive aggregates ([`Verdict::Tolerated`]),
    ///   caught by exactly conserved ones ([`Verdict::Detected`]),
    ///   silent otherwise.
    /// * [`Forge`](ByzantineStrategy::Forge) — caught by exactly
    ///   conserved aggregates; idempotent range-bounded aggregates
    ///   absorb a forged initial datum; silent otherwise.
    /// * [`DropCarried`](ByzantineStrategy::DropCarried) /
    ///   [`Equivocate`](ByzantineStrategy::Equivocate) — caught by
    ///   exactly conserved aggregates, silent for everything else
    ///   (a dropped contribution cannot be told from one that never
    ///   arrived).
    pub fn verdict<A: Aggregate>(&self) -> Verdict {
        let Some(evidence) = self.first_evidence else {
            return Verdict::Clean;
        };
        match evidence.strategy {
            ByzantineStrategy::Duplicate => {
                if A::DUPLICATE_INSENSITIVE {
                    Verdict::Tolerated
                } else if A::EXACT_CONSERVATION {
                    Verdict::Detected { evidence }
                } else {
                    Verdict::Corrupted
                }
            }
            ByzantineStrategy::Forge => {
                if A::EXACT_CONSERVATION {
                    Verdict::Detected { evidence }
                } else if A::IDEMPOTENT {
                    Verdict::Tolerated
                } else {
                    Verdict::Corrupted
                }
            }
            ByzantineStrategy::DropCarried | ByzantineStrategy::Equivocate => {
                if A::EXACT_CONSERVATION {
                    Verdict::Detected { evidence }
                } else {
                    Verdict::Corrupted
                }
            }
        }
    }
}

impl ReceiptSink for Tally {
    fn record(&mut self, receipt: Receipt) {
        self.transfers += 1;
        self.carried_units += receipt.carried_units;
        self.delivered_units += receipt.delivered_units;
        if let Some(strategy) = receipt.corruption {
            self.corrupted += 1;
            if self.first_evidence.is_none() {
                self.first_evidence = Some(Evidence {
                    time: receipt.time,
                    liar: receipt.sender,
                    strategy,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{DistinctSketch, QuantileSketch};
    use crate::data::{Count, IdSet, MaxData, MinData, SumData};

    fn receipt(time: Time, sender: usize, corruption: Option<ByzantineStrategy>) -> Receipt {
        Receipt {
            time,
            sender: NodeId(sender),
            receiver: NodeId(0),
            carried_units: 2,
            delivered_units: if corruption.is_some() { 3 } else { 2 },
            corruption,
        }
    }

    #[test]
    fn profile_labels_are_stable() {
        assert_eq!(ByzantineProfile::forge(0.1).label(), "forge(0.1)");
        assert_eq!(ByzantineProfile::duplicate(0.25).label(), "duplicate(0.25)");
        assert_eq!(
            ByzantineProfile::drop_carried(0.5).label(),
            "drop-carried(0.5)"
        );
        assert_eq!(
            ByzantineProfile::equivocate(0.05).label(),
            "equivocate(0.05)"
        );
        assert_eq!(ByzantineProfile::forge(0.0).label(), "none");
        assert!(ByzantineProfile::forge(0.0).is_none());
        assert!(!ByzantineProfile::forge(0.1).is_none());
    }

    #[test]
    fn profile_validation_rejects_bad_fractions() {
        assert!(ByzantineProfile::forge(0.0).validate().is_ok());
        assert!(ByzantineProfile::forge(1.0).validate().is_ok());
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = ByzantineProfile::forge(bad).validate().unwrap_err();
            assert!(matches!(err, ByzantineConfigError::InvalidFraction { .. }));
            assert!(err.to_string().contains("outside [0, 1]"));
        }
    }

    #[test]
    fn liar_selection_is_seeded_sink_free_and_sized() {
        let profile = ByzantineProfile::forge(0.3);
        let a = ByzantineInjector::new(profile, 20, NodeId(0), 7).unwrap();
        let b = ByzantineInjector::new(profile, 20, NodeId(0), 7).unwrap();
        let c = ByzantineInjector::new(profile, 20, NodeId(0), 8).unwrap();
        assert_eq!(a.liar_count(), 6);
        assert!(!a.is_liar(NodeId(0)), "the sink never lies");
        let liars = |inj: &ByzantineInjector| -> Vec<bool> {
            (0..20).map(|i| inj.is_liar(NodeId(i))).collect()
        };
        assert_eq!(liars(&a), liars(&b), "same seed, same liars");
        assert_ne!(liars(&a), liars(&c), "seeds vary the subset");
    }

    #[test]
    fn zero_fraction_fields_no_liars_and_full_fraction_spares_the_sink() {
        let none = ByzantineInjector::new(ByzantineProfile::forge(0.0), 10, NodeId(0), 1).unwrap();
        assert_eq!(none.liar_count(), 0);
        let all = ByzantineInjector::new(ByzantineProfile::forge(1.0), 10, NodeId(3), 1).unwrap();
        assert_eq!(all.liar_count(), 9, "everyone but the sink");
        assert!(!all.is_liar(NodeId(3)));
    }

    #[test]
    fn forgery_stream_is_deterministic_and_reset_rewinds_it() {
        let mut inj =
            ByzantineInjector::new(ByzantineProfile::forge(0.2), 16, NodeId(0), 42).unwrap();
        let first: Vec<NodeId> = (0..8).map(|_| inj.forged_origin(16)).collect();
        inj.reset();
        let second: Vec<NodeId> = (0..8).map(|_| inj.forged_origin(16)).collect();
        assert_eq!(first, second, "reset must rewind the forgery stream");
        assert!(first.iter().all(|v| v.index() < 16));
    }

    #[test]
    fn tally_accumulates_the_ledger_and_keeps_first_evidence() {
        let mut tally = Tally::new();
        assert!(tally.is_clean());
        assert_eq!(tally.verdict::<Count>(), Verdict::Clean);
        tally.record(receipt(3, 4, None));
        assert!(tally.is_clean());
        tally.record(receipt(5, 2, Some(ByzantineStrategy::Forge)));
        tally.record(receipt(9, 7, Some(ByzantineStrategy::Forge)));
        assert_eq!(tally.transfers(), 3);
        assert_eq!(tally.corrupted(), 2);
        assert_eq!(tally.carried_units(), 6);
        assert_eq!(tally.delivered_units(), 8);
        let evidence = tally.first_evidence.unwrap();
        assert_eq!(evidence.time, 5);
        assert_eq!(evidence.liar, NodeId(2));
        assert_eq!(evidence.strategy, ByzantineStrategy::Forge);
        assert_eq!(tally.verdict::<Count>(), Verdict::Detected { evidence });
    }

    #[test]
    fn verdict_matrix_matches_the_aggregate_guarantees() {
        use ByzantineStrategy::*;
        fn tally_for(strategy: ByzantineStrategy) -> Tally {
            let mut tally = Tally::new();
            tally.record(receipt(1, 2, Some(strategy)));
            tally
        }
        // Exactly conserved aggregates detect every strategy.
        for strategy in [Forge, Duplicate, DropCarried, Equivocate] {
            let tally = tally_for(strategy);
            assert!(
                matches!(tally.verdict::<Count>(), Verdict::Detected { .. }),
                "{strategy:?}"
            );
            assert!(matches!(
                tally.verdict::<SumData>(),
                Verdict::Detected { .. }
            ));
        }
        // IdSet is exactly conserved *and* duplicate-insensitive: the
        // tolerance wins for Duplicate (the value is provably unchanged).
        assert_eq!(tally_for(Duplicate).verdict::<IdSet>(), Verdict::Tolerated);
        assert!(matches!(
            tally_for(Forge).verdict::<IdSet>(),
            Verdict::Detected { .. }
        ));
        // Idempotent sketches and order statistics absorb forgery and
        // duplication, but silently lose dropped contributions.
        for strategy in [Forge, Duplicate] {
            assert_eq!(tally_for(strategy).verdict::<MinData>(), Verdict::Tolerated);
            assert_eq!(tally_for(strategy).verdict::<MaxData>(), Verdict::Tolerated);
            assert_eq!(
                tally_for(strategy).verdict::<DistinctSketch>(),
                Verdict::Tolerated
            );
        }
        for strategy in [DropCarried, Equivocate] {
            assert_eq!(tally_for(strategy).verdict::<MinData>(), Verdict::Corrupted);
            assert_eq!(
                tally_for(strategy).verdict::<DistinctSketch>(),
                Verdict::Corrupted
            );
        }
        // The quantile sketch has no guarantee to lean on at all.
        for strategy in [Forge, Duplicate, DropCarried, Equivocate] {
            assert_eq!(
                tally_for(strategy).verdict::<QuantileSketch>(),
                Verdict::Corrupted,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn verdict_labels_are_stable() {
        assert_eq!(Verdict::Clean.label(), "clean");
        assert_eq!(Verdict::Tolerated.label(), "tolerated");
        assert_eq!(Verdict::Corrupted.label(), "corrupted");
        let detected = Verdict::Detected {
            evidence: Evidence {
                time: 0,
                liar: NodeId(1),
                strategy: ByzantineStrategy::Forge,
            },
        };
        assert_eq!(detected.label(), "detected");
    }

    #[test]
    fn receipts_collect_into_a_vec_sink() {
        let mut log: Vec<Receipt> = Vec::new();
        log.record(receipt(0, 1, None));
        log.record(receipt(1, 2, Some(ByzantineStrategy::Duplicate)));
        assert_eq!(log.len(), 2);
        assert!(log[0].is_honest());
        assert!(!log[1].is_honest());
    }
}
