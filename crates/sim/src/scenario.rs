//! The unified scenario registry.
//!
//! A [`Scenario`] names one member of the composable space of interaction
//! processes the sweep stack can run against: the synthetic workload
//! generators of `doda-workloads` *and* the adversaries of
//! `doda-adversary` (weighted randomized, the oblivious star-then-ring
//! trap, and the sweepable online **adaptive** isolator). Every consumer —
//! the sharded batch runner ([`crate::runner::run_scenario_trials`]), the
//! `doda-bench` perf grid, the experiment harness and the examples —
//! enumerates the same registry instead of hand-wiring its own list of
//! generators.
//!
//! Every scenario yields a seeded streaming [`InteractionSource`] over any
//! admissible node count. Non-adaptive scenarios can additionally be
//! [`materialize`]d into a concrete [`InteractionSequence`] for the
//! knowledge oracles; adaptive ones cannot (their stream depends on the
//! execution itself), which is exactly the [`Scenario::supports`] rule.
//!
//! [`materialize`]: Scenario::materialize

use doda_adversary::{
    CrashAwareIsolator, IsolatorAdversary, ObliviousTrap, RoundIsolator, WeightedRandomAdversary,
};
use doda_core::byzantine::{ByzantineConfigError, ByzantineProfile};
use doda_core::fault::{FaultConfigError, FaultProfile, FaultedSource};
use doda_core::round::{FlattenedRounds, RoundSource};
use doda_core::{InteractionSequence, InteractionSource};
use doda_stats::rng::SeedSequence;
use doda_workloads::{
    BodyAreaWorkload, CommunityWorkload, IntervalConnectedWorkload, RandomMatchingWorkload,
    RoundWorkload, TorusContactWorkload, TournamentWorkload, UniformWorkload, VehicularWorkload,
    Workload, ZipfWorkload,
};

use crate::spec::AlgorithmSpec;
use crate::trial::{ByzantineInjection, FaultInjection};

/// One entry of the unified scenario space: a named, seeded family of
/// interaction sources parameterised by the node count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Uniform random contacts — the randomized adversary of Section 4.
    Uniform,
    /// Zipf-popularity contacts (hub-and-spoke mobility).
    Zipf {
        /// Zipf exponent of the popularity law.
        exponent: f64,
    },
    /// Community-structured contacts with rare bridge interactions.
    Community {
        /// Number of equal-sized communities (needs `n ≥ 2·communities`).
        communities: usize,
        /// Probability of an intra-community contact.
        p_intra: f64,
    },
    /// Periodic body-area sensor reports to a hub.
    BodyArea,
    /// Vehicular random-walk contacts on a `√n × √n` road grid.
    Vehicular,
    /// The non-uniform randomized adversary: pairs drawn proportionally to
    /// Zipf popularity weights (the paper's concluding question 3).
    WeightedZipf {
        /// Zipf exponent of the weight law.
        exponent: f64,
    },
    /// The oblivious star-then-ring trap of Theorem 2 (deterministic; the
    /// seed is ignored).
    ObliviousTrap,
    /// The online **adaptive** isolator adversary: starves the sink while
    /// more than one non-sink node owns data (deterministic; the seed is
    /// ignored). A scenario whose stream depends on the execution.
    AdaptiveIsolator,
    /// The **crash-aware** adaptive adversary: targets the current owner
    /// set and never releases anyone to the sink, so that under a crash
    /// fault plan every datum's fate is decided by faults, not
    /// transmissions (deterministic; the seed is ignored). Adaptive.
    CrashAwareIsolator,
    /// **Round scenario** — each round a uniformly random near-perfect
    /// matching: the round-model analogue of the uniform randomized
    /// adversary.
    RandomMatching,
    /// **Round scenario** — the deterministic round-robin tournament
    /// (circle method): every pair meets once per cycle, each round a
    /// perfect matching (the seed is ignored).
    Tournament,
    /// **Round scenario** — a `T`-interval-connected evolving graph: a
    /// random spanning path held stable for `t` rounds, served as
    /// alternating-edge matchings.
    IntervalConnected {
        /// The stability window, in rounds (`≥ 2`).
        t: usize,
    },
    /// **Round scenario** — the round-level trap that keeps the sink
    /// unmatched every round, starving every algorithm (deterministic;
    /// the seed is ignored).
    RoundIsolator,
    /// **Round scenario** — a CSR-backed contact process on a `⌈√n⌉`-side
    /// torus grid: the sparse underlying graph is compiled once, and each
    /// round greedily matches the edges active with probability 1/2. The
    /// large-n round scenario: `O(n)` memory, `O(n)` work per round.
    TorusContact,
}

impl Scenario {
    /// The default-parameterised registry, in display order: every
    /// scenario the sweep stack knows how to run.
    pub fn registry() -> Vec<Scenario> {
        vec![
            Scenario::Uniform,
            Scenario::Zipf { exponent: 1.2 },
            Scenario::Community {
                communities: 4,
                p_intra: 0.9,
            },
            Scenario::BodyArea,
            Scenario::Vehicular,
            Scenario::WeightedZipf { exponent: 1.2 },
            Scenario::ObliviousTrap,
            Scenario::AdaptiveIsolator,
            Scenario::CrashAwareIsolator,
            Scenario::RandomMatching,
            Scenario::Tournament,
            Scenario::IntervalConnected { t: 8 },
            Scenario::RoundIsolator,
            Scenario::TorusContact,
        ]
    }

    /// The label used in reports, benchmark grids and `BENCH_*.json`.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Uniform => "uniform",
            Scenario::Zipf { .. } => "zipf",
            Scenario::Community { .. } => "community",
            Scenario::BodyArea => "body-area",
            Scenario::Vehicular => "vehicular",
            Scenario::WeightedZipf { .. } => "weighted-zipf",
            Scenario::ObliviousTrap => "oblivious-trap",
            Scenario::AdaptiveIsolator => "adaptive-isolator",
            Scenario::CrashAwareIsolator => "crash-aware-isolator",
            Scenario::RandomMatching => "random-matching",
            Scenario::Tournament => "tournament",
            Scenario::IntervalConnected { .. } => "interval-connected",
            Scenario::RoundIsolator => "round-isolator",
            Scenario::TorusContact => "torus-contact",
        }
    }

    /// Looks a scenario up by its [`name`](Scenario::name), with the
    /// registry's default parameters.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::registry().into_iter().find(|s| s.name() == name)
    }

    /// `true` iff the scenario's stream depends on the execution (the
    /// online adaptive adversary) and therefore cannot be materialised
    /// faithfully.
    pub fn is_adaptive(&self) -> bool {
        matches!(
            self,
            Scenario::AdaptiveIsolator | Scenario::CrashAwareIsolator
        )
    }

    /// `true` iff the scenario is **round-based**: it natively yields a
    /// matching of disjoint interactions per synchronous round (see
    /// [`Scenario::round_source`]). Its pairwise [`source`] view is the
    /// flattened round stream.
    ///
    /// [`source`]: Scenario::source
    pub fn is_round(&self) -> bool {
        matches!(
            self,
            Scenario::RandomMatching
                | Scenario::Tournament
                | Scenario::IntervalConnected { .. }
                | Scenario::RoundIsolator
                | Scenario::TorusContact
        )
    }

    /// The smallest node count the scenario admits.
    pub fn min_nodes(&self) -> usize {
        match self {
            Scenario::Community { communities, .. } => 2 * (*communities).max(1),
            Scenario::BodyArea | Scenario::CrashAwareIsolator | Scenario::RoundIsolator => 3,
            Scenario::ObliviousTrap => 4,
            _ => 2,
        }
    }

    /// `true` iff `spec` can run against this scenario: everything runs
    /// against the non-adaptive scenarios, while adaptive scenarios only
    /// admit knowledge-free algorithms (their oracles would require
    /// materialising a stream that depends on the execution itself).
    pub fn supports(&self, spec: AlgorithmSpec) -> bool {
        !(self.is_adaptive() && spec.requires_materialization())
    }

    /// A seeded streaming source over `n` nodes. The adversarial
    /// constructions are deterministic and ignore the seed; everything
    /// else streams the exact interactions its workload would materialise.
    /// Round scenarios stream their **flattened** round schedule — each
    /// round's matching, one interaction per step, in matching order (the
    /// view every pairwise consumer gets: materialisation, oracles, fault
    /// plans).
    ///
    /// # Panics
    ///
    /// Panics if `n < self.min_nodes()`.
    pub fn source(&self, n: usize, seed: u64) -> Box<dyn InteractionSource + Send> {
        if let Some(rounds) = self.round_source(n, seed) {
            return Box::new(FlattenedRounds::new(rounds));
        }
        match self {
            Scenario::WeightedZipf { exponent } => {
                Box::new(WeightedRandomAdversary::zipf(n, *exponent, seed))
            }
            Scenario::ObliviousTrap => {
                Box::new(ObliviousTrap::for_greedy_algorithms(n).adversary())
            }
            Scenario::AdaptiveIsolator => Box::new(IsolatorAdversary::new(n)),
            Scenario::CrashAwareIsolator => Box::new(CrashAwareIsolator::new(n)),
            workload_backed => workload_backed
                .workload(n)
                .expect("non-adversary scenarios are workload-backed")
                .source(seed),
        }
    }

    /// A seeded **round** source over `n` nodes, for the round scenarios
    /// (`None` for the pairwise ones). This is the native view the round
    /// engine ([`doda_core::Engine::run_rounds`]) consumes; the
    /// [`source`](Scenario::source) view of the same scenario is the
    /// flattened equivalent.
    ///
    /// # Panics
    ///
    /// Panics if `n < self.min_nodes()`.
    pub fn round_source(&self, n: usize, seed: u64) -> Option<Box<dyn RoundSource + Send>> {
        match self {
            Scenario::RandomMatching => Some(RandomMatchingWorkload::new(n).rounds(seed)),
            Scenario::Tournament => Some(TournamentWorkload::new(n).rounds(seed)),
            Scenario::IntervalConnected { t } => {
                Some(IntervalConnectedWorkload::new(n, *t).rounds(seed))
            }
            Scenario::RoundIsolator => Some(Box::new(RoundIsolator::new(n))),
            Scenario::TorusContact => Some(TorusContactWorkload::new(n).rounds(seed)),
            _ => None,
        }
    }

    /// The backing [`Workload`], for the scenarios that have one (`None`
    /// for the adversary-backed entries).
    pub fn workload(&self, n: usize) -> Option<Box<dyn Workload + Send + Sync>> {
        match self {
            Scenario::Uniform => Some(Box::new(UniformWorkload::new(n))),
            Scenario::Zipf { exponent } => Some(Box::new(ZipfWorkload::new(n, *exponent))),
            Scenario::Community {
                communities,
                p_intra,
            } => Some(Box::new(CommunityWorkload::new(n, *communities, *p_intra))),
            Scenario::BodyArea => Some(Box::new(BodyAreaWorkload::new(n))),
            Scenario::Vehicular => {
                // A square-ish grid: side ≈ √n keeps the road density
                // comparable across node counts.
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                Some(Box::new(VehicularWorkload::new(n, side)))
            }
            Scenario::WeightedZipf { .. }
            | Scenario::ObliviousTrap
            | Scenario::AdaptiveIsolator
            | Scenario::CrashAwareIsolator
            | Scenario::RandomMatching
            | Scenario::Tournament
            | Scenario::IntervalConnected { .. }
            | Scenario::RoundIsolator
            | Scenario::TorusContact => None,
        }
    }

    /// Materialises the first `len` interactions of the scenario's stream,
    /// or `None` for adaptive scenarios (no faithful sequence exists).
    pub fn materialize(&self, n: usize, len: usize, seed: u64) -> Option<InteractionSequence> {
        if self.is_adaptive() {
            return None;
        }
        Some(InteractionSequence::materialize(
            self.source(n, seed).as_mut(),
            len,
        ))
    }
}

impl Scenario {
    /// Layers a fault profile over this scenario, producing an entry of
    /// the faulted scenario space (see [`FaultedScenario`]).
    pub fn with_faults(self, profile: FaultProfile) -> FaultedScenario {
        FaultedScenario {
            base: self,
            faults: Some(profile),
            byzantine: None,
        }
    }

    /// Layers a Byzantine profile over this scenario, producing an entry
    /// of the faulted scenario space (see [`FaultedScenario`]). The
    /// schedule is untouched — liars corrupt the data plane only, and the
    /// trial runner routes such entries through the audited engine path.
    pub fn with_byzantine(self, profile: ByzantineProfile) -> FaultedScenario {
        FaultedScenario {
            base: self,
            faults: None,
            byzantine: Some(profile),
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One entry of the **faulted** scenario space: a base interaction
/// process plus an optional deterministic fault plan layered on top.
///
/// This is the axis product the sweep stack actually enumerates: every
/// [`Scenario`] converts losslessly (`faults: None`) via `From`, so all
/// existing call sites keep working, while
/// [`FaultedScenario::registry`] adds the fault-profile variants
/// (`uniform+crash(p)`, `vehicular+churn(..)`, …) that every consumer —
/// the sharded runner, `doda-bench`, the experiment harness — picks up
/// for free.
///
/// Execution semantics: the **base** stream is what oracles see and what
/// the materialising path fills its sequence from (knowledge describes
/// the committed schedule, not the faults); the fault plan is injected
/// at execution time by the trial runner, per trial, from a sub-seed
/// derived from the trial seed. A fault-free `FaultedScenario` therefore
/// produces byte-identical trials to its plain [`Scenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultedScenario {
    /// The base interaction process.
    pub base: Scenario,
    /// The fault plan layered on top, if any.
    pub faults: Option<FaultProfile>,
    /// The Byzantine plan layered on the data plane, if any. Unlike the
    /// fault plan it never perturbs the schedule: liars corrupt what they
    /// transmit, and the runner audits every transfer
    /// ([`crate::trial::TrialConfig::byzantine`]).
    pub byzantine: Option<ByzantineProfile>,
}

impl From<Scenario> for FaultedScenario {
    fn from(base: Scenario) -> Self {
        FaultedScenario {
            base,
            faults: None,
            byzantine: None,
        }
    }
}

impl FaultedScenario {
    /// The default-parameterised faulted registry: every fault-free
    /// scenario of [`Scenario::registry`], followed by the pinned
    /// fault-profile variants of the new axis.
    pub fn registry() -> Vec<FaultedScenario> {
        let mut entries: Vec<FaultedScenario> =
            Scenario::registry().into_iter().map(Into::into).collect();
        entries.extend([
            Scenario::Uniform.with_faults(FaultProfile::crash(0.002)),
            Scenario::Uniform.with_faults(FaultProfile::crash_recoverable(0.002)),
            Scenario::Zipf { exponent: 1.2 }.with_faults(FaultProfile::lossy(0.2)),
            Scenario::Vehicular.with_faults(FaultProfile::churn(0.002, 0.004)),
            Scenario::CrashAwareIsolator.with_faults(FaultProfile::crash(0.005)),
            // Round scenarios cross the fault axis through their flattened
            // stream: losses drop matched pairs, crashes decide data fates
            // under the sink-unmatched trap.
            Scenario::RandomMatching.with_faults(FaultProfile::lossy(0.2)),
            Scenario::RoundIsolator.with_faults(FaultProfile::crash(0.005)),
            // The Byzantine axis: liars corrupt the data plane under the
            // committed schedule. One variant per strategy, plus a
            // fault × byzantine product entry (crashes delay the schedule
            // while forgers pollute it) and a round-scenario crossing
            // (audited over the flattened stream).
            Scenario::Uniform.with_byzantine(ByzantineProfile::forge(0.1)),
            Scenario::Uniform.with_byzantine(ByzantineProfile::duplicate(0.1)),
            Scenario::Zipf { exponent: 1.2 }.with_byzantine(ByzantineProfile::drop_carried(0.1)),
            Scenario::Vehicular.with_byzantine(ByzantineProfile::equivocate(0.1)),
            Scenario::Uniform
                .with_faults(FaultProfile::crash(0.002))
                .with_byzantine(ByzantineProfile::forge(0.1)),
            Scenario::RandomMatching.with_byzantine(ByzantineProfile::forge(0.1)),
        ]);
        entries
    }

    /// The label used in reports and `BENCH_*.json`: the base name, plus
    /// `+<fault label>` and/or `+<byzantine label>` for each plan present
    /// (e.g. `"uniform+crash(0.002)"`, `"uniform+forge(0.1)"`,
    /// `"uniform+crash(0.002)+forge(0.1)"`).
    pub fn name(&self) -> String {
        let mut name = self.base.name().to_string();
        if let Some(profile) = &self.faults {
            name.push('+');
            name.push_str(&profile.label());
        }
        if let Some(profile) = &self.byzantine {
            name.push('+');
            name.push_str(&profile.label());
        }
        name
    }

    /// Looks an entry up by its [`name`](FaultedScenario::name) among the
    /// registry defaults.
    pub fn by_name(name: &str) -> Option<FaultedScenario> {
        FaultedScenario::registry()
            .into_iter()
            .find(|s| s.name() == name)
    }

    /// The label of the fault plan (`"none"` when fault-free) — the
    /// `fault_profile` column of the bench schema.
    pub fn fault_label(&self) -> String {
        self.faults
            .map_or_else(|| "none".to_string(), |p| p.label())
    }

    /// Layers a Byzantine profile over this entry, keeping any fault plan
    /// — the builder behind the registry's fault × byzantine product
    /// entries.
    pub fn with_byzantine(mut self, profile: ByzantineProfile) -> FaultedScenario {
        self.byzantine = Some(profile);
        self
    }

    /// The label of the Byzantine plan (`"none"` when absent) — the
    /// `byzantine_profile` column of the bench schema.
    pub fn byzantine_label(&self) -> String {
        self.byzantine
            .map_or_else(|| "none".to_string(), |p| p.label())
    }

    /// Delegates to [`Scenario::is_adaptive`]: faults never change
    /// whether the *base* stream depends on the execution.
    pub fn is_adaptive(&self) -> bool {
        self.base.is_adaptive()
    }

    /// Delegates to [`Scenario::supports`]: oracles are built from the
    /// base stream, so the compatibility rule is the base's.
    pub fn supports(&self, spec: AlgorithmSpec) -> bool {
        self.base.supports(spec)
    }

    /// Delegates to [`Scenario::is_round`]: faults never change whether
    /// the base schedule is round-based.
    pub fn is_round(&self) -> bool {
        self.base.is_round()
    }

    /// The smallest node count the entry admits: the base's floor, never
    /// below the fault plan's live floor.
    pub fn min_nodes(&self) -> usize {
        let floor = self.faults.map_or(0, |p| p.min_live);
        self.base.min_nodes().max(floor)
    }

    /// Validates the fault plan for an execution over `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns the typed [`FaultConfigError`] for a plan that could hang
    /// the execution (live floor below 2), exceed the node count, or
    /// carry an out-of-range probability. Fault-free entries always pass.
    pub fn validate(&self, n: usize) -> Result<(), FaultConfigError> {
        match &self.faults {
            None => Ok(()),
            Some(profile) => profile.validate(n),
        }
    }

    /// Validates the Byzantine plan (fraction within `[0, 1]`).
    /// Byzantine-free entries always pass.
    ///
    /// # Errors
    ///
    /// Returns the typed [`ByzantineConfigError`] for an out-of-range
    /// lying fraction.
    pub fn validate_byzantine(&self) -> Result<(), ByzantineConfigError> {
        match &self.byzantine {
            None => Ok(()),
            Some(profile) => profile.validate(),
        }
    }

    /// The per-trial fault injection: the profile plus a fault-stream
    /// seed derived from (but independent of) the trial seed, so base
    /// stream and fault stream never share randomness.
    pub fn fault_injection(&self, trial_seed: u64) -> Option<FaultInjection> {
        self.faults.map(|profile| FaultInjection {
            profile,
            seed: SeedSequence::new(trial_seed).seed(FAULT_STREAM_LABEL),
        })
    }

    /// The per-trial Byzantine injection: the profile plus a seed for the
    /// liar-selection/forgery streams, derived from (but independent of)
    /// the trial seed — and of the fault stream's, so neither plane
    /// perturbs the other's randomness. `Some` whenever a profile is
    /// attached, even at fraction `0` (a zero-liar plan still runs the
    /// audited path and earns a `Clean` verdict).
    pub fn byzantine_injection(&self, trial_seed: u64) -> Option<ByzantineInjection> {
        self.byzantine.map(|profile| ByzantineInjection {
            profile,
            seed: SeedSequence::new(trial_seed).seed(BYZANTINE_STREAM_LABEL),
        })
    }

    /// A seeded streaming source with the fault plan already applied —
    /// the composite view for direct engine use (sweeps go through
    /// [`crate::runner::run_scenario_trials`], which injects faults per
    /// trial instead).
    ///
    /// # Panics
    ///
    /// Panics if `n < self.min_nodes()` (propagated from the base) or if
    /// the fault plan is invalid for `n` (use
    /// [`validate`](FaultedScenario::validate) for the typed error).
    pub fn source(&self, n: usize, seed: u64) -> Box<dyn InteractionSource + Send> {
        let base = self.base.source(n, seed);
        match self.fault_injection(seed) {
            None => base,
            Some(injection) => Box::new(
                FaultedSource::new(base, injection.profile, injection.seed)
                    .unwrap_or_else(|e| panic!("invalid fault plan for '{}': {e}", self.name())),
            ),
        }
    }
}

/// The seed-stream label separating fault randomness from the base
/// stream's (see [`FaultedScenario::fault_injection`]).
const FAULT_STREAM_LABEL: u64 = 0xFA;

/// The seed-stream label separating Byzantine randomness (liar selection
/// and forgery draws) from the base and fault streams' (see
/// [`FaultedScenario::byzantine_injection`]; `pub(crate)` so workload
/// sweeps seed their Byzantine plans identically).
pub(crate) const BYZANTINE_STREAM_LABEL: u64 = 0xB2;

impl std::fmt::Display for FaultedScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_core::sequence::AdversaryView;
    use doda_graph::NodeId;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let registry = Scenario::registry();
        for s in &registry {
            assert_eq!(Scenario::by_name(s.name()), Some(*s));
            assert_eq!(s.to_string(), s.name());
        }
        let mut names: Vec<_> = registry.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry.len());
        assert_eq!(Scenario::by_name("no-such-scenario"), None);
    }

    #[test]
    fn every_scenario_streams_at_its_minimum_node_count() {
        for s in Scenario::registry() {
            for n in [s.min_nodes(), s.min_nodes() + 5] {
                let mut source = s.source(n, 7);
                assert_eq!(source.node_count(), n, "{s}");
                let owns = vec![true; n];
                let view = AdversaryView {
                    owns_data: &owns,
                    sink: NodeId(0),
                };
                for t in 0..50u64 {
                    let i = source
                        .next_interaction(t, &view)
                        .unwrap_or_else(|| panic!("{s} ran dry at t={t}, n={n}"));
                    assert!(i.max().index() < n, "{s}");
                }
            }
        }
    }

    /// Hides a source's obliviousness, so `fill_from` pulls it one
    /// `next_interaction` per step instead of in batches.
    struct PerStep<'a>(&'a mut dyn InteractionSource);

    impl InteractionSource for PerStep<'_> {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }

        fn next_interaction(
            &mut self,
            t: doda_core::Time,
            view: &AdversaryView<'_>,
        ) -> Option<doda_core::Interaction> {
            self.0.next_interaction(t, view)
        }
    }

    /// `fill_from` pulls oblivious sources in batches; the sequence must be
    /// the one a per-step pull builds, at lengths below, at and across the
    /// batch size, over a stale scratch of another node count and length.
    /// Covers every non-adaptive scenario, plus the two workloads no
    /// scenario is backed by.
    #[test]
    fn batched_fill_matches_per_step_fill() {
        type MakeSource = Box<dyn Fn() -> Box<dyn InteractionSource + Send>>;
        let mut cases: Vec<(String, MakeSource)> = Scenario::registry()
            .into_iter()
            .filter(|s| !s.is_adaptive())
            .map(|s| {
                let n = s.min_nodes().max(9);
                // Flattened round streams pull per step; the rest batch.
                if s.round_source(n, 13).is_none() {
                    assert!(s.source(n, 13).is_oblivious(), "{s}");
                }
                let make: MakeSource = Box::new(move || s.source(n, 13));
                (s.to_string(), make)
            })
            .collect();
        let workloads: [Box<dyn Workload>; 2] = [
            Box::new(doda_workloads::RoundRobinWorkload::all_pairs(9)),
            Box::new(doda_workloads::TreeRestrictedWorkload::random_tree(9)),
        ];
        for w in workloads {
            let name = w.name().to_string();
            assert!(w.source(13).is_oblivious(), "{name}");
            cases.push((name, Box::new(move || w.source(13))));
        }
        for (name, make) in &cases {
            for len in [0, 1, 200, 4096, 4096 * 2 + 33] {
                let mut batched = InteractionSequence::from_pairs(4, vec![(0, 3); 50]);
                batched.fill_from(make().as_mut(), len);
                let mut per_step = InteractionSequence::from_pairs(4, vec![(0, 3); 50]);
                per_step.fill_from(&mut PerStep(make().as_mut()), len);
                assert_eq!(batched, per_step, "{name} at len {len}");
                assert_eq!(batched.len(), len, "{name}");
            }
        }
    }

    #[test]
    fn materialization_matches_the_stream_for_non_adaptive_scenarios() {
        for s in Scenario::registry() {
            let n = s.min_nodes().max(8);
            match s.materialize(n, 120, 3) {
                None => assert!(s.is_adaptive(), "{s}"),
                Some(seq) => {
                    assert_eq!(seq.len(), 120, "{s}");
                    assert_eq!(seq.node_count(), n, "{s}");
                    // Deterministic: a second materialisation is identical.
                    assert_eq!(s.materialize(n, 120, 3), Some(seq), "{s}");
                }
            }
        }
    }

    #[test]
    fn adaptive_scenarios_only_support_knowledge_free_specs() {
        for s in Scenario::registry() {
            for spec in AlgorithmSpec::all() {
                let expected = !(s.is_adaptive() && spec.requires_materialization());
                assert_eq!(s.supports(spec), expected, "{s} / {spec}");
            }
        }
    }

    #[test]
    fn faulted_registry_extends_the_plain_registry() {
        let plain = Scenario::registry();
        let faulted = FaultedScenario::registry();
        assert!(faulted.len() > plain.len());
        // The plain registry embeds as the fault-free prefix.
        for (entry, base) in faulted.iter().zip(&plain) {
            assert_eq!(entry.base, *base);
            assert!(entry.faults.is_none());
            assert_eq!(entry.name(), base.name());
            assert_eq!(entry.fault_label(), "none");
        }
        // Names are unique and resolvable; faulted names carry the axis.
        let mut names: Vec<String> = faulted.iter().map(FaultedScenario::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), faulted.len());
        for entry in &faulted {
            assert_eq!(FaultedScenario::by_name(&entry.name()), Some(*entry));
            assert_eq!(entry.to_string(), entry.name());
            if let Some(profile) = entry.faults {
                assert!(entry.name().contains('+'));
                assert_eq!(entry.fault_label(), profile.label());
                assert!(entry.validate(entry.min_nodes()).is_ok());
            }
        }
        assert_eq!(FaultedScenario::by_name("uniform+crash(0.9999)"), None);
    }

    #[test]
    fn faulted_sources_stream_and_fault_free_entries_match_the_base() {
        use doda_core::StepEvent;

        let entry = Scenario::Uniform.with_faults(FaultProfile::crash(0.05));
        let n = 10;
        let mut source = entry.source(n, 7);
        let owns = vec![true; n];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(0),
        };
        let mut crashes = 0;
        for t in 0..2_000u64 {
            match source.next_event(t, &view) {
                Some(StepEvent::Crash { .. }) => crashes += 1,
                Some(_) => {}
                None => panic!("uniform+crash ran dry at t={t}"),
            }
        }
        assert!(crashes > 0, "a 5% crash plan must fire within 2000 steps");

        // A fault-free FaultedScenario streams exactly its base.
        let plain: FaultedScenario = Scenario::Uniform.into();
        let mut a = plain.source(n, 3);
        let mut b = Scenario::Uniform.source(n, 3);
        for t in 0..200u64 {
            assert_eq!(a.next_interaction(t, &view), b.next_interaction(t, &view));
        }
    }

    #[test]
    fn invalid_fault_plans_are_typed_errors_not_hangs() {
        use doda_core::fault::FaultConfigError;

        // A plan whose churn could strand the execution below 2 live
        // nodes is rejected up front with the typed error...
        let below_floor = Scenario::Uniform.with_faults(FaultProfile {
            min_live: 1,
            ..FaultProfile::crash(0.1)
        });
        assert_eq!(
            below_floor.validate(8),
            Err(FaultConfigError::MinLiveTooSmall { min_live: 1 })
        );
        // ...as is a floor the node count cannot satisfy.
        let oversized = Scenario::Uniform.with_faults(FaultProfile {
            min_live: 12,
            ..FaultProfile::churn(0.1, 0.1)
        });
        assert_eq!(
            oversized.validate(8),
            Err(FaultConfigError::MinLiveExceedsNodes { min_live: 12, n: 8 })
        );
        assert_eq!(oversized.min_nodes(), 12);
        // Fault-free entries always validate.
        assert!(FaultedScenario::from(Scenario::Uniform).validate(2).is_ok());
    }

    #[test]
    fn fault_injection_is_deterministic_and_independent_of_the_base_stream() {
        let entry = Scenario::Uniform.with_faults(FaultProfile::lossy(0.1));
        let a = entry.fault_injection(42).unwrap();
        let b = entry.fault_injection(42).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.seed, 42, "fault stream must not reuse the base seed");
        assert_ne!(
            entry.fault_injection(43).unwrap().seed,
            a.seed,
            "distinct trials draw distinct fault streams"
        );
        assert!(FaultedScenario::from(Scenario::Uniform)
            .fault_injection(42)
            .is_none());
    }

    #[test]
    fn byzantine_registry_entries_are_resolvable_and_validated() {
        let registry = FaultedScenario::registry();
        let byz: Vec<_> = registry.iter().filter(|e| e.byzantine.is_some()).collect();
        assert_eq!(byz.len(), 6, "one per strategy, a product and a round");
        for entry in &byz {
            assert!(entry.name().contains('+'), "{entry}");
            assert_eq!(entry.byzantine_label(), entry.byzantine.unwrap().label());
            assert!(entry.validate_byzantine().is_ok(), "{entry}");
            assert_eq!(FaultedScenario::by_name(&entry.name()), Some(**entry));
        }
        // The product entry carries both axes in its name.
        assert!(registry.iter().any(|e| e.faults.is_some()
            && e.byzantine.is_some()
            && e.name() == "uniform+crash(0.002)+forge(0.1)"));
        // Plain entries expose no byzantine plan.
        let plain = FaultedScenario::from(Scenario::Uniform);
        assert!(plain.byzantine_injection(42).is_none());
        assert_eq!(plain.byzantine_label(), "none");
    }

    #[test]
    fn byzantine_injection_is_deterministic_and_independent_of_other_streams() {
        let entry = Scenario::Uniform
            .with_faults(FaultProfile::crash(0.002))
            .with_byzantine(ByzantineProfile::forge(0.1));
        let a = entry.byzantine_injection(42).unwrap();
        assert_eq!(a, entry.byzantine_injection(42).unwrap());
        assert_ne!(a.seed, 42, "byzantine stream must not reuse the base seed");
        assert_ne!(
            a.seed,
            entry.fault_injection(42).unwrap().seed,
            "the two planes draw from distinct streams"
        );
        assert_ne!(
            entry.byzantine_injection(43).unwrap().seed,
            a.seed,
            "distinct trials draw distinct byzantine streams"
        );
        // A fraction-0 plan still yields an injection: the audited path
        // runs with zero liars and earns its Clean verdict.
        let transparent = Scenario::Uniform.with_byzantine(ByzantineProfile::forge(0.0));
        assert!(transparent.byzantine_injection(42).is_some());
    }

    #[test]
    fn round_scenarios_expose_round_sources_that_flatten_to_the_stream() {
        let mut round_scenarios = 0;
        for s in Scenario::registry() {
            let n = s.min_nodes().max(8);
            match s.round_source(n, 5) {
                None => assert!(!s.is_round(), "{s}"),
                Some(rounds) => {
                    round_scenarios += 1;
                    assert!(s.is_round(), "{s}");
                    assert!(!s.is_adaptive(), "{s}");
                    assert_eq!(rounds.node_count(), n, "{s}");
                    // The pairwise view is exactly the flattened schedule.
                    let mut flat = doda_core::FlattenedRounds::new(rounds);
                    let mut source = s.source(n, 5);
                    let owns = vec![true; n];
                    let view = AdversaryView {
                        owns_data: &owns,
                        sink: NodeId(0),
                    };
                    for t in 0..200u64 {
                        assert_eq!(
                            source.next_interaction(t, &view),
                            flat.next_interaction(t, &view),
                            "{s} diverged at t={t}"
                        );
                    }
                }
            }
        }
        assert_eq!(round_scenarios, 5);
    }

    #[test]
    fn workload_backed_scenarios_expose_their_workload() {
        for s in Scenario::registry() {
            let n = s.min_nodes().max(8);
            match s.workload(n) {
                Some(w) => assert_eq!(w.node_count(), n, "{s}"),
                None => assert!(
                    matches!(
                        s,
                        Scenario::WeightedZipf { .. }
                            | Scenario::ObliviousTrap
                            | Scenario::AdaptiveIsolator
                            | Scenario::CrashAwareIsolator
                    ) || s.is_round(),
                    "{s}"
                ),
            }
        }
    }
}
