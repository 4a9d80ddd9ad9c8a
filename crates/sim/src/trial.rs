//! Single-trial execution and metrics.
//!
//! [`TrialRunner`] is the sweep-facing entry point: it owns a reusable
//! [`Engine`] so that running thousands of trials reuses one set of
//! scratch allocations, and every entry point takes the [`DatumFamily`]
//! the nodes carry ([`ExactOrigins`] by default). [`TrialRunner::run`]
//! (materialised, for oracles that need the future),
//! [`TrialRunner::run_lookahead`] (Waiting Greedy's `meetTime` read ahead
//! on demand from a committed stream) and [`TrialRunner::run_streamed`]
//! (`O(n)` memory, any source) differ only in how they build the
//! algorithm and whether they price the cost: all run one execution,
//! where a fault plan wraps the source and a Byzantine plan selects the
//! audited data plane. The knowledge specs run boxed; a streamed trial
//! runs the knowledge-free rule ([`doda_core::LaneAlgorithm`]) by value,
//! so its `decide` inlines into the engine step. Round streams run
//! flattened on every path. The lane tier is fault-free and honest.

use doda_core::algebra::AggregateSummary;
use doda_core::byzantine::{ByzantineInjector, ByzantineProfile, Tally, Verdict};
use doda_core::cost::{cost_of_duration, Cost};
use doda_core::data::{Aggregate, IdSet};
use doda_core::engine::{DiscardTransmissions, Engine, EngineConfig, RunStats};
use doda_core::fault::{FaultProfile, FaultedSource};
use doda_core::lane::{LaneEngine, LaneRunStats};
use doda_core::outcome::{Completion, FaultTally};
use doda_core::{CommittedStream, DodaAlgorithm, InteractionSequence, InteractionSource, Time};
use doda_graph::NodeId;

use crate::datum::{DatumFamily, ExactOrigins};
use crate::spec::AlgorithmSpec;

/// A fully resolved per-trial fault plan: the profile plus the seed of
/// the dedicated fault stream. Built by
/// [`crate::scenario::FaultedScenario::fault_injection`] from the trial
/// seed; the runner injects it into the engine by wrapping the trial's
/// source in a [`FaultedSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjection {
    /// The fault plan.
    pub profile: FaultProfile,
    /// Seed of the fault stream (independent of the base stream's).
    pub seed: u64,
}

/// A fully resolved per-trial Byzantine plan: the profile plus the seed
/// of the liar-selection/forgery streams — the data-plane analogue of
/// [`FaultInjection`]. Built by
/// [`crate::scenario::FaultedScenario::byzantine_injection`] from the
/// trial seed; the runner injects it by routing the trial through
/// [`doda_core::Engine::run_audited`] with a per-trial
/// [`ByzantineInjector`] and [`Tally`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineInjection {
    /// The Byzantine plan.
    pub profile: ByzantineProfile,
    /// Seed of the liar-selection and forgery streams (independent of
    /// the base and fault streams').
    pub seed: u64,
}

/// Configuration of a single trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialConfig {
    /// The sink node.
    pub sink: NodeId,
    /// Interaction budget of the engine. For materialised trials `None`
    /// defaults to the sequence length (an algorithm that cannot finish on
    /// the sequence is reported as non-terminated); for streamed trials
    /// over an infinite source `None` falls back to the engine's default
    /// budget, so sweeps should always set it explicitly.
    pub max_interactions: Option<u64>,
    /// Whether to compute the paper's cost function for the outcome (adds
    /// `O(len log len)` work per convergecast, so sweeps usually disable it).
    pub compute_cost: bool,
    /// Cap on the number of successive convergecasts examined by the cost
    /// computation.
    pub max_convergecasts: u64,
    /// The fault plan injected over the trial's source, if any. On the
    /// materialised path the oracles are still built from the *base*
    /// sequence (knowledge describes the committed schedule, not the
    /// faults); the plan perturbs execution only, delaying the schedule
    /// under the algorithm so time-indexed knowledge grows stale by the
    /// number of fault events (see [`TrialRunner::run`]). Incompatible
    /// with [`TrialConfig::compute_cost`].
    pub fault: Option<FaultInjection>,
    /// The Byzantine plan injected over the trial's data plane, if any:
    /// the trial routes through the audited engine path
    /// ([`doda_core::Engine::run_audited`]) and the result carries a
    /// [`Verdict`]. The schedule — and any fault plan — composes
    /// unchanged; a plan with fraction `0` runs audited with zero liars
    /// and reproduces the unaudited trial byte for byte apart from the
    /// `Some(Clean)` verdict.
    pub byzantine: Option<ByzantineInjection>,
}

impl TrialConfig {
    /// The engine budget of an unmaterialised trial: the explicit one, or
    /// the engine's default.
    fn stream_budget(&self) -> u64 {
        self.max_interactions
            .unwrap_or(EngineConfig::default().max_interactions)
    }

    /// Asserts what the fault-free, honest lane tier requires: no cost, no
    /// fault plan and no Byzantine plan. Faulted and audited trials run on
    /// the scalar paths.
    fn assert_plain(&self) {
        assert!(
            !self.compute_cost,
            "the paper's cost function needs the materialised sequence; \
             lane trials cannot compute it"
        );
        assert!(
            self.fault.is_none(),
            "fault plans run on the scalar path; the lane tier is \
             fault-free by contract"
        );
        assert!(
            self.byzantine.is_none(),
            "byzantine plans run on the audited scalar path; the lane \
             tier is honest by contract"
        );
    }
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            sink: NodeId(0),
            max_interactions: None,
            compute_cost: false,
            max_convergecasts: 64,
            fault: None,
            byzantine: None,
        }
    }
}

/// Metrics extracted from one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// Algorithm label.
    pub algorithm: String,
    /// Number of nodes.
    pub n: usize,
    /// `Some(t)`: the aggregation completed at interaction index `t`.
    pub termination_time: Option<Time>,
    /// Number of interactions the engine processed.
    pub interactions_processed: u64,
    /// Number of transmissions performed.
    pub transmissions: usize,
    /// Number of `Transmit` decisions ignored by the engine.
    pub ignored_decisions: u64,
    /// `true` iff, at termination, every origin is accounted for: the
    /// sink's data plus the fault-model's lost/recovered bins cover every
    /// origin (for fault-free trials this degenerates to "the sink covers
    /// everything"). A terminated trial with `false` here would indicate
    /// a model violation.
    pub data_conserved: bool,
    /// How the execution ended: `Aggregated`, `AggregatedSurvivors`
    /// (faults destroyed data before the sink became sole owner) or
    /// `Starved`.
    pub completion: Completion,
    /// The fault events applied during the trial (all zero without a
    /// fault plan).
    pub faults: FaultTally,
    /// The paper's cost, when requested.
    pub cost: Option<Cost>,
    /// The constant-size summary of the sink's final aggregate, for
    /// sweeps running a real aggregation function
    /// ([`crate::AggregateKind`] other than the default). `None` on the
    /// default exact-origins family, so existing sweeps are structurally
    /// unchanged.
    pub aggregate: Option<AggregateSummary>,
    /// The audit verdict, for trials run with a Byzantine plan
    /// ([`TrialConfig::byzantine`]): how the receipt ledger reconciles
    /// against the datum family's guarantees. `None` on every
    /// byzantine-free path, so existing sweeps are structurally
    /// unchanged.
    pub verdict: Option<Verdict>,
}

impl TrialResult {
    /// Returns `true` if the aggregation completed.
    pub fn terminated(&self) -> bool {
        self.termination_time.is_some()
    }

    /// Returns `true` if the sink aggregated every datum ever introduced
    /// (the fault-free notion of success).
    pub fn fully_aggregated(&self) -> bool {
        self.completion == Completion::Aggregated
    }

    /// The number of interactions until completion, as a float for
    /// statistics (`None` when the trial did not terminate). The count is
    /// `termination_time + 1` since times are 0-based indices.
    pub fn interactions_to_completion(&self) -> Option<f64> {
        self.termination_time.map(|t| (t + 1) as f64)
    }
}

/// A reusable trial executor.
///
/// Holds the zero-allocation [`Engine`] scratch so that consecutive trials
/// (the Monte-Carlo sweeps of Sections 4–5) reuse one set of allocations.
/// The sharded batch runner keeps one `TrialRunner` per worker thread.
///
/// The runner is generic over the [`Aggregate`] the nodes carry, and every
/// entry point takes the [`DatumFamily`] that seeds and checks it:
/// [`ExactOrigins`] (nodes carry [`IdSet`]s, results carry no
/// [`AggregateSummary`]) is the exact-conservation default every sweep
/// runs unless [`crate::Sweep::aggregate`] selects another.
#[derive(Debug)]
pub struct TrialRunner<A: Aggregate = IdSet> {
    engine: Engine<A>,
    lanes: LaneEngine,
}

impl<A: Aggregate> Default for TrialRunner<A> {
    fn default() -> Self {
        TrialRunner::new()
    }
}

impl<A: Aggregate> TrialRunner<A> {
    /// Creates a runner with empty scratch.
    pub fn new() -> Self {
        TrialRunner {
            engine: Engine::new(),
            lanes: LaneEngine::new(),
        }
    }

    /// Runs `spec` over a concrete, pre-materialised sequence, reusing
    /// this runner's scratch.
    ///
    /// With a fault plan ([`TrialConfig::fault`]), the oracles are built
    /// from `seq` — the committed schedule — while fault events consume
    /// execution steps without consuming schedule entries. Time-indexed
    /// knowledge (`meetTime`, futures) therefore grows *stale* by the
    /// number of fault events: the algorithm acts on the committed times
    /// while the schedule is delayed under it. This knowledge
    /// degradation is deliberate fault-model semantics (a real
    /// deployment's precomputed schedule drifts exactly like this), and
    /// part of what the fault-degradation experiment (E14) measures.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm produces a structurally invalid decision
    /// (this would be a bug in the algorithm implementation, not a
    /// property of the input), or if `config.compute_cost` is combined
    /// with a fault plan: the paper's cost function indexes the committed
    /// sequence by time, and a faulted execution's clock includes fault
    /// events, so no faithful duration exists to price.
    pub fn run<D>(
        &mut self,
        spec: AlgorithmSpec,
        seq: &InteractionSequence,
        config: &TrialConfig,
        family: &D,
    ) -> TrialResult
    where
        D: DatumFamily<Agg = A>,
    {
        assert!(
            !(config.compute_cost && config.fault.is_some()),
            "the paper's cost function is defined over the committed fault-free \
             sequence; a faulted execution's termination time indexes the engine \
             clock (schedule + fault events), so its cost is undefined"
        );
        let Some(mut algorithm) = spec.instantiate(seq, config.sink) else {
            // Spanning tree over a disconnected underlying graph: no
            // algorithm could aggregate on this sequence; report a
            // non-terminated trial.
            return TrialResult {
                algorithm: spec.label().to_string(),
                n: seq.node_count(),
                termination_time: None,
                interactions_processed: 0,
                transmissions: 0,
                ignored_decisions: 0,
                data_conserved: false,
                completion: Completion::Starved,
                faults: FaultTally::default(),
                cost: None,
                aggregate: None,
                // No interaction ever ran, so an audited trial's ledger is
                // trivially clean (byzantine plan ⇒ Some verdict, always).
                verdict: config.byzantine.map(|_| Verdict::Clean),
            };
        };
        // The oracles above were built from the base sequence (the
        // committed schedule); only execution sees the faults.
        let max_interactions = config.max_interactions.unwrap_or(seq.len() as u64);
        let mut result = self.execute(
            spec,
            algorithm.as_mut(),
            &mut seq.stream(false),
            config,
            max_interactions,
            family,
        );
        if config.compute_cost {
            result.cost = Some(cost_of_duration(
                seq,
                config.sink,
                result.termination_time,
                config.max_convergecasts,
            ));
        }
        result
    }

    /// Runs `spec` **streamed**: the engine pulls interactions straight
    /// from `source` — no sequence is ever materialised, so the trial runs
    /// in `O(n)` memory at any horizon and the source may be adaptive.
    ///
    /// The engine's budget is `config.max_interactions` (sources are
    /// usually infinite, so sweeps must set it). Streamed trials never
    /// compute the paper's cost function — it is defined over a concrete
    /// sequence — and report `cost: None`. The algorithm is the spec's
    /// knowledge-free rule ([`AlgorithmSpec::lane_algorithm`]), run by
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if `spec` requires knowledge of the future (check
    /// [`AlgorithmSpec::requires_materialization`] first; such specs must
    /// materialise the source and go through [`TrialRunner::run`]), if
    /// `config.compute_cost` is set, or if the algorithm produces a
    /// structurally invalid decision.
    pub fn run_streamed<S, D>(
        &mut self,
        spec: AlgorithmSpec,
        source: &mut S,
        config: &TrialConfig,
        family: &D,
    ) -> TrialResult
    where
        S: InteractionSource + ?Sized,
        D: DatumFamily<Agg = A>,
    {
        assert!(
            !config.compute_cost,
            "the paper's cost function needs the materialised sequence; \
             streamed trials cannot compute it"
        );
        let Some(mut algorithm) = spec.lane_algorithm() else {
            panic!(
                "{spec} requires {} knowledge and cannot run streamed; \
                 materialise the source and use TrialRunner::run",
                spec.knowledge()
            );
        };
        let max_interactions = config.stream_budget();
        self.execute(
            spec,
            &mut algorithm,
            source,
            config,
            max_interactions,
            family,
        )
    }

    /// Runs a `meetTime` spec (Waiting Greedy) against the schedule that
    /// `source` commits up to `horizon`, **without materialising it**: the
    /// result equals [`TrialRunner::run`] over the sequence
    /// [`InteractionSequence::fill_from`] fills from `source()` up to
    /// `horizon`, with the same config, fault and Byzantine plans
    /// included.
    ///
    /// `source` is called for two copies of the same stream (so it must
    /// yield the same stream each time, as a seeded workload does): the
    /// knowledge reads one ahead through a [`MeetTimeLookahead`], only as
    /// far as each decision needs, and the engine replays the other
    /// through a [`CommittedStream`] cut at `horizon`. Memory is `O(n)`
    /// plus the sink meetings read ahead, instead of `O(horizon)`.
    ///
    /// The budget `None` means the committed length, as for
    /// [`TrialRunner::run`]. Fault events spend engine steps, so a
    /// faulted trial can outrun a source that ends before `horizon`; when
    /// it does, the trial runs once more with the budget set to the
    /// length found.
    ///
    /// [`MeetTimeLookahead`]: doda_core::knowledge::MeetTimeLookahead
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not need exactly `meetTime` knowledge
    /// ([`AlgorithmSpec::instantiate_lookahead`] is `None`), if
    /// `config.compute_cost` is set, or if the algorithm produces a
    /// structurally invalid decision.
    pub fn run_lookahead<F, D>(
        &mut self,
        spec: AlgorithmSpec,
        source: F,
        horizon: usize,
        config: &TrialConfig,
        family: &D,
    ) -> TrialResult
    where
        F: Fn() -> Box<dyn InteractionSource + Send>,
        D: DatumFamily<Agg = A>,
    {
        assert!(
            !config.compute_cost,
            "the paper's cost function needs the materialised sequence; \
             lookahead trials cannot compute it"
        );
        let mut algorithm = spec
            .instantiate_lookahead(source(), horizon, config.sink)
            .unwrap_or_else(|| {
                panic!(
                    "{spec} requires {} knowledge, which no lookahead answers; \
                     materialise the source and use TrialRunner::run",
                    spec.knowledge()
                )
            });
        let mut stream = CommittedStream::new(source(), horizon);
        let max_interactions = config.max_interactions.unwrap_or(horizon as u64);
        let result = self.execute(
            spec,
            algorithm.as_mut(),
            &mut stream,
            config,
            max_interactions,
            family,
        );
        let processed = usize::try_from(result.interactions_processed)
            .expect("the engine processes at most `horizon` interactions");
        if config.max_interactions.is_none() && !stream.reaches(processed) {
            let config = TrialConfig {
                max_interactions: Some(stream.yielded() as u64),
                ..*config
            };
            return self.run_lookahead(spec, source, horizon, &config, family);
        }
        result
    }

    /// The one trial execution behind [`TrialRunner::run`],
    /// [`TrialRunner::run_streamed`] and [`TrialRunner::run_lookahead`]:
    /// the fault plan wraps the source in a
    /// [`FaultedSource`], and the Byzantine plan picks the audited data
    /// plane ([`doda_core::Engine::run_audited`]) over the honest one. The
    /// two planes compose freely: the schedule never sees the audit.
    /// Generic over the algorithm, so a rule passed by value is
    /// statically dispatched.
    fn execute<G, S, D>(
        &mut self,
        spec: AlgorithmSpec,
        algorithm: &mut G,
        source: &mut S,
        config: &TrialConfig,
        max_interactions: u64,
        family: &D,
    ) -> TrialResult
    where
        G: DodaAlgorithm + ?Sized,
        S: InteractionSource + ?Sized,
        D: DatumFamily<Agg = A>,
    {
        match config.fault {
            None => self.run_plane(spec, algorithm, source, config, max_interactions, family),
            Some(injection) => {
                let mut faulted = FaultedSource::new(source, injection.profile, injection.seed)
                    .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
                self.run_plane(
                    spec,
                    algorithm,
                    &mut faulted,
                    config,
                    max_interactions,
                    family,
                )
            }
        }
    }

    /// Runs one execution on the data plane `config` asks for; the audited
    /// plane's result carries the verdict.
    fn run_plane<G, S, D>(
        &mut self,
        spec: AlgorithmSpec,
        algorithm: &mut G,
        source: &mut S,
        config: &TrialConfig,
        max_interactions: u64,
        family: &D,
    ) -> TrialResult
    where
        G: DodaAlgorithm + ?Sized,
        S: InteractionSource + ?Sized,
        D: DatumFamily<Agg = A>,
    {
        let sink = config.sink;
        let initial = |v| family.initial(v);
        let engine_config = EngineConfig::sweep(max_interactions);
        let mut tally = Tally::new();
        let stats = match config.byzantine {
            None => self.engine.run(
                algorithm,
                source,
                sink,
                initial,
                engine_config,
                &mut DiscardTransmissions,
            ),
            Some(byz) => {
                let n = source.node_count();
                let mut injector = ByzantineInjector::new(byz.profile, n, sink, byz.seed)
                    .unwrap_or_else(|e| panic!("invalid byzantine plan: {e}"));
                self.engine.run_audited(
                    algorithm,
                    source,
                    sink,
                    initial,
                    engine_config,
                    &mut DiscardTransmissions,
                    &mut injector,
                    &mut tally,
                )
            }
        }
        .expect("the provided algorithms never emit structurally invalid decisions");
        let mut result = finish_trial_with(spec, &self.engine, family, stats, None);
        result.verdict = config.byzantine.map(|_| tally.verdict::<A>());
        result
    }

    /// Runs one trial per source through the **lane tier**
    /// ([`doda_core::LaneEngine`]): up to [`doda_core::MAX_LANES`]
    /// independent trials of the same knowledge-free spec advance in
    /// lockstep through bit-lane state, each pulling its own interaction
    /// stream. Results are returned in source order and are byte-identical
    /// per trial to [`TrialRunner::run_streamed`] on the same source
    /// (pinned by `tests/lane_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `spec` has no lane kernel
    /// ([`AlgorithmSpec::lane_algorithm`] is `None`), if a fault plan,
    /// Byzantine plan or cost computation is configured (all are
    /// scalar-path features), if `family` reports an aggregate summary
    /// (lanes track ownership bits, never aggregates), if the batch is
    /// empty, oversized, or mixes node counts, or if a source emits a
    /// fault event.
    pub fn run_lane_batch<S, D>(
        &mut self,
        spec: AlgorithmSpec,
        sources: &mut [S],
        config: &TrialConfig,
        family: &D,
    ) -> Vec<TrialResult>
    where
        S: InteractionSource,
        D: DatumFamily<Agg = A>,
    {
        config.assert_plain();
        assert!(
            family.summary(&family.initial(config.sink)).is_none(),
            "the lane tier tracks no aggregates; families with a summary \
             run the scalar tiers"
        );
        let Some(algorithm) = spec.lane_algorithm() else {
            panic!(
                "{spec} requires {} knowledge and has no lane kernel; \
                 materialise the source and use TrialRunner::run",
                spec.knowledge()
            );
        };
        let max_interactions = config.stream_budget();
        self.lanes
            .run_lanes(algorithm, sources, config.sink, max_interactions)
            .into_iter()
            .map(|stats| finish_lane(spec, stats))
            .collect()
    }
}

/// Packages the engine counters (plus the data-conservation check read
/// off the engine's final state) into a [`TrialResult`], for the default
/// exact-origins family; see [`finish_trial_with`].
///
/// Public so external drivers of the resumable engine surface (notably
/// `doda-service` sessions finalising a [`doda_core::RunStats`] from
/// [`doda_core::Engine::finish_run`]) construct results byte-identical to
/// the ones [`TrialRunner`] and [`crate::Sweep`] produce.
pub fn finish_trial(
    spec: AlgorithmSpec,
    engine: &Engine<IdSet>,
    stats: RunStats,
    cost: Option<Cost>,
) -> TrialResult {
    finish_trial_with(spec, engine, &ExactOrigins, stats, cost)
}

/// Packages the engine counters (plus the family's data-conservation
/// check read off the engine's final state) into a [`TrialResult`]. The
/// generic form of [`finish_trial`].
///
/// Conservation under faults: at termination, the sink's aggregate merged
/// with the lost and recovered bins must account for every origin, as far
/// as the family can tell ([`DatumFamily::conserved`]) — a datum may be
/// aggregated or destroyed by a fault, but never silently dropped. The
/// exact-origins family reduces to the classic "sink covers every
/// origin"; fault-free trials have empty bins.
pub fn finish_trial_with<D>(
    spec: AlgorithmSpec,
    engine: &Engine<D::Agg>,
    family: &D,
    stats: RunStats,
    cost: Option<Cost>,
) -> TrialResult
where
    D: DatumFamily,
{
    let state = engine.state();
    let data_conserved = stats.terminated()
        && state.data_of(stats.sink).is_some_and(|data| {
            let mut accounted = data.clone();
            if let Some(lost) = state.lost_data() {
                accounted.merge(lost.clone());
            }
            if let Some(recovered) = state.recovered_data() {
                accounted.merge(recovered.clone());
            }
            family.conserved(&accounted, stats.node_count)
        });
    let aggregate = state
        .data_of(stats.sink)
        .and_then(|data| family.summary(data));
    TrialResult {
        algorithm: spec.label().to_string(),
        n: stats.node_count,
        termination_time: stats.termination_time,
        interactions_processed: stats.interactions_processed,
        transmissions: stats.transmissions as usize,
        ignored_decisions: stats.ignored_decisions,
        data_conserved,
        completion: stats.completion,
        faults: stats.faults,
        cost,
        aggregate,
        verdict: None,
    }
}

/// Packages one retired lane's counters into a [`TrialResult`].
///
/// The lane tier's restrictions make the scalar-only fields constants:
/// fault-free knowledge-free trials never ignore a decision, and the sink
/// (which never transmits) holds every origin exactly when it is the sole
/// owner — so `data_conserved` coincides with termination and completion
/// is `Aggregated` or `Starved`, never `AggregatedSurvivors`.
fn finish_lane(spec: AlgorithmSpec, stats: LaneRunStats) -> TrialResult {
    let terminated = stats.terminated();
    TrialResult {
        algorithm: spec.label().to_string(),
        n: stats.node_count,
        termination_time: stats.termination_time,
        interactions_processed: stats.interactions_processed,
        transmissions: stats.transmissions as usize,
        ignored_decisions: 0,
        data_conserved: terminated,
        completion: if terminated {
            Completion::Aggregated
        } else {
            Completion::Starved
        },
        faults: FaultTally::default(),
        cost: None,
        aggregate: None,
        verdict: None,
    }
}

/// Runs `spec` over a concrete, pre-materialised sequence with fresh
/// scratch. Convenience wrapper over [`TrialRunner`] for one-off trials.
///
/// # Panics
///
/// Panics if the algorithm produces a structurally invalid decision (this
/// would be a bug in the algorithm implementation, not a property of the
/// input).
pub fn run_trial_on_sequence(
    spec: AlgorithmSpec,
    seq: &InteractionSequence,
    config: &TrialConfig,
) -> TrialResult {
    TrialRunner::new().run(spec, seq, config, &ExactOrigins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_workloads::{UniformWorkload, Workload};

    #[test]
    fn gathering_trial_terminates_and_conserves_data() {
        let seq = UniformWorkload::new(12).generate(2_000, 5);
        let result = run_trial_on_sequence(
            AlgorithmSpec::Gathering,
            &seq,
            &TrialConfig {
                compute_cost: true,
                ..TrialConfig::default()
            },
        );
        assert!(result.terminated());
        assert!(result.data_conserved);
        assert_eq!(result.transmissions, 11);
        assert!(result.interactions_to_completion().unwrap() >= 11.0);
        assert!(result.cost.is_some());
    }

    #[test]
    fn offline_beats_or_matches_every_online_algorithm_per_sequence() {
        let seq = UniformWorkload::new(10).generate(3_000, 11);
        let config = TrialConfig::default();
        let offline = run_trial_on_sequence(AlgorithmSpec::OfflineOptimal, &seq, &config);
        assert!(offline.terminated());
        for spec in [
            AlgorithmSpec::Waiting,
            AlgorithmSpec::Gathering,
            AlgorithmSpec::WaitingGreedy { tau: None },
        ] {
            let result = run_trial_on_sequence(spec, &seq, &config);
            if let (Some(on), Some(off)) = (result.termination_time, offline.termination_time) {
                assert!(
                    off <= on,
                    "{spec} finished at {on} before the offline optimum {off}"
                );
            }
        }
    }

    #[test]
    fn too_short_sequence_reports_non_termination() {
        let seq = UniformWorkload::new(10).generate(5, 3);
        let result = run_trial_on_sequence(AlgorithmSpec::Waiting, &seq, &TrialConfig::default());
        assert!(!result.terminated());
        assert_eq!(result.interactions_to_completion(), None);
        assert!(!result.data_conserved);
    }

    #[test]
    fn disconnected_spanning_tree_trial_is_reported_not_panicking() {
        let seq = doda_core::InteractionSequence::from_pairs(5, vec![(1, 2), (1, 2), (3, 4)]);
        let result =
            run_trial_on_sequence(AlgorithmSpec::SpanningTree, &seq, &TrialConfig::default());
        assert!(!result.terminated());
        assert_eq!(result.interactions_processed, 0);
    }

    #[test]
    fn reused_runner_matches_fresh_runs() {
        let config = TrialConfig::default();
        let mut runner = TrialRunner::new();
        // Varying n across consecutive runs exercises scratch resizing.
        for (n, seed) in [(8usize, 1u64), (12, 2), (6, 3), (12, 4)] {
            let seq = UniformWorkload::new(n).generate(8 * n * n, seed);
            for spec in [
                AlgorithmSpec::Gathering,
                AlgorithmSpec::Waiting,
                AlgorithmSpec::WaitingGreedy { tau: None },
            ] {
                let reused = runner.run(spec, &seq, &config, &ExactOrigins);
                let fresh = run_trial_on_sequence(spec, &seq, &config);
                assert_eq!(reused, fresh, "{spec} diverged at n={n}, seed={seed}");
            }
        }
    }

    #[test]
    fn explicit_interaction_budget_is_respected() {
        let seq = UniformWorkload::new(8).generate(5_000, 1);
        let result = run_trial_on_sequence(
            AlgorithmSpec::Waiting,
            &seq,
            &TrialConfig {
                max_interactions: Some(10),
                ..TrialConfig::default()
            },
        );
        assert!(result.interactions_processed <= 10);
    }

    /// The materialised and streamed entry points share one execution, so
    /// they agree under any `(fault, byzantine)` composition.
    fn assert_streamed_matches_materialized(
        fault: Option<FaultInjection>,
        byzantine: Option<ByzantineInjection>,
    ) {
        let horizon = 4_000usize;
        let config = TrialConfig {
            max_interactions: Some(horizon as u64),
            fault,
            byzantine,
            ..TrialConfig::default()
        };
        let mut runner = TrialRunner::new();
        for (n, seed) in [(8usize, 1u64), (12, 2), (6, 3)] {
            let workload = UniformWorkload::new(n);
            let seq = workload.generate(horizon, seed);
            for spec in [AlgorithmSpec::Gathering, AlgorithmSpec::Waiting] {
                let materialized = runner.run(spec, &seq, &config, &ExactOrigins);
                let streamed = runner.run_streamed(
                    spec,
                    workload.source(seed).as_mut(),
                    &config,
                    &ExactOrigins,
                );
                assert_eq!(
                    streamed, materialized,
                    "{spec} diverged under {config:?} at n={n}, seed={seed}"
                );
                assert_eq!(streamed.verdict.is_some(), byzantine.is_some());
            }
        }
    }

    /// A lookahead trial is the materialised trial over the filled
    /// sequence: cut at the horizon or ended by a finite source, under
    /// either plane and a fault plan whose events outrun a short source.
    #[test]
    fn lookahead_trial_matches_materialized_trial() {
        let churn = FaultInjection {
            profile: doda_core::fault::FaultProfile::churn(0.05, 0.1),
            seed: 0xC4,
        };
        let forgers = ByzantineInjection {
            profile: doda_core::byzantine::ByzantineProfile::forge(0.25),
            seed: 0xB12,
        };
        let planes = [
            (None, None),
            (Some(churn), None),
            (Some(churn), Some(forgers)),
        ];
        let mut runner = TrialRunner::new();
        let mut seq = InteractionSequence::new(0);
        let mut outrun = 0;
        for (n, seed) in [(8usize, 1u64), (12, 2), (6, 3)] {
            let len = 2 * n * n;
            // The second schedule never reaches the sink, so its trials
            // run to the end of the source.
            let sinkless = (0..len).map(|t| (1 + t % (n - 1), 1 + (t + 1) % (n - 1)));
            for committed in [
                UniformWorkload::new(n).generate(len, seed),
                InteractionSequence::from_pairs(n, sinkless),
            ] {
                let source =
                    || Box::new(committed.source(false)) as Box<dyn InteractionSource + Send>;
                let cases = [n, 2 * len].into_iter().flat_map(|horizon| {
                    planes.into_iter().flat_map(move |plane| {
                        [None, Some(0)].map(move |tau| (horizon, plane, tau))
                    })
                });
                for (horizon, (fault, byzantine), tau) in cases {
                    let spec = AlgorithmSpec::WaitingGreedy { tau };
                    let config = TrialConfig {
                        fault,
                        byzantine,
                        ..TrialConfig::default()
                    };
                    seq.fill_from(&mut committed.stream(false), horizon);
                    let materialized = runner.run(spec, &seq, &config, &ExactOrigins);
                    let lookahead =
                        runner.run_lookahead(spec, source, horizon, &config, &ExactOrigins);
                    assert_eq!(
                        lookahead, materialized,
                        "{spec} under {config:?} at n={n}, horizon={horizon}"
                    );
                    let fault_steps = materialized.faults.departures + materialized.faults.arrivals;
                    outrun +=
                        usize::from(horizon > len && fault_steps > 0 && !materialized.terminated());
                }
            }
        }
        assert!(
            outrun > 0,
            "some faulted trial must outrun its short source"
        );
    }

    #[test]
    #[should_panic(expected = "which no lookahead answers")]
    fn lookahead_trial_rejects_other_knowledge() {
        let source = || UniformWorkload::new(6).source(0);
        let _ = TrialRunner::new().run_lookahead(
            AlgorithmSpec::OfflineOptimal,
            source,
            100,
            &TrialConfig::default(),
            &ExactOrigins,
        );
    }

    fn lossy_crashes() -> FaultInjection {
        FaultInjection {
            profile: doda_core::fault::FaultProfile {
                loss: 0.1,
                ..doda_core::fault::FaultProfile::crash(0.001)
            },
            seed: 0xFA7,
        }
    }

    #[test]
    fn streamed_trial_matches_materialized_trial() {
        assert_streamed_matches_materialized(None, None);
    }

    #[test]
    fn faulted_streamed_trial_matches_faulted_materialized_trial() {
        assert_streamed_matches_materialized(Some(lossy_crashes()), None);
    }

    #[test]
    fn byzantine_streamed_trial_matches_byzantine_materialized_trial() {
        let forgers = ByzantineInjection {
            profile: doda_core::byzantine::ByzantineProfile::forge(0.25),
            seed: 0xB12,
        };
        assert_streamed_matches_materialized(None, Some(forgers));
        assert_streamed_matches_materialized(Some(lossy_crashes()), Some(forgers));
    }

    #[test]
    fn streamed_trial_runs_adaptive_adversaries() {
        let mut runner = TrialRunner::new();
        let config = TrialConfig {
            max_interactions: Some(5_000),
            ..TrialConfig::default()
        };
        let mut isolator = doda_adversary::IsolatorAdversary::new(16);
        let gathering = runner.run_streamed(
            AlgorithmSpec::Gathering,
            &mut isolator,
            &config,
            &ExactOrigins,
        );
        assert!(gathering.terminated());
        assert!(gathering.data_conserved);
        assert_eq!(gathering.transmissions, 15);

        let mut isolator = doda_adversary::IsolatorAdversary::new(16);
        let waiting = runner.run_streamed(
            AlgorithmSpec::Waiting,
            &mut isolator,
            &config,
            &ExactOrigins,
        );
        assert!(!waiting.terminated());
        assert_eq!(waiting.interactions_processed, 5_000);
    }

    #[test]
    fn faulted_trials_conserve_data_and_classify_completion() {
        use doda_core::fault::FaultProfile;
        use doda_core::outcome::Completion;

        let mut runner = TrialRunner::new();
        let workload = UniformWorkload::new(16);
        let mut survivor_trials = 0;
        for seed in 0..8u64 {
            let config = TrialConfig {
                max_interactions: Some(40_000),
                fault: Some(FaultInjection {
                    profile: FaultProfile::crash(0.005),
                    seed: seed ^ 0xFA,
                }),
                ..TrialConfig::default()
            };
            let result = runner.run_streamed(
                AlgorithmSpec::Gathering,
                workload.source(seed).as_mut(),
                &config,
                &ExactOrigins,
            );
            assert!(result.terminated(), "seed {seed}");
            // Conservation holds whether or not data was lost.
            assert!(result.data_conserved, "seed {seed}");
            match result.completion {
                Completion::Aggregated => assert_eq!(result.faults.data_lost, 0),
                Completion::AggregatedSurvivors => {
                    assert!(result.faults.data_lost > 0);
                    assert!(!result.fully_aggregated());
                    survivor_trials += 1;
                }
                Completion::Starved => panic!("uniform contacts cannot starve Gathering"),
            }
        }
        assert!(survivor_trials > 0, "crashes must cost data in some trials");
    }

    #[test]
    fn zero_fraction_byzantine_trial_is_transparent() {
        let horizon = 3_000usize;
        let mut runner = TrialRunner::new();
        let workload = UniformWorkload::new(10);
        for seed in [1u64, 2, 3] {
            let honest_config = TrialConfig {
                max_interactions: Some(horizon as u64),
                ..TrialConfig::default()
            };
            let audited_config = TrialConfig {
                byzantine: Some(ByzantineInjection {
                    profile: doda_core::byzantine::ByzantineProfile::forge(0.0),
                    seed: seed ^ 0xB2,
                }),
                ..honest_config
            };
            let honest = runner.run_streamed(
                AlgorithmSpec::Gathering,
                workload.source(seed).as_mut(),
                &honest_config,
                &ExactOrigins,
            );
            let mut audited = runner.run_streamed(
                AlgorithmSpec::Gathering,
                workload.source(seed).as_mut(),
                &audited_config,
                &ExactOrigins,
            );
            assert_eq!(audited.verdict, Some(Verdict::Clean), "seed {seed}");
            audited.verdict = None;
            assert_eq!(
                audited, honest,
                "zero liars must be transparent, seed {seed}"
            );
        }
    }

    #[test]
    fn forging_byzantine_trial_composes_with_faults() {
        use doda_core::fault::FaultProfile;

        let mut runner = TrialRunner::new();
        let workload = UniformWorkload::new(16);
        let config = TrialConfig {
            max_interactions: Some(40_000),
            fault: Some(FaultInjection {
                profile: FaultProfile::crash(0.002),
                seed: 0xFA,
            }),
            byzantine: Some(ByzantineInjection {
                profile: doda_core::byzantine::ByzantineProfile::forge(0.25),
                seed: 0xB2,
            }),
            ..TrialConfig::default()
        };
        let result = runner.run_streamed(
            AlgorithmSpec::Gathering,
            workload.source(7).as_mut(),
            &config,
            &ExactOrigins,
        );
        // Both planes ran: the schedule saw the fault stream, and the
        // audit reconciled the liars' transfers.
        assert!(result.verdict.is_some());
        assert!(result.terminated());
    }

    #[test]
    #[should_panic(expected = "the lane tier is honest by contract")]
    fn lane_batch_rejects_byzantine_plans() {
        let workload = UniformWorkload::new(6);
        let mut sources = [workload.source(1)];
        let _ = TrialRunner::new().run_lane_batch(
            AlgorithmSpec::Gathering,
            &mut sources,
            &TrialConfig {
                byzantine: Some(ByzantineInjection {
                    profile: doda_core::byzantine::ByzantineProfile::forge(0.5),
                    seed: 1,
                }),
                ..TrialConfig::default()
            },
            &ExactOrigins,
        );
    }

    #[test]
    #[should_panic(expected = "the lane tier tracks no aggregates")]
    fn lane_batch_rejects_summary_families() {
        let mut sources = [UniformWorkload::new(6).source(1)];
        let config = TrialConfig::default();
        let family = crate::datum::CountFamily;
        let _ = TrialRunner::new().run_lane_batch(
            AlgorithmSpec::Gathering,
            &mut sources,
            &config,
            &family,
        );
    }

    #[test]
    #[should_panic(expected = "cannot run streamed")]
    fn streamed_trial_rejects_knowledge_based_specs() {
        let workload = UniformWorkload::new(6);
        let _ = TrialRunner::new().run_streamed(
            AlgorithmSpec::OfflineOptimal,
            workload.source(0).as_mut(),
            &TrialConfig::default(),
            &ExactOrigins,
        );
    }

    #[test]
    #[should_panic(expected = "cost is undefined")]
    fn faulted_trial_rejects_cost_computation() {
        use doda_core::fault::FaultProfile;

        let seq = UniformWorkload::new(6).generate(500, 1);
        let _ = TrialRunner::new().run(
            AlgorithmSpec::Gathering,
            &seq,
            &TrialConfig {
                compute_cost: true,
                fault: Some(FaultInjection {
                    profile: FaultProfile::crash(0.01),
                    seed: 1,
                }),
                ..TrialConfig::default()
            },
            &ExactOrigins,
        );
    }

    #[test]
    #[should_panic(expected = "cost function needs the materialised sequence")]
    fn streamed_trial_rejects_cost_computation() {
        let workload = UniformWorkload::new(6);
        let _ = TrialRunner::new().run_streamed(
            AlgorithmSpec::Gathering,
            workload.source(0).as_mut(),
            &TrialConfig {
                compute_cost: true,
                ..TrialConfig::default()
            },
            &ExactOrigins,
        );
    }
}
