//! Single-trial execution and metrics.
//!
//! [`TrialRunner`] is the sweep-facing entry point: it owns a reusable
//! [`Engine`] and a scratch sequence, so that running thousands of trials
//! reuses one set of allocations. [`TrialRunner::run`] is the one scalar
//! trial: it takes the trial's stream, horizon, plans and
//! [`DatumFamily`] ([`ExactOrigins`] by default), and builds the
//! algorithm from what the spec knows
//! ([`AlgorithmSpec::knowledge_requirement`]):
//!
//! | knowledge | algorithm | engine budget |
//! |-----------|-----------|---------------|
//! | none | the knowledge-free rule ([`doda_core::LaneAlgorithm`]) by value, on the stream itself, `O(n)` memory | the horizon |
//! | `meetTime` | Waiting Greedy over a lookahead that reads a second copy of the stream ahead on demand | the horizon, or the committed length when a faulted trial outruns a short source |
//! | anything else | the spec's oracles over the stream filled into the scratch sequence up to the horizon | the filled length |
//!
//! Every arm runs one execution: a fault plan wraps the source and a
//! Byzantine plan selects the audited data plane. The knowledge specs run
//! boxed; the rule's `decide` inlines into the engine step. Round streams
//! run flattened on every arm. [`TrialRunner::run_lane_batch`] is the
//! lane tier, which is fault-free and honest.

use doda_core::algebra::AggregateSummary;
use doda_core::byzantine::{ByzantineInjector, ByzantineProfile, Tally, Verdict};
use doda_core::cost::Cost;
use doda_core::data::{Aggregate, IdSet};
use doda_core::engine::{DiscardTransmissions, Engine, EngineConfig, RunStats};
use doda_core::fault::{FaultProfile, FaultedSource};
use doda_core::lane::{LaneEngine, LaneRunStats};
use doda_core::outcome::{Completion, FaultTally};
use doda_core::{CommittedStream, DodaAlgorithm, InteractionSequence, InteractionSource, Time};
use doda_graph::NodeId;

use crate::datum::{DatumFamily, ExactOrigins};
use crate::spec::{AlgorithmSpec, KnowledgeRequirement};

/// Every trial's sink: node 0. Sweep trials, lane batches and service
/// sessions all aggregate here, which is what makes a session's result
/// byte-identical to trial 0 of the equivalent sweep.
pub const SINK: NodeId = NodeId(0);

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

/// The per-trial plans of a single trial; the default is a fault-free,
/// honest trial.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrialConfig {
    /// The fault plan injected over the trial's source, if any. Knowledge
    /// is still built from the *base* stream (it describes the committed
    /// schedule, not the faults); the plan perturbs execution only,
    /// delaying the schedule under the algorithm so time-indexed
    /// knowledge grows stale by the number of fault events (see
    /// [`TrialRunner::run`]).
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
    /// Asserts what the fault-free, honest lane tier requires: no fault
    /// plan and no Byzantine plan. Faulted and audited trials run on
    /// [`TrialRunner::run`].
    fn assert_plain(&self) {
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
    /// The paper's cost. [`TrialRunner`] never prices a trial and leaves
    /// it `None`; [`finish_trial`] takes it from callers that price a run
    /// over its sequence with [`doda_core::cost`].
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
/// Holds the zero-allocation [`Engine`] scratch and the sequence the
/// oracle specs fill, so that consecutive trials (the Monte-Carlo sweeps
/// of Sections 4–5) reuse one set of allocations. The sharded batch
/// runner keeps one `TrialRunner` per worker thread.
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
    seq: InteractionSequence,
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
            seq: InteractionSequence::new(0),
        }
    }

    /// Runs `spec` for one trial over the stream `source` yields, cut at
    /// `horizon`, with `config`'s plans, reusing this runner's scratch.
    /// The knowledge the spec needs decides how the algorithm is built
    /// (see the [module docs](self)): the knowledge-free rule runs on the
    /// stream itself, `meetTime` is read ahead on demand, and every other
    /// spec's oracles are built over the stream filled up to `horizon`.
    ///
    /// `source` must yield the same stream on every call, as a seeded
    /// workload does: the `meetTime` arm calls it twice, once for the
    /// knowledge and once for the execution, and again when it re-runs.
    /// It stays generic, so a source passed by value costs no boxing.
    ///
    /// With a fault plan ([`TrialConfig::fault`]), knowledge describes the
    /// committed schedule, while fault events consume execution steps
    /// without consuming schedule entries. Time-indexed knowledge
    /// (`meetTime`, futures) therefore grows *stale* by the number of
    /// fault events: the algorithm acts on the committed times while the
    /// schedule is delayed under it. This knowledge degradation is
    /// deliberate fault-model semantics (a real deployment's precomputed
    /// schedule drifts exactly like this), and part of what the
    /// fault-degradation experiment (E14) measures.
    ///
    /// A spanning tree over a disconnected underlying graph is reported as
    /// a trial that never started: no algorithm could aggregate there.
    ///
    /// # Panics
    ///
    /// Panics if a plan is invalid, or if the algorithm produces a
    /// structurally invalid decision (a bug in the algorithm, not a
    /// property of the input).
    pub fn run<F, S, D>(
        &mut self,
        spec: AlgorithmSpec,
        source: F,
        horizon: usize,
        config: &TrialConfig,
        family: &D,
    ) -> TrialResult
    where
        F: Fn() -> S,
        S: InteractionSource + Send + 'static,
        D: DatumFamily<Agg = A>,
    {
        match spec.knowledge_requirement() {
            KnowledgeRequirement::None => {
                let mut rule = spec
                    .lane_algorithm()
                    .expect("every knowledge-free spec has a rule");
                let budget = horizon as u64;
                execute(
                    &mut self.engine,
                    spec,
                    &mut rule,
                    &mut source(),
                    config,
                    budget,
                    family,
                )
            }
            KnowledgeRequirement::MeetTime => {
                let (result, outran) =
                    self.lookahead(spec, &source, horizon, horizon as u64, config, family);
                // Fault events spend engine steps, so a faulted trial can
                // outrun a source that ends before `horizon`; the filled
                // sequence's budget is the committed length.
                outran.map_or(result, |len| {
                    self.lookahead(spec, &source, horizon, len, config, family)
                        .0
                })
            }
            _ => {
                let TrialRunner { engine, seq, .. } = self;
                seq.fill_from(&mut source(), horizon);
                let Some(mut algorithm) = spec.instantiate(seq, SINK) else {
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
                        // No interaction ever ran, so an audited trial's
                        // ledger is trivially clean.
                        verdict: config.byzantine.map(|_| Verdict::Clean),
                    };
                };
                let budget = seq.len() as u64;
                let mut stream = seq.stream(false);
                execute(
                    engine,
                    spec,
                    algorithm.as_mut(),
                    &mut stream,
                    config,
                    budget,
                    family,
                )
            }
        }
    }

    /// Runs a `meetTime` spec against the schedule `source` commits up to
    /// `horizon`, without materialising it, under `budget`: the knowledge
    /// reads one copy of the stream ahead through a
    /// [`doda_core::knowledge::MeetTimeLookahead`], only as far as each
    /// decision needs, and the engine replays another through a
    /// [`CommittedStream`]. Memory is `O(n)` plus the sink meetings read
    /// ahead. Also returns the committed length when the execution
    /// outran the schedule.
    fn lookahead<F, S, D>(
        &mut self,
        spec: AlgorithmSpec,
        source: &F,
        horizon: usize,
        budget: u64,
        config: &TrialConfig,
        family: &D,
    ) -> (TrialResult, Option<u64>)
    where
        F: Fn() -> S,
        S: InteractionSource + Send + 'static,
        D: DatumFamily<Agg = A>,
    {
        let mut algorithm = spec
            .instantiate_lookahead(source(), horizon, SINK)
            .expect("a lookahead answers every meetTime spec");
        let mut stream = CommittedStream::new(source(), horizon);
        let result = execute(
            &mut self.engine,
            spec,
            algorithm.as_mut(),
            &mut stream,
            config,
            budget,
            family,
        );
        let processed = usize::try_from(result.interactions_processed)
            .expect("the engine processes at most `horizon` interactions");
        let outran = (!stream.reaches(processed)).then(|| stream.yielded() as u64);
        (result, outran)
    }

    /// Runs one trial per source through the **lane tier**
    /// ([`doda_core::LaneEngine`]): up to [`doda_core::MAX_LANES`]
    /// independent trials of the same knowledge-free spec advance in
    /// lockstep through bit-lane state, each pulling its own interaction
    /// stream under the budget `horizon`. Results are returned in source
    /// order and are byte-identical per trial to [`TrialRunner::run`] on
    /// the same source (pinned by `tests/lane_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `spec` has no lane kernel
    /// ([`AlgorithmSpec::lane_algorithm`] is `None`), if a fault or
    /// Byzantine plan is configured (both are scalar-path features), if
    /// `family` reports an aggregate summary (lanes track ownership bits,
    /// never aggregates), if the batch is empty, oversized, or mixes node
    /// counts, or if a source emits a fault event.
    pub fn run_lane_batch<S, D>(
        &mut self,
        spec: AlgorithmSpec,
        sources: &mut [S],
        horizon: usize,
        config: &TrialConfig,
        family: &D,
    ) -> Vec<TrialResult>
    where
        S: InteractionSource,
        D: DatumFamily<Agg = A>,
    {
        config.assert_plain();
        assert!(
            family.summary(&family.initial(SINK)).is_none(),
            "the lane tier tracks no aggregates; families with a summary \
             run the scalar tiers"
        );
        let Some(algorithm) = spec.lane_algorithm() else {
            panic!(
                "{spec} requires {} knowledge and has no lane kernel; \
                 run it through TrialRunner::run",
                spec.knowledge()
            );
        };
        self.lanes
            .run_lanes(algorithm, sources, SINK, horizon as u64)
            .into_iter()
            .map(|stats| finish_lane(spec, stats))
            .collect()
    }
}

/// The one trial execution behind every arm of [`TrialRunner::run`]: the
/// fault plan wraps the source in a [`FaultedSource`], and the Byzantine
/// plan picks the audited data plane ([`doda_core::Engine::run_audited`])
/// over the honest one. The two planes compose freely: the schedule never
/// sees the audit. Generic over the algorithm, so a rule passed by value
/// is statically dispatched.
fn execute<G, S, D>(
    engine: &mut Engine<D::Agg>,
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
    D: DatumFamily,
{
    match config.fault {
        None => run_plane(
            engine,
            spec,
            algorithm,
            source,
            config,
            max_interactions,
            family,
        ),
        Some(injection) => {
            let mut faulted = FaultedSource::new(source, injection.profile, injection.seed)
                .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
            run_plane(
                engine,
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
    engine: &mut Engine<D::Agg>,
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
    D: DatumFamily,
{
    let initial = |v| family.initial(v);
    let engine_config = EngineConfig::sweep(max_interactions);
    let mut tally = Tally::new();
    let stats = match config.byzantine {
        None => engine.run(
            algorithm,
            source,
            SINK,
            initial,
            engine_config,
            &mut DiscardTransmissions,
        ),
        Some(byz) => {
            let n = source.node_count();
            let mut injector = ByzantineInjector::new(byz.profile, n, SINK, byz.seed)
                .unwrap_or_else(|e| panic!("invalid byzantine plan: {e}"));
            engine.run_audited(
                algorithm,
                source,
                SINK,
                initial,
                engine_config,
                &mut DiscardTransmissions,
                &mut injector,
                &mut tally,
            )
        }
    }
    .expect("the provided algorithms never emit structurally invalid decisions");
    let mut result = finish_trial_with(spec, engine, family, stats, None);
    result.verdict = config.byzantine.map(|_| tally.verdict::<D::Agg>());
    result
}

/// Packages the engine counters (plus the data-conservation check read
/// off the engine's final state) into a [`TrialResult`], for the default
/// exact-origins family.
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
fn finish_trial_with<D>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use doda_workloads::{UniformWorkload, Workload};

    /// Runs `spec` over the whole of `seq` with fresh scratch.
    fn run_on(spec: AlgorithmSpec, seq: &InteractionSequence, config: &TrialConfig) -> TrialResult {
        TrialRunner::new().run(spec, || seq.source(false), seq.len(), config, &ExactOrigins)
    }

    /// The trial over a filled sequence, assembled from the runner's own
    /// parts: the spec's oracles over `seq`, and its length as the budget.
    fn filled(
        runner: &mut TrialRunner,
        spec: AlgorithmSpec,
        seq: &InteractionSequence,
        config: &TrialConfig,
    ) -> TrialResult {
        let mut algorithm = spec.instantiate(seq, SINK).expect("a connected schedule");
        let budget = seq.len() as u64;
        let stream = &mut seq.stream(false);
        execute(
            &mut runner.engine,
            spec,
            algorithm.as_mut(),
            stream,
            config,
            budget,
            &ExactOrigins,
        )
    }

    #[test]
    fn gathering_trial_terminates_and_conserves_data() {
        let seq = UniformWorkload::new(12).generate(2_000, 5);
        let result = run_on(AlgorithmSpec::Gathering, &seq, &TrialConfig::default());
        assert!(result.terminated());
        assert!(result.data_conserved);
        assert_eq!(result.transmissions, 11);
        assert!(result.interactions_to_completion().unwrap() >= 11.0);
    }

    #[test]
    fn offline_beats_or_matches_every_online_algorithm_per_sequence() {
        let seq = UniformWorkload::new(10).generate(3_000, 11);
        let config = TrialConfig::default();
        let offline = run_on(AlgorithmSpec::OfflineOptimal, &seq, &config);
        assert!(offline.terminated());
        for spec in [
            AlgorithmSpec::Waiting,
            AlgorithmSpec::Gathering,
            AlgorithmSpec::WaitingGreedy { tau: None },
        ] {
            let result = run_on(spec, &seq, &config);
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
        let result = run_on(AlgorithmSpec::Waiting, &seq, &TrialConfig::default());
        assert!(!result.terminated());
        assert_eq!(result.interactions_to_completion(), None);
        assert!(!result.data_conserved);
    }

    #[test]
    fn disconnected_spanning_tree_trial_is_reported_not_panicking() {
        let seq = doda_core::InteractionSequence::from_pairs(5, vec![(1, 2), (1, 2), (3, 4)]);
        let result = run_on(AlgorithmSpec::SpanningTree, &seq, &TrialConfig::default());
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
                AlgorithmSpec::OfflineOptimal,
            ] {
                let reused = runner.run(
                    spec,
                    || seq.source(false),
                    seq.len(),
                    &config,
                    &ExactOrigins,
                );
                let fresh = run_on(spec, &seq, &config);
                assert_eq!(reused, fresh, "{spec} diverged at n={n}, seed={seed}");
            }
        }
    }

    #[test]
    fn explicit_interaction_budget_is_respected() {
        let seq = UniformWorkload::new(8).generate(5_000, 1);
        let result = TrialRunner::new().run(
            AlgorithmSpec::Waiting,
            || seq.source(false),
            10,
            &TrialConfig::default(),
            &ExactOrigins,
        );
        assert!(result.interactions_processed <= 10);
    }

    /// A knowledge-free trial over a generated sequence and over the
    /// workload's live source are one execution, so they agree under any
    /// `(fault, byzantine)` composition.
    fn assert_streamed_matches_materialized(
        fault: Option<FaultInjection>,
        byzantine: Option<ByzantineInjection>,
    ) {
        let horizon = 4_000usize;
        let config = TrialConfig { fault, byzantine };
        let mut runner = TrialRunner::new();
        for (n, seed) in [(8usize, 1u64), (12, 2), (6, 3)] {
            let workload = UniformWorkload::new(n);
            let seq = workload.generate(horizon, seed);
            for spec in [AlgorithmSpec::Gathering, AlgorithmSpec::Waiting] {
                let materialized =
                    runner.run(spec, || seq.source(false), horizon, &config, &ExactOrigins);
                let streamed = runner.run(
                    spec,
                    || workload.source(seed),
                    horizon,
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
                    let config = TrialConfig { fault, byzantine };
                    seq.fill_from(&mut committed.stream(false), horizon);
                    let materialized = filled(&mut runner, spec, &seq, &config);
                    let lookahead = runner.run(spec, source, horizon, &config, &ExactOrigins);
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
        let config = TrialConfig::default();
        let isolator = || doda_adversary::IsolatorAdversary::new(16);
        let gathering = runner.run(
            AlgorithmSpec::Gathering,
            isolator,
            5_000,
            &config,
            &ExactOrigins,
        );
        assert!(gathering.terminated());
        assert!(gathering.data_conserved);
        assert_eq!(gathering.transmissions, 15);

        let waiting = runner.run(
            AlgorithmSpec::Waiting,
            isolator,
            5_000,
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
                fault: Some(FaultInjection {
                    profile: FaultProfile::crash(0.005),
                    seed: seed ^ 0xFA,
                }),
                ..TrialConfig::default()
            };
            let result = runner.run(
                AlgorithmSpec::Gathering,
                || workload.source(seed),
                40_000,
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
            let honest_config = TrialConfig::default();
            let audited_config = TrialConfig {
                byzantine: Some(ByzantineInjection {
                    profile: doda_core::byzantine::ByzantineProfile::forge(0.0),
                    seed: seed ^ 0xB2,
                }),
                ..honest_config
            };
            let honest = runner.run(
                AlgorithmSpec::Gathering,
                || workload.source(seed),
                horizon,
                &honest_config,
                &ExactOrigins,
            );
            let mut audited = runner.run(
                AlgorithmSpec::Gathering,
                || workload.source(seed),
                horizon,
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
            fault: Some(FaultInjection {
                profile: FaultProfile::crash(0.002),
                seed: 0xFA,
            }),
            byzantine: Some(ByzantineInjection {
                profile: doda_core::byzantine::ByzantineProfile::forge(0.25),
                seed: 0xB2,
            }),
        };
        let result = runner.run(
            AlgorithmSpec::Gathering,
            || workload.source(7),
            40_000,
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
            100,
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
            100,
            &config,
            &family,
        );
    }
}
