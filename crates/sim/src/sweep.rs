//! The unified sweep builder — one entry point for every batch shape.
//!
//! [`Sweep`] is one builder over the full cross product — interaction
//! family (scenario or workload) × algorithm × trials × seed × parallelism
//! × [`ExecutionTier`] × [`AggregateKind`]:
//!
//! ```
//! use doda_sim::{AlgorithmSpec, Scenario, Sweep};
//!
//! let results = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
//!     .n(16)
//!     .trials(8)
//!     .seed(42)
//!     .run();
//! assert_eq!(results.len(), 8);
//! assert!(results.iter().all(|r| r.terminated()));
//! ```
//!
//! [`Sweep::run`] first resolves the sweep — admission checks, then the
//! tier — once for both families: a workload is a pairwise, fault-free,
//! non-adaptive family that fixes one node count. That admission is the
//! only one in the workspace: [`Sweep::stream`] runs it too, so a service
//! session, which steps trial 0's stream, is refused exactly where the
//! equivalent sweep would panic, with the same [`AdmissionError`] text.
//! One dispatcher then
//! shards the trials over worker threads and runs each through
//! [`TrialRunner::run`], or a lane batch through
//! [`TrialRunner::run_lane_batch`], with the datum family the aggregate
//! kind selects ([`ExactOrigins`] by default).
//!
//! # Execution tiers
//!
//! | tier | what runs | when [`ExecutionTier::Auto`] picks it |
//! |------|-----------|---------------------------------------|
//! | materialised scalar | [`TrialRunner::run`] against a committed schedule: `meetTime` read ahead on demand, the other oracles over the schedule filled into the runner's scratch sequence | the spec's oracles need the future |
//! | streamed scalar | [`TrialRunner::run`] with the knowledge-free rule on the stream, `O(n)` memory | a fault or Byzantine plan is present (both are scalar-path features), or no faster tier applies |
//! | **lanes** | [`TrialRunner::run_lane_batch`]: up to 64 trials in lockstep through bit-lane state | the spec has a lane kernel ([`AlgorithmSpec::lane_algorithm`]), the trials are fault-free and honest, and the aggregate is the default |
//!
//! Round scenarios have no tier of their own: every tier runs their
//! flattened stream ([`Scenario::source`]), pulled in bursts when the
//! round source is oblivious, like any pairwise stream.
//!
//! Every tier is byte-identical per trial to the scalar reference on the
//! same seeds — pinned by `tests/lane_equivalence.rs` — so
//! [`ExecutionTier::Auto`] (the default) is purely a performance decision,
//! never a semantic one. Trial
//! `i` always draws sub-seed `i` of the sweep seed regardless of worker
//! count or lane grouping, so serial and parallel runs of any tier are
//! byte-identical too.

use doda_core::byzantine::ByzantineProfile;
use doda_core::fault::FaultedSource;
use doda_core::lane::MAX_LANES;
use doda_core::InteractionSource;
use doda_stats::rng::SeedSequence;
use doda_workloads::Workload;

use crate::datum::{
    AggregateKind, CountFamily, DatumFamily, DistinctFamily, ExactOrigins, MaxFamily, MinFamily,
    QuantileFamily, SumFamily,
};
use crate::runner::{shard, summarize, BatchResult};
use crate::scenario::{FaultedScenario, Scenario};
use crate::spec::AlgorithmSpec;
use crate::trial::{TrialConfig, TrialResult, TrialRunner};

/// The execution tier of a sweep: which engine path runs the trials.
///
/// All tiers produce byte-identical per-trial results;
/// explicit tiers exist for benchmarking (pinning a path to measure it)
/// and testing (running the scalar reference against the fast tiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionTier {
    /// Pick the fastest admissible tier (the default; see the module docs
    /// for the resolution table).
    #[default]
    Auto,
    /// Force the scalar reference path: materialised for knowledge-based
    /// specs, streamed otherwise — never lanes.
    Scalar,
    /// Force the lane tier: knowledge-free, fault-free trials stepped in
    /// lockstep through `[u64]` bit-lane state, up to
    /// [`MAX_LANES`] per batch. Round scenarios run
    /// their flattened stream on lanes.
    ///
    /// Sweeps panic if the spec has no lane kernel or a fault plan is
    /// present.
    Lanes,
}

/// The interaction family a sweep draws its per-trial streams from.
enum Family<'a> {
    /// An entry of the (possibly faulted) scenario registry.
    Scenario(FaultedScenario),
    /// A borrowed workload generator.
    Workload(&'a (dyn Workload + Sync)),
}

impl std::fmt::Debug for Family<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Family::Scenario(s) => f.debug_tuple("Scenario").field(s).finish(),
            Family::Workload(w) => f.debug_tuple("Workload").field(&w.name()).finish(),
        }
    }
}

/// The resolved execution path of one sweep (the private, unambiguous
/// form of [`ExecutionTier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Materialized,
    Streamed,
    Lanes,
}

/// Why a sweep was refused before any trial ran: an adaptive scenario
/// with a knowledge-based spec, out-of-range scenario parameters, an
/// invalid fault or Byzantine plan, a forced tier the sweep cannot take,
/// or a node count the family does not admit. Its text is the message
/// [`Sweep::run`] panics with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionError(String);

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for AdmissionError {}

/// Refuses with `message` unless `admitted`; the message is formatted
/// only on refusal.
fn admit(admitted: bool, message: impl FnOnce() -> String) -> Result<(), AdmissionError> {
    if admitted {
        Ok(())
    } else {
        Err(AdmissionError(message()))
    }
}

/// A sweep resolved for running ([`Sweep::plan`]): the node count, the
/// per-trial horizon and path, and how a trial seed becomes the trial's
/// stream and plans.
struct Plan<'s> {
    n: usize,
    horizon: usize,
    path: Path,
    /// The trial's pairwise base stream, from its trial seed.
    source: Box<dyn Fn(u64) -> Box<dyn InteractionSource + Send> + Sync + 's>,
    /// The fault and Byzantine plans, seeded per trial.
    planes: FaultedScenario,
}

/// A batch of independent trials: one algorithm against one interaction
/// family, with the trial count, seeding, parallelism and
/// [`ExecutionTier`] chosen fluently. See the [module docs](self) for the
/// tier-resolution table.
#[derive(Debug)]
pub struct Sweep<'a> {
    spec: AlgorithmSpec,
    family: Family<'a>,
    n: Option<usize>,
    trials: usize,
    seed: u64,
    horizon: Option<usize>,
    parallel: bool,
    tier: ExecutionTier,
    lane_width: usize,
    aggregate: AggregateKind,
    byzantine: Option<ByzantineProfile>,
}

impl<'a> Sweep<'a> {
    /// A sweep of `spec` against an entry of the scenario registry (a
    /// plain [`crate::scenario::Scenario`] converts implicitly,
    /// fault-free). Scenario sweeps need an explicit node count
    /// ([`Sweep::n`]) before running.
    pub fn scenario(spec: AlgorithmSpec, scenario: impl Into<FaultedScenario>) -> Self {
        Sweep::new(spec, Family::Scenario(scenario.into()))
    }

    /// A sweep of `spec` against a workload generator. The node count
    /// defaults to [`Workload::node_count`].
    pub fn workload(spec: AlgorithmSpec, workload: &'a (dyn Workload + Sync)) -> Self {
        Sweep::new(spec, Family::Workload(workload))
    }

    fn new(spec: AlgorithmSpec, family: Family<'a>) -> Self {
        Sweep {
            spec,
            family,
            n: None,
            trials: 1,
            seed: 0,
            horizon: None,
            parallel: false,
            tier: ExecutionTier::Auto,
            lane_width: MAX_LANES,
            aggregate: AggregateKind::IdSet,
            byzantine: None,
        }
    }

    /// Sets the node count (the sink is [`crate::SINK`], node 0).
    /// Mandatory for scenario sweeps; workload sweeps may omit it (the
    /// workload fixes it) but a mismatched explicit value panics at
    /// [`Sweep::run`].
    pub fn n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the number of independent trials (default 1).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the root seed (default 0); trial `i` uses sub-seed `i` of it,
    /// independent of worker count and lane grouping.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-trial horizon: the engine budget of streamed and lane
    /// trials and the committed length of oracle trials. `None`
    /// (the default) uses the generous `8·n²` of
    /// [`doda_adversary::RandomizedAdversary::default_horizon`].
    pub fn horizon(mut self, horizon: Option<usize>) -> Self {
        self.horizon = horizon;
        self
    }

    /// Spreads trials across worker threads (default off). Results are
    /// byte-identical either way.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Pins the execution tier (default [`ExecutionTier::Auto`]).
    pub fn tier(mut self, tier: ExecutionTier) -> Self {
        self.tier = tier;
        self
    }

    /// Sets the lane-batch width `K` — the most consecutive trials stepped
    /// in lockstep on the lane tier (default, and maximum, [`MAX_LANES`]).
    /// A parallel sweep caps a batch at `⌈trials / workers⌉` so that every
    /// worker gets one. Grouping never changes a result; this knob exists
    /// for benchmarking and tests.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ width ≤ 64`.
    pub fn lane_width(mut self, width: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&width),
            "lane width must be 1..={MAX_LANES}, got {width}"
        );
        self.lane_width = width;
        self
    }

    /// Selects the aggregate the trials carry (default
    /// [`AggregateKind::IdSet`], the exact-conservation datum — selecting
    /// nothing keeps every sweep byte-identical to the pre-algebra
    /// behaviour). Non-default kinds seed each node from the matching
    /// [`DatumFamily`] (readings derive from [`Sweep::seed`]) and stamp an
    /// [`doda_core::algebra::AggregateSummary`] on every result.
    ///
    /// The lane tier tracks ownership bits only, never aggregates, so
    /// non-default kinds run the scalar tiers: [`ExecutionTier::Auto`]
    /// resolves what would be a lane sweep to the streamed path instead,
    /// and forcing [`ExecutionTier::Lanes`] panics at [`Sweep::run`].
    pub fn aggregate(mut self, kind: AggregateKind) -> Self {
        self.aggregate = kind;
        self
    }

    /// Layers a Byzantine profile over the sweep: a seeded fraction of
    /// non-sink nodes lies on the data plane during their transmissions,
    /// every trial runs the audited engine path, and every result carries
    /// a [`doda_core::byzantine::Verdict`]. The schedule — and any fault
    /// plan — composes unchanged. On a scenario that already carries a
    /// Byzantine plan (a registry `+forge(0.1)` variant) this builder
    /// **overrides** it; a fraction-`0` profile still routes through the
    /// audit and earns `Clean`.
    ///
    /// The audited path is scalar: [`ExecutionTier::Auto`] resolves
    /// byzantine sweeps to the streamed (or materialised) tier, and
    /// forcing [`ExecutionTier::Lanes`] panics at [`Sweep::run`].
    pub fn byzantine(mut self, profile: ByzantineProfile) -> Self {
        self.byzantine = Some(profile);
        self
    }

    /// The label of the execution path this sweep will actually run —
    /// `"materialized"`, `"streamed"` or `"lanes"` —
    /// resolved from the tier, the spec and the
    /// interaction family exactly as [`Sweep::run`] resolves it.
    /// `doda-bench` stamps this into each grid cell's `mode` column.
    ///
    /// Both scalar labels run [`TrialRunner::run`], and the label says
    /// what the spec knows. `"materialized"` means the trials run against
    /// a committed schedule, which their knowledge reads ahead of the
    /// execution: `meetTime` specs read it on demand through a lookahead,
    /// the others fill it into a sequence first. `"streamed"` means the
    /// knowledge-free rule runs on the stream itself.
    ///
    /// # Panics
    ///
    /// Panics when the sweep is inadmissible — an inadmissible forced
    /// tier, spec, plan or node count — with the same message
    /// [`Sweep::run`] would produce.
    pub fn path_label(&self) -> &'static str {
        match self.admitted().path {
            Path::Materialized => "materialized",
            Path::Streamed => "streamed",
            Path::Lanes => "lanes",
        }
    }

    /// Runs the sweep and returns the raw per-trial results in trial-index
    /// order.
    ///
    /// # Panics
    ///
    /// Panics with the [`AdmissionError`] text on inadmissible
    /// combinations — an adaptive scenario with a knowledge-based spec,
    /// out-of-range scenario parameters, an invalid fault or Byzantine
    /// plan, a forced tier the family, spec or [`Sweep::aggregate`] cannot
    /// take (see [`ExecutionTier`]), a scenario sweep without [`Sweep::n`]
    /// or below its scenario's [`Scenario::min_nodes`], or a workload sweep
    /// whose explicit `n` mismatches the workload — and, with the worker's
    /// own message, if a trial panics.
    pub fn run(&self) -> Vec<TrialResult> {
        self.run_plan(&self.admitted())
    }

    /// Runs the sweep and summarises it, returning the summary together
    /// with the raw per-trial results.
    ///
    /// # Panics
    ///
    /// Panics as [`Sweep::run`], and additionally if no trial terminated
    /// (no summary can be formed — the horizon was far too small).
    pub fn run_summarized(&self) -> (BatchResult, Vec<TrialResult>) {
        let plan = self.admitted();
        let results = self.run_plan(&plan);
        let summary = summarize(self.spec, plan.n, self.trials, plan.horizon, &results);
        (summary, results)
    }

    /// Admits the sweep and returns trial 0's interaction stream with its
    /// fault plan applied: the stream a service session steps, so a
    /// session's result is byte-identical to trial 0 of this sweep. The
    /// Byzantine plan is not applied; it lives on the data plane, which
    /// the caller must audit itself.
    ///
    /// # Errors
    ///
    /// The [`AdmissionError`] [`Sweep::run`] would panic with.
    pub fn stream(&self) -> Result<Box<dyn InteractionSource + Send>, AdmissionError> {
        let plan = self.plan()?;
        let seed = SeedSequence::new(self.seed).seed(0);
        let source = (plan.source)(seed);
        Ok(match plan.planes.fault_injection(seed) {
            None => source,
            Some(injection) => Box::new(
                FaultedSource::new(source, injection.profile, injection.seed)
                    .expect("admission validated the fault plan"),
            ),
        })
    }

    /// The admitted plan, or a panic with the refusal.
    fn admitted(&self) -> Plan<'_> {
        self.plan().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The node count the sweep will run at.
    fn resolved_n(&self) -> Result<usize, AdmissionError> {
        match (&self.family, self.n) {
            (Family::Scenario(_), n) => n.ok_or_else(|| {
                AdmissionError(
                    "a scenario sweep needs an explicit node count: call Sweep::n".into(),
                )
            }),
            (Family::Workload(workload), None) => Ok(workload.node_count()),
            (Family::Workload(workload), Some(n)) => {
                let own = workload.node_count();
                admit(own == n, || {
                    format!("workload is over {own} nodes but the batch asks for {n}")
                })?;
                Ok(n)
            }
        }
    }

    /// Resolves the sweep into a [`Plan`]: the admission checks, then the
    /// tier (see the module docs). A workload is a pairwise, fault-free,
    /// non-adaptive family that fixes one node count; the builder's
    /// Byzantine profile ([`Sweep::byzantine`]) overrides any plan a
    /// scenario entry carries, and a workload's is seeded exactly as a
    /// scenario entry would seed it, so both families corrupt identically
    /// per trial seed.
    fn plan(&self) -> Result<Plan<'_>, AdmissionError> {
        let spec = self.spec;
        let (scenario, planes) = match self.family {
            Family::Scenario(entry) => (
                Some(entry.base),
                match self.byzantine {
                    None => entry,
                    Some(profile) => entry.with_byzantine(profile),
                },
            ),
            // One entry carries either family's planes, so both are
            // admitted and seeded alike (a workload's base is a
            // placeholder never read).
            Family::Workload(_) => (
                None,
                FaultedScenario {
                    base: Scenario::Uniform,
                    faults: None,
                    byzantine: self.byzantine,
                },
            ),
        };
        let (faults, byzantine) = (planes.faults, planes.byzantine);
        // Formatted only when a check refuses: admission runs once per
        // service session, and those open by the thousand.
        let subject = || match self.family {
            Family::Scenario(_) => format!("scenario '{planes}'"),
            Family::Workload(workload) => format!("workload '{}'", workload.name()),
        };

        admit(scenario.map_or(true, |s| s.supports(spec)), || {
            format!(
                "{} is adaptive: {spec} requires {} knowledge, which would \
                 need materialising a stream that depends on the execution itself",
                subject(),
                spec.knowledge()
            )
        })?;
        let n = self.resolved_n()?;
        // A fault plan that could strand the execution below two live
        // nodes must be a typed error before any trial runs — never a hang.
        planes
            .validate(n)
            .map_err(|e| AdmissionError(format!("invalid fault plan for {}: {e}", subject())))?;
        planes.validate_byzantine().map_err(|e| {
            AdmissionError(format!("invalid byzantine plan for {}: {e}", subject()))
        })?;
        if let Some(base) = scenario {
            if let Some(rule) = base.parameter_rule() {
                return Err(AdmissionError(format!(
                    "{} is out of range ({base:?}): {rule}",
                    subject()
                )));
            }
            let need = base.min_nodes();
            admit(n >= need, || {
                format!("{} needs at least {need} nodes, got {n}", subject())
            })?;
        }

        let materialize = spec.requires_materialization();
        let mut path = match self.tier {
            ExecutionTier::Auto if materialize => Path::Materialized,
            // Both planes are scalar-path features: faults perturb the
            // stream, byzantine plans need the audited engine.
            ExecutionTier::Auto if faults.is_some() || byzantine.is_some() => Path::Streamed,
            ExecutionTier::Auto if spec.lane_algorithm().is_some() => Path::Lanes,
            ExecutionTier::Auto => Path::Streamed,
            ExecutionTier::Scalar if materialize => Path::Materialized,
            ExecutionTier::Scalar => Path::Streamed,
            ExecutionTier::Lanes => {
                admit(spec.lane_algorithm().is_some(), || {
                    format!(
                        "{spec} requires {} knowledge and has no lane kernel",
                        spec.knowledge()
                    )
                })?;
                // Fault and Byzantine plans run on the scalar tiers only.
                admit(faults.is_none(), || {
                    format!(
                        "the lane tier is fault-free by contract; {} carries a \
                         fault plan, which the scalar tier runs",
                        subject()
                    )
                })?;
                admit(byzantine.is_none(), || {
                    format!(
                        "the lane tier is honest by contract; {} carries a \
                         byzantine plan, which the audited scalar tier runs",
                        subject()
                    )
                })?;
                Path::Lanes
            }
        };
        // The lane tier steps ownership bits only — no aggregate state
        // exists in its SoA lanes — so non-default kinds run the streamed
        // path instead (under `Auto`) or refuse a forced lane tier.
        if path == Path::Lanes && self.aggregate != AggregateKind::IdSet {
            admit(self.tier != ExecutionTier::Lanes, || {
                format!(
                    "the lane tier tracks no aggregates; aggregate '{}' sweeps run \
                     the scalar tiers",
                    self.aggregate
                )
            })?;
            path = Path::Streamed;
        }

        let source: Box<dyn Fn(u64) -> Box<dyn InteractionSource + Send> + Sync> = match self.family
        {
            Family::Scenario(_) => Box::new(move |seed| planes.base.source(n, seed)),
            Family::Workload(workload) => Box::new(move |seed| workload.source(seed)),
        };
        Ok(Plan {
            n,
            horizon: self
                .horizon
                .unwrap_or_else(|| doda_adversary::RandomizedAdversary::default_horizon(n)),
            path,
            source,
            planes,
        })
    }

    /// Runs an admitted plan's trials with the datum family the aggregate
    /// kind selects.
    fn run_plan(&self, plan: &Plan<'_>) -> Vec<TrialResult> {
        match self.aggregate {
            AggregateKind::IdSet => self.dispatch(plan, &ExactOrigins),
            AggregateKind::Count => self.dispatch(plan, &CountFamily),
            AggregateKind::Sum => self.dispatch(plan, &SumFamily::new(self.seed)),
            AggregateKind::Min => self.dispatch(plan, &MinFamily::new(self.seed)),
            AggregateKind::Max => self.dispatch(plan, &MaxFamily::new(self.seed)),
            AggregateKind::Distinct => self.dispatch(plan, &DistinctFamily::new(self.seed)),
            AggregateKind::Quantile => self.dispatch(plan, &QuantileFamily::new(self.seed)),
        }
    }

    /// Runs the planned trials with `family`'s data on every path, through
    /// [`crate::runner::claim_chunks`]. Workers claim one trial at a time on
    /// the scalar paths and one lane batch of up to [`Sweep::lane_width`]
    /// consecutive trials on the lane tier, fewer when there are too few
    /// trials to give every worker a full batch. Lanes are fully
    /// independent (one source per lane), so the grouping — which differs
    /// between serial and parallel runs — never affects a per-trial result.
    fn dispatch<D: DatumFamily>(&self, plan: &Plan<'_>, family: &D) -> Vec<TrialResult> {
        let spec = self.spec;
        let seeds = SeedSequence::new(self.seed);
        let lanes = plan.path == Path::Lanes;
        let width = if lanes { self.lane_width } else { 1 };
        shard(
            self.trials,
            self.parallel,
            width,
            TrialRunner::new,
            |runner, trials| {
                if lanes {
                    // A claim is one lane batch. Lanes carry no plans, so
                    // every trial shares the default config.
                    let mut sources: Vec<_> = trials
                        .map(|trial| (plan.source)(seeds.seed(trial as u64)))
                        .collect();
                    let config = TrialConfig::default();
                    return runner.run_lane_batch(
                        spec,
                        &mut sources,
                        plan.horizon,
                        &config,
                        family,
                    );
                }
                trials
                    .map(|trial| {
                        let seed = seeds.seed(trial as u64);
                        let config = TrialConfig {
                            fault: plan.planes.fault_injection(seed),
                            byzantine: plan.planes.byzantine_injection(seed),
                        };
                        runner.run(spec, || (plan.source)(seed), plan.horizon, &config, family)
                    })
                    .collect()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use doda_core::fault::FaultProfile;
    use doda_workloads::UniformWorkload;

    #[test]
    fn lane_and_scalar_tiers_agree_per_trial() {
        for scenario in [Scenario::Uniform, Scenario::Zipf { exponent: 1.2 }] {
            let sweep = Sweep::scenario(AlgorithmSpec::Gathering, scenario)
                .n(12)
                .trials(10)
                .seed(7)
                .horizon(Some(4_000));
            let lanes = sweep.run();
            let scalar = Sweep::scenario(AlgorithmSpec::Gathering, scenario)
                .n(12)
                .trials(10)
                .seed(7)
                .horizon(Some(4_000))
                .tier(ExecutionTier::Scalar)
                .run();
            assert_eq!(lanes, scalar, "{scenario}");
        }
    }

    /// Workers claim trials as they free up; whatever the claim order, a
    /// parallel sweep returns the serial results in trial-index order, on
    /// every path and for trial counts around the worker and lane-width
    /// boundaries.
    #[test]
    fn claimed_trials_come_back_in_index_order_on_every_path() {
        let on_path = |label: &str| match label {
            "materialized" => Sweep::scenario(
                AlgorithmSpec::WaitingGreedy { tau: None },
                Scenario::Uniform,
            ),
            "streamed" => Sweep::scenario(
                AlgorithmSpec::Waiting,
                Scenario::Vehicular.with_faults(FaultProfile::crash(0.002)),
            ),
            _ => Sweep::scenario(AlgorithmSpec::Waiting, Scenario::Uniform),
        };
        let paths = [
            ("materialized", MAX_LANES),
            ("streamed", MAX_LANES),
            ("lanes", 1),
            ("lanes", 7),
            ("lanes", 64),
        ];
        for trials in [1, 2, 3, 5, 64, 65, 129] {
            for (label, width) in paths {
                let sweep = || {
                    on_path(label)
                        .n(10)
                        .lane_width(width)
                        .trials(trials)
                        .seed(11)
                        .horizon(Some(2_000))
                };
                assert_eq!(sweep().path_label(), label);
                let serial = sweep().run();
                assert_eq!(serial.len(), trials, "{label}");
                if trials > 2 {
                    // Distinct results, so a permutation would show.
                    assert!(serial.windows(2).any(|pair| pair[0] != pair[1]), "{label}");
                }
                assert_eq!(
                    sweep().parallel(true).run(),
                    serial,
                    "{label} with {trials} trials"
                );
            }
        }
    }

    #[test]
    fn lane_grouping_and_parallelism_never_change_results() {
        let base = || {
            Sweep::scenario(AlgorithmSpec::Waiting, Scenario::Uniform)
                .n(10)
                .trials(13)
                .seed(3)
                .horizon(Some(3_000))
        };
        let reference = base().run();
        for width in [1, 7, 64] {
            assert_eq!(base().lane_width(width).run(), reference, "width {width}");
        }
        assert_eq!(base().parallel(true).run(), reference);
    }

    #[test]
    fn auto_routes_adaptive_scenarios_through_lanes_faithfully() {
        // The adaptive isolator reads the ownership view; the lane tier
        // must feed it per-lane views identical to the scalar engine's.
        let auto = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::AdaptiveIsolator)
            .n(12)
            .trials(4)
            .horizon(Some(4_000))
            .run();
        let scalar = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::AdaptiveIsolator)
            .n(12)
            .trials(4)
            .horizon(Some(4_000))
            .tier(ExecutionTier::Scalar)
            .run();
        assert_eq!(auto, scalar);
        assert!(auto.iter().all(|r| r.terminated()));
    }

    #[test]
    fn workload_sweeps_default_their_node_count() {
        let workload = UniformWorkload::new(9);
        let results = Sweep::workload(AlgorithmSpec::Gathering, &workload)
            .trials(3)
            .run();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.n == 9 && r.terminated()));
    }

    #[test]
    fn run_summarized_summarizes_run() {
        let sweep = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(12)
            .trials(6)
            .seed(42);
        let raw = sweep.run();
        let horizon = doda_adversary::RandomizedAdversary::default_horizon(12);
        let expected = summarize(AlgorithmSpec::Gathering, 12, 6, horizon, &raw);
        assert_eq!(sweep.run_summarized(), (expected, raw));
    }

    #[test]
    fn byzantine_sweeps_run_audited_on_every_scalar_tier() {
        use doda_core::byzantine::{ByzantineProfile, Verdict};

        let base = || {
            Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
                .n(12)
                .trials(6)
                .seed(7)
                .horizon(Some(4_000))
                .byzantine(ByzantineProfile::forge(0.25))
        };
        assert_eq!(base().path_label(), "streamed");
        let auto = base().run();
        let scalar = base().tier(ExecutionTier::Scalar).run();
        assert_eq!(auto, scalar);
        assert!(auto.iter().all(|r| r.verdict.is_some()));
        // Forgers pollute the exact origin set, so the audit must not
        // report every trial clean.
        assert!(auto
            .iter()
            .any(|r| !matches!(r.verdict, Some(Verdict::Clean))));

        // A registry byzantine entry routes identically to the builder.
        let entry = Scenario::Uniform.with_byzantine(ByzantineProfile::forge(0.25));
        let via_entry = Sweep::scenario(AlgorithmSpec::Gathering, entry)
            .n(12)
            .trials(6)
            .seed(7)
            .horizon(Some(4_000))
            .run();
        assert_eq!(via_entry, auto);
    }

    #[test]
    fn workload_byzantine_sweeps_match_the_equivalent_scenario_sweep() {
        use doda_core::byzantine::ByzantineProfile;

        let workload = UniformWorkload::new(10);
        let via_workload = Sweep::workload(AlgorithmSpec::Gathering, &workload)
            .trials(4)
            .seed(3)
            .horizon(Some(3_000))
            .byzantine(ByzantineProfile::duplicate(0.2))
            .run();
        let via_scenario = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(10)
            .trials(4)
            .seed(3)
            .horizon(Some(3_000))
            .byzantine(ByzantineProfile::duplicate(0.2))
            .run();
        assert_eq!(via_workload, via_scenario);
    }

    #[test]
    #[should_panic(expected = "honest by contract")]
    fn lane_tier_rejects_byzantine_plans() {
        use doda_core::byzantine::ByzantineProfile;

        let _ = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(10)
            .byzantine(ByzantineProfile::forge(0.1))
            .tier(ExecutionTier::Lanes)
            .run();
    }

    #[test]
    #[should_panic(expected = "fault-free by contract")]
    fn lane_tier_rejects_fault_plans() {
        let _ = Sweep::scenario(
            AlgorithmSpec::Gathering,
            Scenario::Uniform.with_faults(FaultProfile::crash(0.01)),
        )
        .n(10)
        .tier(ExecutionTier::Lanes)
        .run();
    }

    #[test]
    #[should_panic(expected = "has no lane kernel")]
    fn lane_tier_rejects_knowledge_based_specs() {
        let _ = Sweep::scenario(AlgorithmSpec::OfflineOptimal, Scenario::Uniform)
            .n(10)
            .tier(ExecutionTier::Lanes)
            .run();
    }

    #[test]
    #[should_panic(expected = "lane width must be")]
    fn zero_lane_width_is_rejected() {
        let _ = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(10)
            .lane_width(0);
    }

    #[test]
    #[should_panic(expected = "scenario 'uniform' needs at least 2 nodes, got 1")]
    fn runs_below_the_scenario_floor_are_refused() {
        let _ = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(1)
            .run();
    }

    #[test]
    #[should_panic(expected = "needs at least 4 nodes, got 3")]
    fn path_labels_below_the_scenario_floor_are_refused() {
        let _ = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::ObliviousTrap)
            .n(3)
            .path_label();
    }

    #[test]
    #[should_panic(expected = "call Sweep::n")]
    fn scenario_sweeps_require_an_explicit_node_count() {
        let _ = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform).run();
    }
}
