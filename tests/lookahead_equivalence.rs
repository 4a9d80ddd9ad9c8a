//! Sweep-level pin: every spec's trial reproduces the filled reference
//! result for result, whichever knowledge `TrialRunner::run` builds for
//! it: the knowledge-free rule on the stream itself, Waiting Greedy's
//! `meetTime` read ahead on demand, or the other oracles over the
//! schedule filled up to the horizon.
//!
//! The reference never goes through [`TrialRunner`]. It is assembled from
//! public core calls: fill each trial's committed schedule up to the
//! horizon with [`InteractionSequence::fill_from`], instantiate the spec
//! over it, wrap the replay in the trial's [`FaultedSource`], run
//! [`Engine::run`] or, under a Byzantine plan, [`Engine::run_audited`],
//! and package the counters with [`finish_trial`].
//!
//! Every registry entry is covered with every spec it supports, faulted
//! and Byzantine entries included, plus Byzantine-builder sweeps and the
//! workload family, at the default horizon and one cut below completion,
//! serially and in parallel, on the scalar tier.

use doda::core::byzantine::{ByzantineInjector, ByzantineProfile, Tally, Verdict};
use doda::core::data::IdSet;
use doda::core::engine::{DiscardTransmissions, Engine, EngineConfig};
use doda::core::fault::FaultedSource;
use doda::core::outcome::{Completion, FaultTally};
use doda::prelude::*;
use doda::sim::SINK;
use doda::stats::rng::SeedSequence;
use doda::workloads::{UniformWorkload, VehicularWorkload};

const TRIALS: usize = 4;
const SEED: u64 = 0x100C;

/// Every spec, Waiting Greedy also at `τ = 0` and an unreachable `τ`.
const SPECS: [AlgorithmSpec; 8] = [
    AlgorithmSpec::Gathering,
    AlgorithmSpec::Waiting,
    AlgorithmSpec::WaitingGreedy { tau: None },
    AlgorithmSpec::WaitingGreedy { tau: Some(0) },
    AlgorithmSpec::WaitingGreedy {
        tau: Some(u64::MAX),
    },
    AlgorithmSpec::SpanningTree,
    AlgorithmSpec::FutureBroadcast,
    AlgorithmSpec::OfflineOptimal,
];

/// One trial of `spec` over `base`'s committed schedule cut at `horizon`,
/// under `planes`' plans for `seed`.
///
/// An adaptive stream reads the execution, so no fill reproduces it;
/// only knowledge-free specs run there, and their reference replays the
/// live stream. The budget is the horizon for knowledge-free specs, which
/// run on the stream itself, and the filled length for the others, as a
/// faulted trial over a source shorter than the horizon shows.
fn reference_trial(
    spec: AlgorithmSpec,
    mut base: Box<dyn InteractionSource + Send>,
    planes: FaultedScenario,
    seed: u64,
    horizon: usize,
    engine: &mut Engine<IdSet>,
    seq: &mut InteractionSequence,
) -> TrialResult {
    let live = !planes.supports(AlgorithmSpec::OfflineOptimal);
    let (algorithm, schedule, budget): (_, Box<dyn InteractionSource + '_>, _) = if live {
        let rule = spec
            .instantiate_online()
            .expect("adaptive entries run knowledge-free specs");
        (Some(rule as Box<dyn DodaAlgorithm>), base, horizon)
    } else {
        seq.fill_from(base.as_mut(), horizon);
        let budget = if spec.requires_materialization() {
            seq.len()
        } else {
            horizon
        };
        (
            spec.instantiate(seq, SINK),
            Box::new(seq.stream(false)),
            budget,
        )
    };
    let Some(mut algorithm) = algorithm else {
        // A spanning tree over a disconnected underlying graph: no
        // algorithm could aggregate, so the trial never starts.
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
            verdict: planes.byzantine_injection(seed).map(|_| Verdict::Clean),
        };
    };
    let mut schedule = match planes.fault_injection(seed) {
        None => schedule,
        Some(fault) => Box::new(
            FaultedSource::new(schedule, fault.profile, fault.seed).expect("a valid fault plan"),
        ),
    };
    let config = EngineConfig::sweep(budget as u64);
    let mut tally = Tally::new();
    let stats = match planes.byzantine_injection(seed) {
        None => engine.run(
            algorithm.as_mut(),
            &mut schedule,
            SINK,
            IdSet::singleton,
            config,
            &mut DiscardTransmissions,
        ),
        Some(byz) => {
            let n = schedule.node_count();
            let mut injector =
                ByzantineInjector::new(byz.profile, n, SINK, byz.seed).expect("a valid plan");
            engine.run_audited(
                algorithm.as_mut(),
                &mut schedule,
                SINK,
                IdSet::singleton,
                config,
                &mut DiscardTransmissions,
                &mut injector,
                &mut tally,
            )
        }
    }
    .expect("the provided algorithms never emit invalid decisions");
    let mut result = finish_trial(spec, engine, stats, None);
    result.verdict = planes
        .byzantine_injection(seed)
        .map(|_| tally.verdict::<IdSet>());
    result
}

/// The reference trials of a sweep: trial `i` streams from
/// `source(seed_i)` under `planes`' plans for `seed_i`.
fn reference(
    spec: AlgorithmSpec,
    source: impl Fn(u64) -> Box<dyn InteractionSource + Send>,
    planes: FaultedScenario,
    horizon: usize,
) -> Vec<TrialResult> {
    let seeds = SeedSequence::new(SEED);
    let mut engine = Engine::new();
    let mut seq = InteractionSequence::new(0);
    (0..TRIALS)
        .map(|trial| {
            let seed = seeds.seed(trial as u64);
            let base = source(seed);
            reference_trial(spec, base, planes, seed, horizon, &mut engine, &mut seq)
        })
        .collect()
}

/// Runs `sweep` on the scalar tier, serially and in parallel, and checks
/// both against `expected`.
fn assert_sweep_reproduces(
    spec: AlgorithmSpec,
    sweep: Sweep<'_>,
    expected: &[TrialResult],
    what: &str,
) {
    let sweep = sweep.tier(ExecutionTier::Scalar);
    let label = if spec.requires_materialization() {
        "materialized"
    } else {
        "streamed"
    };
    assert_eq!(sweep.path_label(), label, "{what}");
    let serial = sweep.run();
    assert_eq!(serial, expected, "{what}, serial");
    assert_eq!(sweep.parallel(true).run(), expected, "{what}, parallel");
}

#[test]
fn registry_sweeps_reproduce_the_filled_reference() {
    let (mut oracle_entries, mut live_entries, mut cut_short) = (0, 0, 0);
    for entry in FaultedScenario::registry() {
        if entry.supports(AlgorithmSpec::OfflineOptimal) {
            oracle_entries += 1;
        } else {
            live_entries += 1;
        }
        let n = entry.min_nodes().max(10);
        // The default 8n² horizon, and one far below completion.
        for horizon in [None, Some(2 * n)] {
            let h = horizon.unwrap_or(8 * n * n);
            for spec in SPECS.into_iter().filter(|&spec| entry.supports(spec)) {
                let expected = reference(spec, |seed| entry.base.source(n, seed), entry, h);
                if horizon.is_some() {
                    cut_short += expected.iter().filter(|r| !r.terminated()).count();
                }
                let sweep = Sweep::scenario(spec, entry)
                    .n(n)
                    .trials(TRIALS)
                    .seed(SEED)
                    .horizon(horizon);
                let what = format!("{spec} x {entry}, h = {h}");
                assert_sweep_reproduces(spec, sweep, &expected, &what);
            }
        }
    }
    assert!(
        oracle_entries >= 10 && live_entries > 0,
        "{oracle_entries} registry entries admit every spec, {live_entries} are adaptive"
    );
    assert!(
        cut_short > 0,
        "the short horizon must cut some trials before completion"
    );
}

#[test]
fn byzantine_builder_sweeps_reproduce_the_filled_reference() {
    let forgers = ByzantineProfile::forge(0.1);
    let n = 16;
    for base in [
        FaultedScenario::from(Scenario::Uniform),
        Scenario::Vehicular.with_faults(doda::core::fault::FaultProfile::churn(0.002, 0.004)),
    ] {
        let planes = base.with_byzantine(forgers);
        for spec in SPECS {
            let expected = reference(spec, |seed| base.base.source(n, seed), planes, 8 * n * n);
            let sweep = Sweep::scenario(spec, base)
                .n(n)
                .trials(TRIALS)
                .seed(SEED)
                .byzantine(forgers);
            assert_sweep_reproduces(spec, sweep, &expected, &format!("{spec} x {planes}"));
        }
    }
}

#[test]
fn workload_sweeps_reproduce_the_filled_reference() {
    let n = 14;
    let uniform = UniformWorkload::new(n);
    let vehicular = VehicularWorkload::new(n, 3);
    let workloads: [&(dyn Workload + Sync); 2] = [&uniform, &vehicular];
    let honest = FaultedScenario::from(Scenario::Uniform);
    for workload in workloads {
        for horizon in [None, Some(3 * n)] {
            let h = horizon.unwrap_or(8 * n * n);
            for spec in SPECS {
                let expected = reference(spec, |seed| workload.source(seed), honest, h);
                let sweep = Sweep::workload(spec, workload)
                    .trials(TRIALS)
                    .seed(SEED)
                    .horizon(horizon);
                let what = format!("{spec} x {}, h = {h}", workload.name());
                assert_sweep_reproduces(spec, sweep, &expected, &what);
            }
        }
    }
}
