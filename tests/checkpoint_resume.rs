//! Property tests pinning the resumable engine surface: `step_for(k)`
//! loops — plain, and interrupted by a checkpoint/restore into a fresh
//! engine — are byte-identical to an uninterrupted run, across the
//! Byzantine-free scenario registry, the sweep's execution tiers,
//! budgets, and seeds. (Byzantine entries are out of scope by
//! construction: the sliced path drives the plain engine and cannot
//! reproduce the audited execution.)

use doda::core::data::IdSet;
use doda::core::engine::{Engine, EngineConfig, StepOutcome};
use doda::graph::NodeId;
use doda::prelude::*;
use doda::sim::finish_trial;
use doda::sim::test_support::byzantine_free_registry_cases;
use doda::stats::rng::SeedSequence;
use proptest::prelude::*;

const SINK: NodeId = NodeId(0);

/// The sweep's reference answer for trial 0 of `(spec, scenario, n, seed)`,
/// resolved through whatever execution tier `Auto` picks.
fn reference(spec: AlgorithmSpec, scenario: FaultedScenario, n: usize, seed: u64) -> TrialResult {
    let mut results = Sweep::scenario(spec, scenario)
        .n(n)
        .trials(1)
        .seed(seed)
        .run();
    results.remove(0)
}

/// The same trial through `step_for` slices of `budget` interactions,
/// optionally pausing after `pause_slices` slices to checkpoint and
/// restore into a brand-new engine before continuing.
fn sliced(
    spec: AlgorithmSpec,
    scenario: FaultedScenario,
    n: usize,
    seed: u64,
    budget: u64,
    pause_slices: Option<u32>,
) -> TrialResult {
    let mut source = Sweep::scenario(spec, scenario)
        .n(n)
        .seed(seed)
        .stream()
        .expect("admissible");
    let mut algorithm = spec.instantiate_online().expect("online spec");
    let horizon = doda::adversary::RandomizedAdversary::default_horizon(n) as u64;
    let config = EngineConfig::sweep(horizon);

    let mut engine: Engine<IdSet> = Engine::new();
    let mut run = engine.begin_run(n, SINK, IdSet::singleton, config);

    let mut until_pause = pause_slices;
    loop {
        let outcome = engine
            .step_for(
                &mut run,
                algorithm.as_mut(),
                &mut source,
                IdSet::singleton,
                budget,
                &mut DiscardTransmissions,
            )
            .expect("step_for");
        if !outcome.can_continue() {
            break;
        }
        if let Some(left) = until_pause.as_mut() {
            if *left > 0 {
                *left -= 1;
            }
            if *left == 0 {
                until_pause = None;
                // Interrupt: snapshot, drop the engine, resume in a new one.
                let snapshot = engine.checkpoint(&run);
                engine = Engine::new();
                run = engine.restore(&snapshot);
                assert_eq!(
                    run.interactions_processed(),
                    snapshot.progress().interactions_processed()
                );
            }
        }
    }
    finish_trial(spec, &engine, engine.finish_run(&run), None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Slicing a run into arbitrary budgets never changes its result, and
    /// neither does pausing it at an arbitrary point to checkpoint/restore
    /// into a fresh engine — across the scenario registry × both online
    /// specs × seeds, against the tier the sweep actually picks.
    #[test]
    fn sliced_and_checkpointed_runs_match_the_sweep(
        scenario_index in 0usize..byzantine_free_registry_cases().len(),
        online in 0u8..2,
        seed in 0u64..1_000,
        budget in 1u64..200,
        pause_slices in 1u32..12,
        extra_nodes in 0usize..6,
    ) {
        let scenario = byzantine_free_registry_cases()[scenario_index];
        let spec = if online == 0 {
            AlgorithmSpec::Waiting
        } else {
            AlgorithmSpec::Gathering
        };
        // The vendored proptest stand-in has no rejection support; skip
        // inapplicable combinations as vacuously passing cases.
        if !scenario.supports(spec) {
            return Ok(());
        }
        let n = scenario.min_nodes().max(8) + extra_nodes;
        if scenario.validate(n).is_err() {
            return Ok(());
        }

        let expected = reference(spec, scenario, n, seed);

        let plain = sliced(spec, scenario, n, seed, budget, None);
        prop_assert_eq!(&plain, &expected, "sliced run diverged from the sweep");

        let resumed = sliced(spec, scenario, n, seed, budget, Some(pause_slices));
        prop_assert_eq!(&resumed, &expected, "checkpoint/restore changed the run");
    }
}

/// A budget of `u64::MAX` is the degenerate slicing: one `step_for` call
/// behaves exactly like `Engine::run`.
#[test]
fn unbounded_budget_is_run_to_completion() {
    for scenario in byzantine_free_registry_cases() {
        let spec = AlgorithmSpec::Gathering;
        if !scenario.supports(spec) {
            continue;
        }
        let n = scenario.min_nodes().max(8);
        if scenario.validate(n).is_err() {
            continue;
        }
        let expected = reference(spec, scenario, n, 42);
        let got = sliced(spec, scenario, n, 42, u64::MAX, None);
        assert_eq!(got, expected, "scenario {scenario} diverged");
    }
}

/// A paused run's checkpoint reports exactly the progress the slices
/// made, and a run restored from it continues from there (not from 0).
#[test]
fn checkpoints_carry_progress() {
    let spec = AlgorithmSpec::Waiting;
    let n = 12;
    let mut source = Scenario::Uniform.source(n, SeedSequence::new(7).seed(0));
    let mut algorithm = spec.instantiate_online().expect("online");
    let horizon = doda::adversary::RandomizedAdversary::default_horizon(n) as u64;

    let mut engine: Engine<IdSet> = Engine::new();
    let mut run = engine.begin_run(n, SINK, IdSet::singleton, EngineConfig::sweep(horizon));
    let outcome = engine
        .step_for(
            &mut run,
            algorithm.as_mut(),
            &mut source,
            IdSet::singleton,
            5,
            &mut DiscardTransmissions,
        )
        .expect("step_for");
    assert_eq!(outcome, StepOutcome::BudgetSpent);

    let snapshot = engine.checkpoint(&run);
    assert_eq!(snapshot.progress().interactions_processed(), 5);

    let mut restored: Engine<IdSet> = Engine::new();
    let resumed = restored.restore(&snapshot);
    assert_eq!(resumed.interactions_processed(), 5);
    assert!(!resumed.terminated());
}
