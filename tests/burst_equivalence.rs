//! Property suite: the engine's burst loop is anchored to its per-event
//! loop, byte for byte.
//!
//! `Engine::step_for` pulls an oblivious source in bursts of up to
//! [`PULL_BATCH`] interactions, and any other source one `next_event` per
//! step. [`PerEvent`] hides a source's obliviousness, so the same stream
//! can run through both loops. These properties pin that the two are one
//! execution:
//!
//! 1. **Trial equivalence** — for every registry entry whose stream is
//!    oblivious, under Gathering and Waiting, honest and with
//!    `forge(0.1)` liars: the same [`TrialResult`], verdict included.
//! 2. **Slicing** — at slice budgets 1, 255, 256, 257 and unbounded,
//!    with a checkpoint/restore into a fresh engine at every pause, the
//!    burst loop reproduces the per-event loop's uninterrupted run.
//! 3. **Pull accounting** — after every paused slice the source has
//!    yielded exactly the interactions the run processed, so a burst
//!    never reads past the budget or the horizon.
//! 4. **Exhaustion mid-burst** — a source that ends inside a burst stops
//!    the run with `SourceExhausted` and the per-event loop's counters.

use std::cell::Cell;
use std::rc::Rc;

use doda::core::data::IdSet;
use doda::core::sequence::PULL_BATCH;
use doda::graph::NodeId;
use doda::prelude::*;
use doda::sim::test_support::PerEvent;
use doda::stats::rng::SeedSequence;
use proptest::prelude::*;

const SINK: NodeId = NodeId(0);

/// The knowledge-free algorithms the scalar engine runs streamed.
const ONLINE: [AlgorithmSpec; 2] = [AlgorithmSpec::Gathering, AlgorithmSpec::Waiting];

/// The slice budgets around one burst, and the unbounded slice.
const BUDGETS: [u64; 5] = [1, 255, 256, 257, u64::MAX];

/// The registry entries whose stream is oblivious (fault plans are
/// never: the fault layer pulls per event), and each honest one again
/// with `forge(0.1)` liars on the audited plane.
fn oblivious_cases() -> Vec<FaultedScenario> {
    let mut cases: Vec<FaultedScenario> = Vec::new();
    for entry in FaultedScenario::registry() {
        if entry.faults.is_some()
            || !entry
                .base
                .source(entry.min_nodes().max(8), 0)
                .is_oblivious()
        {
            continue;
        }
        let forged = entry.with_byzantine(ByzantineProfile::forge(0.1));
        for case in [entry, forged] {
            if !cases.iter().any(|seen| seen.name() == case.name()) {
                cases.push(case);
            }
        }
    }
    cases
}

/// An oblivious source that counts the interactions it has yielded.
struct Counting<S> {
    inner: S,
    pulled: Rc<Cell<u64>>,
}

impl<S: InteractionSource> InteractionSource for Counting<S> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        let next = self.inner.next_interaction(t, view);
        self.pulled
            .set(self.pulled.get() + u64::from(next.is_some()));
        next
    }

    fn is_oblivious(&self) -> bool {
        self.inner.is_oblivious()
    }

    fn next_interaction_batch(
        &mut self,
        t0: Time,
        view: &AdversaryView<'_>,
        out: &mut Vec<Interaction>,
        max: usize,
    ) {
        let before = out.len();
        self.inner.next_interaction_batch(t0, view, out, max);
        self.pulled
            .set(self.pulled.get() + (out.len() - before) as u64);
    }
}

/// Runs `source` through `step_for` slices of `budget` until the run
/// stops, checkpointing and restoring into a fresh engine at every pause
/// and checking after every slice that the source was pulled exactly as
/// far as the run went.
fn sliced<S: InteractionSource>(
    spec: AlgorithmSpec,
    source: &mut S,
    pulled: &Cell<u64>,
    horizon: u64,
    budget: u64,
) -> TrialResult {
    let n = source.node_count();
    let mut algorithm = spec.instantiate_online().expect("online spec");
    let mut engine: Engine<IdSet> = Engine::new();
    let mut run = engine.begin_run(n, SINK, IdSet::singleton, EngineConfig::sweep(horizon));
    loop {
        let before = run.interactions_processed();
        let outcome = engine
            .step_for(
                &mut run,
                algorithm.as_mut(),
                source,
                IdSet::singleton,
                budget,
                &mut DiscardTransmissions,
            )
            .expect("step_for");
        let processed = run.interactions_processed();
        assert!(processed - before <= budget, "a slice overran its budget");
        if outcome != StepOutcome::Completed {
            assert_eq!(
                pulled.get(),
                processed,
                "{outcome:?} slice left the source ahead of the run"
            );
        }
        if !outcome.can_continue() {
            return finish_trial(spec, &engine, engine.finish_run(&run), None);
        }
        let snapshot = engine.checkpoint(&run);
        engine = Engine::new();
        run = engine.restore(&snapshot);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Burst loop ≡ per-event loop per trial, for every oblivious registry
    /// entry × online spec, honest and audited.
    #[test]
    fn burst_trials_equal_per_event_trials(
        seed in 0u64..1_000_000,
        extra_nodes in 0usize..10,
    ) {
        let mut runner: TrialRunner<IdSet> = TrialRunner::new();
        for entry in oblivious_cases() {
            let n = entry.min_nodes().max(8) + extra_nodes;
            for spec in ONLINE {
                if !entry.supports(spec) {
                    continue;
                }
                let trial_seed = SeedSequence::new(seed).seed(0);
                let horizon = doda::adversary::RandomizedAdversary::default_horizon(n);
                let config = TrialConfig {
                    byzantine: entry.byzantine_injection(trial_seed),
                    ..TrialConfig::default()
                };
                let source = || entry.base.source(n, trial_seed);
                prop_assert!(source().is_oblivious());
                let burst = runner.run(spec, source, horizon, &config, &ExactOrigins);
                let per_event = || PerEvent(source());
                let per_event = runner.run(spec, per_event, horizon, &config, &ExactOrigins);
                prop_assert_eq!(
                    &burst,
                    &per_event,
                    "{} on {} diverged (n={}, seed={})",
                    spec,
                    entry,
                    n,
                    seed
                );
                prop_assert_eq!(burst.verdict.is_some(), entry.byzantine.is_some());
            }
        }
    }

    /// Sliced burst runs, checkpointed and restored at every pause, equal
    /// the per-event loop's uninterrupted run at budgets around one burst
    /// — and never pull past the budget or a horizon cut mid-burst.
    #[test]
    fn sliced_burst_runs_equal_the_per_event_run(
        seed in 0u64..1_000_000,
        extra_nodes in 0usize..16,
        short_horizon in 0u8..2,
    ) {
        for entry in oblivious_cases() {
            if entry.byzantine.is_some() {
                // The sliced surface runs the honest plane only.
                continue;
            }
            let n = entry.min_nodes().max(8) + extra_nodes;
            let trial_seed = SeedSequence::new(seed).seed(0);
            let horizon = if short_horizon == 1 {
                // Cuts the run mid-burst, before most trials complete.
                3 * PULL_BATCH as u64 + 77
            } else {
                doda::adversary::RandomizedAdversary::default_horizon(n) as u64
            };
            for spec in ONLINE {
                if !entry.supports(spec) {
                    continue;
                }
                let reference_pulls = Rc::new(Cell::new(0));
                let mut reference_source = PerEvent(Counting {
                    inner: entry.base.source(n, trial_seed),
                    pulled: Rc::clone(&reference_pulls),
                });
                let expected =
                    sliced(spec, &mut reference_source, &reference_pulls, horizon, u64::MAX);
                for budget in BUDGETS {
                    let pulled = Rc::new(Cell::new(0));
                    let mut source = Counting {
                        inner: entry.base.source(n, trial_seed),
                        pulled: Rc::clone(&pulled),
                    };
                    let got = sliced(spec, &mut source, &pulled, horizon, budget);
                    prop_assert_eq!(
                        &got,
                        &expected,
                        "{} on {} diverged at budget {} (n={}, seed={})",
                        spec,
                        entry,
                        budget,
                        n,
                        seed
                    );
                }
            }
        }
    }
}

/// A finite oblivious stream that ends inside a burst stops the run with
/// `SourceExhausted` and exactly the per-event loop's counters, pulled
/// exactly as far as the run went; resuming it changes nothing.
#[test]
fn a_source_ending_mid_burst_exhausts_like_the_per_event_loop() {
    let n = 6;
    // Never touches the sink, so no algorithm can complete on it.
    let pairs = (0..PULL_BATCH + 44).map(|i| (1 + i % 5, 1 + (i + 1) % 5));
    let seq = InteractionSequence::from_pairs(n, pairs);
    let run_on = |source: &mut dyn InteractionSource, budget: u64| {
        let mut algorithm = AlgorithmSpec::Gathering
            .instantiate_online()
            .expect("online");
        let mut engine: Engine<IdSet> = Engine::new();
        let mut run = engine.begin_run(n, SINK, IdSet::singleton, EngineConfig::sweep(1 << 20));
        let mut outcomes = Vec::new();
        loop {
            let outcome = engine
                .step_for(
                    &mut run,
                    algorithm.as_mut(),
                    source,
                    IdSet::singleton,
                    budget,
                    &mut DiscardTransmissions,
                )
                .expect("step_for");
            outcomes.push((outcome, run));
            if !outcome.can_continue() {
                break;
            }
        }
        // Resuming an exhausted finite stream is a no-op.
        let again = engine
            .step_for(
                &mut run,
                algorithm.as_mut(),
                source,
                IdSet::singleton,
                budget,
                &mut DiscardTransmissions,
            )
            .expect("step_for");
        outcomes.push((again, run));
        (outcomes, engine.finish_run(&run))
    };
    for budget in BUDGETS {
        let pulled = Rc::new(Cell::new(0));
        let mut burst = Counting {
            inner: seq.stream(false),
            pulled: Rc::clone(&pulled),
        };
        assert!(burst.is_oblivious());
        let (burst_outcomes, burst_stats) = run_on(&mut burst, budget);
        let (reference_outcomes, reference_stats) =
            run_on(&mut PerEvent(seq.stream(false)), budget);
        assert_eq!(burst_outcomes, reference_outcomes, "budget {budget}");
        assert_eq!(burst_stats, reference_stats, "budget {budget}");
        let (last, run) = burst_outcomes[burst_outcomes.len() - 1];
        assert_eq!(last, StepOutcome::SourceExhausted);
        assert_eq!(run.interactions_processed(), seq.len() as u64);
        assert!(run.transmissions() > 0);
        assert_eq!(pulled.get(), seq.len() as u64, "budget {budget}");
    }
}

/// The properties above cover the round scenarios only because their
/// flattened streams are oblivious: a round source that lost
/// `is_oblivious` would drop out of `oblivious_cases()` without a failure,
/// so every plain round scenario must be among the cases.
#[test]
fn every_round_scenario_is_an_oblivious_case() {
    let cases = oblivious_cases();
    let rounds: Vec<Scenario> = Scenario::registry()
        .into_iter()
        .filter(Scenario::is_round)
        .collect();
    assert_eq!(rounds.len(), 5);
    for scenario in rounds {
        assert!(
            cases.iter().any(|case| case.base == scenario
                && case.faults.is_none()
                && case.byzantine.is_none()),
            "{scenario} is not an oblivious case"
        );
    }
}
