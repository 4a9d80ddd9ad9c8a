//! Property suite: the round-based execution model is anchored to the
//! pairwise model, byte for byte.
//!
//! Two embeddings are pinned here, for every scenario of the registry ×
//! knowledge-free algorithm × seed:
//!
//! 1. **Singleton anchor** — lifting any pairwise stream to one-interaction
//!    rounds ([`SingletonRounds`]) and driving it through the engine's
//!    batched round path produces results identical to the pairwise path
//!    (same `ExecutionOutcome` counters, same `FaultTally`, same final
//!    state). The round model strictly generalises the paper's.
//! 2. **Flattening** — playing a native round scenario through its
//!    flattened pairwise view ([`FlattenedRounds`], what oracles and fault
//!    plans consume) produces results identical to the native batched
//!    round path. The two execution routes of the sweep runner can never
//!    disagree.
//!
//! Plus the sweep-level guarantee: round scenarios (fault-free and
//! faulted) are serial/parallel byte-identical through
//! [`Sweep`].

use doda::core::engine;
use doda::core::round::SingletonRounds;
use doda::graph::NodeId;
use doda::prelude::*;
use proptest::prelude::*;

const STREAMABLE: [AlgorithmSpec; 2] = [AlgorithmSpec::Gathering, AlgorithmSpec::Waiting];

fn trial_config(horizon: u64) -> TrialConfig {
    TrialConfig {
        max_interactions: Some(horizon),
        ..TrialConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Singleton rounds ≡ pairwise, for every registry scenario ×
    /// knowledge-free algorithm × seed — including the adaptive
    /// adversaries, whose ownership view passes through the singleton
    /// lift unchanged.
    #[test]
    fn singleton_rounds_equal_the_pairwise_path(
        seed in 0u64..1_000_000,
        n_base in 6usize..14,
    ) {
        let horizon = 3_000u64;
        let mut runner = TrialRunner::new();
        for scenario in Scenario::registry() {
            let n = n_base.max(scenario.min_nodes());
            for spec in STREAMABLE {
                let pairwise = runner.run_streamed(
                    spec,
                    scenario.source(n, seed).as_mut(),
                    &trial_config(horizon),
                    &ExactOrigins,
                );
                let via_rounds = runner.run_rounds(
                    spec,
                    &mut SingletonRounds::new(scenario.source(n, seed)),
                    &trial_config(horizon),
                    &ExactOrigins,
                );
                // TrialResult carries the full outcome surface: counters,
                // completion class, FaultTally, data conservation.
                prop_assert_eq!(
                    &pairwise,
                    &via_rounds,
                    "{} diverged on {} (n={}, seed={})",
                    spec,
                    scenario,
                    n,
                    seed
                );
            }
        }
    }

    /// The singleton anchor at the engine level: identical
    /// `ExecutionOutcome`-level counters *and* identical final network
    /// state (sink aggregate, ownership bitmap).
    #[test]
    fn singleton_rounds_preserve_the_execution_outcome(
        seed in 0u64..1_000_000,
        n in 6usize..14,
    ) {
        let config = EngineConfig::sweep(2_000);
        for scenario in [Scenario::Uniform, Scenario::Zipf { exponent: 1.2 }] {
            for spec in STREAMABLE {
                let outcome = engine::run_with_id_sets(
                    spec.instantiate_online().expect("streamable").as_mut(),
                    scenario.source(n, seed).as_mut(),
                    NodeId(0),
                    config,
                )
                .expect("valid decisions");

                let mut round_engine: Engine<IdSet> = Engine::new();
                let stats = round_engine
                    .run_rounds(
                        spec.instantiate_online().expect("streamable").as_mut(),
                        &mut SingletonRounds::new(scenario.source(n, seed)),
                        NodeId(0),
                        IdSet::singleton,
                        config,
                        &mut DiscardTransmissions,
                    )
                    .expect("valid decisions");

                prop_assert_eq!(stats.run.termination_time, outcome.termination_time);
                prop_assert_eq!(
                    stats.run.interactions_processed,
                    outcome.interactions_processed
                );
                prop_assert_eq!(stats.rounds_processed, outcome.interactions_processed);
                prop_assert_eq!(stats.run.completion, outcome.completion);
                prop_assert_eq!(stats.run.faults, outcome.faults);
                prop_assert_eq!(
                    round_engine.state().data_of(NodeId(0)).cloned(),
                    outcome.sink_data
                );
                prop_assert_eq!(
                    round_engine.state().ownership_bitmap(),
                    outcome.final_ownership
                );
            }
        }
    }

    /// Native batched round execution ≡ flattened pairwise execution, for
    /// every round scenario × knowledge-free algorithm × seed — the
    /// property that lets the sweep runner route fault-free trials through
    /// `run_rounds` and everything else through the flattened stream
    /// without ever changing a number.
    #[test]
    fn native_rounds_equal_the_flattened_stream(
        seed in 0u64..1_000_000,
        n_base in 6usize..16,
    ) {
        let horizon = 4_000u64;
        let mut runner = TrialRunner::new();
        for scenario in Scenario::registry() {
            let Some(_) = scenario.round_source(scenario.min_nodes(), 0) else {
                continue;
            };
            let n = n_base.max(scenario.min_nodes());
            for spec in STREAMABLE {
                let mut rounds = scenario
                    .round_source(n, seed)
                    .expect("round scenarios expose round sources");
                let native = runner.run_rounds(spec, rounds.as_mut(), &trial_config(horizon), &ExactOrigins);
                // Scenario::source of a round scenario IS the flattened view.
                let flattened = runner.run_streamed(
                    spec,
                    scenario.source(n, seed).as_mut(),
                    &trial_config(horizon),
                    &ExactOrigins,
                );
                prop_assert_eq!(
                    &native,
                    &flattened,
                    "{} diverged on {} (n={}, seed={})",
                    spec,
                    scenario,
                    n,
                    seed
                );
            }
        }
    }

    /// Round scenarios sweep serial/parallel byte-identically — fault-free
    /// (native round path), faulted (flattened fault layer), Byzantine
    /// (audited flattened stream), and materialising (oracles over the
    /// flattened stream) alike. The cases come from the shared registry
    /// slice, so a new round entry is covered automatically.
    #[test]
    fn round_scenario_sweeps_are_serial_parallel_identical(seed in 0u64..1_000_000) {
        for scenario in doda::sim::test_support::round_registry_cases() {
            let plain = scenario.faults.is_none() && scenario.byzantine.is_none();
            let specs: &[AlgorithmSpec] = if plain {
                &[AlgorithmSpec::Gathering, AlgorithmSpec::WaitingGreedy { tau: None }]
            } else {
                &[AlgorithmSpec::Gathering]
            };
            for &spec in specs {
                if !scenario.supports(spec) {
                    continue;
                }
                let cfg = BatchConfig {
                    n: scenario.min_nodes().max(11),
                    trials: 5,
                    horizon: Some(3_000),
                    seed,
                    parallel: false,
                };
                let serial = Sweep::scenario(spec, scenario).config(&cfg).run();
                let parallel = Sweep::scenario(spec, scenario)
                    .config(&BatchConfig {
                        parallel: true,
                        ..cfg
                    })
                    .run();
                prop_assert_eq!(
                    &serial,
                    &parallel,
                    "{} diverged between serial and parallel on {}",
                    spec,
                    scenario
                );
            }
        }
    }
}

/// The sink-unmatched round trap starves every algorithm of the suite —
/// the round-model impossibility the registry exposes as a scenario.
#[test]
fn round_isolator_starves_every_supported_algorithm() {
    let cfg = BatchConfig {
        n: 10,
        trials: 3,
        horizon: Some(2_000),
        seed: 0xD0DA,
        parallel: false,
    };
    let scenario = Scenario::RoundIsolator;
    for spec in AlgorithmSpec::all() {
        if !scenario.supports(spec) {
            continue;
        }
        let results = Sweep::scenario(spec, scenario).config(&cfg).run();
        assert!(
            results.iter().all(|r| !r.terminated()),
            "{spec} escaped the sink-unmatched trap"
        );
    }
}
