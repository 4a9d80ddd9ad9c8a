//! Property suite: round scenarios sweep reproducibly and keep the
//! round-model impossibility.
//!
//! A round scenario runs its flattened stream
//! ([`doda::core::FlattenedRounds`]) on every tier, pulled in bursts like
//! any oblivious pairwise stream; `tests/burst_equivalence.rs` pins the
//! burst pulls to the per-event loop and `tests/lane_equivalence.rs` the
//! lanes to the scalar tier. This suite pins the sweep-level guarantee:
//! round scenarios (plain, faulted and Byzantine) are serial/parallel
//! byte-identical through [`Sweep`], and the sink-unmatched round trap
//! starves every algorithm.

use doda::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Round scenarios sweep serial/parallel byte-identically — fault-free
    /// (lanes), faulted (flattened fault layer), Byzantine (audited
    /// flattened stream), and materialising (oracles over the flattened
    /// stream) alike. The cases come from the shared registry
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
                let sweep = |parallel| {
                    Sweep::scenario(spec, scenario)
                        .n(scenario.min_nodes().max(11))
                        .trials(5)
                        .horizon(Some(3_000))
                        .seed(seed)
                        .parallel(parallel)
                        .run()
                };
                let (serial, parallel) = (sweep(false), sweep(true));
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
    let scenario = Scenario::RoundIsolator;
    for spec in AlgorithmSpec::all() {
        if !scenario.supports(spec) {
            continue;
        }
        let results = Sweep::scenario(spec, scenario)
            .n(10)
            .trials(3)
            .horizon(Some(2_000))
            .seed(0xD0DA)
            .run();
        assert!(
            results.iter().all(|r| !r.terminated()),
            "{spec} escaped the sink-unmatched trap"
        );
    }
}
