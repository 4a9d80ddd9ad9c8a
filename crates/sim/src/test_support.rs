//! Shared registry fixtures for the cross-crate test suites, and the
//! per-event reference ([`PerEvent`]) the engine's burst loop is checked
//! and timed against.
//!
//! The equivalence and conformance suites under `tests/` all enumerate
//! the same scenario registry, but historically each re-listed the
//! faulted entries by hand — so a registry extension (a new fault plan,
//! the Byzantine axis) silently left some suites behind. These helpers
//! are the single source of truth: a suite picks the slice matching the
//! paths it can exercise and inherits every future registry entry for
//! free.

use doda_core::interaction::{Interaction, Time};
use doda_core::sequence::{AdversaryView, InteractionSource, StepEvent};
use doda_stats::rng::SeedSequence;

use crate::datum::ExactOrigins;
use crate::runner::shard;
use crate::scenario::{FaultedScenario, Scenario};
use crate::spec::AlgorithmSpec;
use crate::trial::{TrialConfig, TrialResult, TrialRunner};

/// A source that hides its obliviousness, so [`doda_core::Engine::step_for`]
/// pulls it one [`InteractionSource::next_event`] per interaction — the
/// loop adaptive and faulted sources take — instead of in bursts.
///
/// It is the per-event reference the burst loop is pinned against
/// (`tests/burst_equivalence.rs`) and timed against (`doda-bench
/// --lane-guard`). It adds no boxing: around a boxed source, every step
/// costs exactly one virtual `next_event` call.
#[derive(Debug)]
pub struct PerEvent<S>(pub S);

impl<S: InteractionSource> InteractionSource for PerEvent<S> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        self.0.next_interaction(t, view)
    }

    fn next_event(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<StepEvent> {
        self.0.next_event(t, view)
    }
}

/// The trials `Sweep::scenario(spec, scenario).n(n).trials(trials)
/// .seed(seed).parallel(parallel).tier(ExecutionTier::Scalar).run()` runs,
/// with the same seeds, default horizon and sharding, but with every
/// source wrapped in [`PerEvent`]: the streamed scalar tier on the
/// per-event loop.
///
/// # Panics
///
/// Panics if `spec` needs knowledge of the future.
pub fn per_event_sweep(
    spec: AlgorithmSpec,
    scenario: Scenario,
    n: usize,
    trials: usize,
    seed: u64,
    parallel: bool,
) -> Vec<TrialResult> {
    let seeds = SeedSequence::new(seed);
    let config = TrialConfig {
        max_interactions: Some(doda_adversary::RandomizedAdversary::default_horizon(n) as u64),
        ..TrialConfig::default()
    };
    shard(trials, parallel, 1, TrialRunner::new, |runner, trials| {
        trials
            .map(|trial| {
                let mut source = PerEvent(scenario.source(n, seeds.seed(trial as u64)));
                runner.run_streamed(spec, &mut source, &config, &ExactOrigins)
            })
            .collect()
    })
}

/// Every registry entry: plain, faulted, Byzantine, and product
/// entries alike. For suites that drive trials through [`crate::Sweep`]
/// (which routes Byzantine entries onto the audited scalar paths).
pub fn registry_cases() -> Vec<FaultedScenario> {
    FaultedScenario::registry()
}

/// The registry minus entries carrying a Byzantine plan. For suites
/// that drive the engine directly on the honest data plane (checkpoint
/// slicing, hand-rolled `run`/`step_for` loops): they cannot reproduce
/// the audited `run_audited` execution, so Byzantine entries are out of
/// scope by construction rather than by a per-suite filter that can drift.
pub fn byzantine_free_registry_cases() -> Vec<FaultedScenario> {
    FaultedScenario::registry()
        .into_iter()
        .filter(|scenario| scenario.byzantine.is_none())
        .collect()
}

/// The registry entries whose base schedule is round-based — plain,
/// faulted, and Byzantine variants, all of which run the flattened round
/// stream. For the round-scenario sweep suite.
pub fn round_registry_cases() -> Vec<FaultedScenario> {
    FaultedScenario::registry()
        .into_iter()
        .filter(FaultedScenario::is_round)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_per_event_sweep_matches_the_scalar_tier() {
        use crate::sweep::{ExecutionTier, Sweep};
        for scenario in [Scenario::Uniform, Scenario::ObliviousTrap] {
            let sweep = Sweep::scenario(AlgorithmSpec::Gathering, scenario)
                .n(20)
                .trials(6)
                .seed(3)
                .parallel(true)
                .tier(ExecutionTier::Scalar);
            let reference = per_event_sweep(AlgorithmSpec::Gathering, scenario, 20, 6, 3, true);
            assert_eq!(reference, sweep.run(), "{scenario}");
        }
        assert!(!PerEvent(Scenario::Uniform.source(4, 0)).is_oblivious());
    }

    #[test]
    fn the_slices_partition_sensibly() {
        let all = registry_cases();
        let honest = byzantine_free_registry_cases();
        let rounds = round_registry_cases();
        assert!(
            honest.len() < all.len(),
            "the registry carries Byzantine entries"
        );
        assert!(honest.iter().all(|s| s.byzantine.is_none()));
        assert!(rounds.iter().all(FaultedScenario::is_round));
        // Every slice is a sub-multiset of the registry, in registry order.
        let names: Vec<String> = all.iter().map(FaultedScenario::name).collect();
        for slice in [&honest, &rounds] {
            let mut cursor = 0usize;
            for entry in slice.iter() {
                let name = entry.name();
                let pos = names[cursor..]
                    .iter()
                    .position(|n| *n == name)
                    .unwrap_or_else(|| panic!("slice entry '{name}' not in registry order"));
                cursor += pos + 1;
            }
        }
        // The round slice covers at least one plain, one faulted and one
        // Byzantine variant, so the suite exercises all three routes.
        assert!(rounds
            .iter()
            .any(|s| s.faults.is_none() && s.byzantine.is_none()));
        assert!(rounds.iter().any(|s| s.faults.is_some()));
        assert!(rounds.iter().any(|s| s.byzantine.is_some()));
    }
}
