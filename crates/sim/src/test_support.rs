//! Shared registry fixtures for the cross-crate test suites.
//!
//! The equivalence and conformance suites under `tests/` all enumerate
//! the same scenario registry, but historically each re-listed the
//! faulted entries by hand — so a registry extension (a new fault plan,
//! the Byzantine axis) silently left some suites behind. These helpers
//! are the single source of truth: a suite picks the slice matching the
//! paths it can exercise and inherits every future registry entry for
//! free.

use crate::scenario::FaultedScenario;

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
/// faulted, and Byzantine variants. For the round-equivalence suite:
/// fault-free entries route through the native round path, faulted and
/// Byzantine entries through the flattened stream.
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
