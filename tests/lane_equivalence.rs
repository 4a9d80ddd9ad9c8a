//! Property suite: the lane tier is anchored to the scalar reference,
//! byte for byte.
//!
//! The lane engine steps up to [`MAX_LANES`] trials in lockstep through
//! shared `[u64]` bit-lane state — a completely different execution
//! strategy from the scalar per-trial engine. These properties pin the
//! contract that makes it safe to route sweeps through it silently:
//!
//! 1. **Tier equivalence** — for every scenario of the registry ×
//!    knowledge-free algorithm × seed, forcing [`ExecutionTier::Lanes`]
//!    produces the same per-trial [`TrialResult`]s as forcing
//!    [`ExecutionTier::Scalar`]. This covers the oblivious batched path
//!    (devirtualised pulls, including hand-batched sources) and the
//!    stepped path for adaptive adversaries alike. The scalar tier pulls
//!    oblivious sources in bursts too; `tests/burst_equivalence.rs` pins
//!    it to the engine's per-event loop.
//! 2. **Grouping invariance** — the lane-batch width `K` and ragged final
//!    batches (`trials % K != 0`) never change a result: trial `i` is
//!    seeded by position, not by lane or batch.
//! 3. **Serial/parallel invariance** — lane sweeps are byte-identical
//!    across worker counts, like every other tier.
//!
//! [`MAX_LANES`]: doda::core::MAX_LANES

use doda::prelude::*;
use doda::workloads::UniformWorkload;
use proptest::prelude::*;

/// The knowledge-free algorithms: the specs with a lane kernel.
const LANED: [AlgorithmSpec; 2] = [AlgorithmSpec::Gathering, AlgorithmSpec::Waiting];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Lane tier ≡ scalar tier, per trial, for every registry scenario ×
    /// knowledge-free algorithm × seed.
    #[test]
    fn lane_tier_equals_the_scalar_tier(
        seed in 0u64..1_000_000,
        n_base in 6usize..14,
    ) {
        for scenario in Scenario::registry() {
            let n = n_base.max(scenario.min_nodes());
            for spec in LANED {
                let sweep = |tier| {
                    Sweep::scenario(spec, scenario)
                        .n(n)
                        .trials(5)
                        .seed(seed)
                        .horizon(Some(3_000))
                        .tier(tier)
                };
                let lanes = sweep(ExecutionTier::Lanes).run();
                let scalar = sweep(ExecutionTier::Scalar).run();
                prop_assert_eq!(
                    &lanes,
                    &scalar,
                    "{} diverged between lanes and scalar on {} (n={}, seed={})",
                    spec,
                    scenario,
                    n,
                    seed
                );
            }
        }
    }

    /// The lane-batch width never leaks into results: K ∈ {1, 7, 64}
    /// with a deliberately ragged trial count (`trials % K != 0` for the
    /// wide widths) all match the scalar reference.
    #[test]
    fn lane_grouping_and_ragged_batches_are_invisible(
        seed in 0u64..1_000_000,
        trials in 9usize..23,
    ) {
        let workload = UniformWorkload::new(12);
        for spec in LANED {
            let sweep = || {
                Sweep::workload(spec, &workload)
                    .trials(trials)
                    .seed(seed)
                    .horizon(Some(2_500))
            };
            let scalar = sweep().tier(ExecutionTier::Scalar).run();
            for width in [1, 7, 64] {
                let lanes = sweep()
                    .tier(ExecutionTier::Lanes)
                    .lane_width(width)
                    .run();
                prop_assert_eq!(
                    &lanes,
                    &scalar,
                    "{} diverged at lane width {} ({} trials, seed={})",
                    spec,
                    width,
                    trials,
                    seed
                );
            }
        }
    }

    /// Lane sweeps are serial/parallel byte-identical, with worker
    /// sharding layered on top of lane batching.
    #[test]
    fn lane_sweeps_are_serial_parallel_identical(seed in 0u64..1_000_000) {
        for scenario in [Scenario::Uniform, Scenario::ObliviousTrap] {
            for spec in LANED {
                let sweep = || {
                    Sweep::scenario(spec, scenario)
                        .n(10)
                        .trials(11)
                        .seed(seed)
                        .horizon(Some(2_000))
                        .tier(ExecutionTier::Lanes)
                        .lane_width(4)
                };
                let serial = sweep().parallel(false).run();
                let parallel = sweep().parallel(true).run();
                prop_assert_eq!(
                    &serial,
                    &parallel,
                    "{} diverged between serial and parallel lanes on {}",
                    spec,
                    scenario
                );
            }
        }
    }
}

/// The auto tier routes knowledge-free fault-free scenario sweeps to the
/// lane path — and what it runs is exactly what the forced lane tier runs.
#[test]
fn auto_resolves_to_lanes_and_matches_the_forced_tier() {
    let sweep = |tier| {
        Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(16)
            .trials(6)
            .seed(0xD0DA)
            .horizon(Some(4_000))
            .tier(tier)
    };
    assert_eq!(sweep(ExecutionTier::Auto).path_label(), "lanes");
    assert_eq!(
        sweep(ExecutionTier::Auto).run(),
        sweep(ExecutionTier::Lanes).run()
    );
}
