//! Property suite: streamed and materialised execution are the same
//! computation.
//!
//! For every workload × knowledge-free algorithm × seed, running the
//! engine off the workload's streaming source must produce a
//! [`TrialResult`] **byte-identical** to running it over the materialised
//! sequence of the same seed — the invariant that lets the sweep runner
//! stream knowledge-free algorithms (and drop the `O(horizon)` buffer)
//! without changing a single measured number.

use doda::prelude::*;
use doda::workloads::{
    BodyAreaWorkload, CommunityWorkload, RoundRobinWorkload, TreeRestrictedWorkload,
    UniformWorkload, VehicularWorkload, ZipfWorkload,
};
use proptest::prelude::*;

fn all_workloads(n: usize) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(UniformWorkload::new(n)),
        Box::new(ZipfWorkload::new(n, 1.2)),
        Box::new(CommunityWorkload::new(n, 2, 0.9)),
        Box::new(BodyAreaWorkload::new(n)),
        Box::new(VehicularWorkload::new(n, 3)),
        Box::new(RoundRobinWorkload::all_pairs(n)),
        Box::new(TreeRestrictedWorkload::random_tree(n)),
    ]
}

const STREAMABLE: [AlgorithmSpec; 2] = [AlgorithmSpec::Gathering, AlgorithmSpec::Waiting];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Streamed == materialised, byte for byte, per workload × algorithm.
    #[test]
    fn streamed_equals_materialized(seed in 0u64..1_000_000, n in 4usize..14) {
        let horizon = 6 * n * n;
        let mut runner = TrialRunner::new();
        for workload in all_workloads(n) {
            let seq = workload.generate(horizon, seed);
            for spec in STREAMABLE {
                let config = TrialConfig::default();
                let materialized =
                    runner.run(spec, || seq.source(false), horizon, &config, &ExactOrigins);
                let streamed =
                    runner.run(spec, || workload.source(seed), horizon, &config, &ExactOrigins);
                prop_assert_eq!(
                    &streamed,
                    &materialized,
                    "{} diverged on {} (n={}, seed={})",
                    spec,
                    workload.name(),
                    n,
                    seed
                );
            }
        }
    }

    /// The same invariant at the batch level: a workload `Sweep` (which
    /// streams knowledge-free specs) must reproduce a hand-materialised
    /// batch.
    #[test]
    fn batch_streaming_equals_manual_materialization(seed in 0u64..1_000_000) {
        let (n, trials) = (10, 4);
        let horizon = 5 * n * n;
        let workload = UniformWorkload::new(n);
        for spec in STREAMABLE {
            let via_runner = Sweep::workload(spec, &workload)
                .trials(trials)
                .horizon(Some(horizon))
                .seed(seed)
                .run();
            let manual: Vec<TrialResult> = (0..trials)
                .map(|trial| {
                    let trial_seed =
                        doda::stats::rng::SeedSequence::new(seed).seed(trial as u64);
                    let seq = workload.generate(horizon, trial_seed);
                    TrialRunner::new().run(
                        spec,
                        || seq.source(false),
                        horizon,
                        &TrialConfig::default(),
                        &ExactOrigins,
                    )
                })
                .collect();
            prop_assert_eq!(&via_runner, &manual, "{} diverged for seed {}", spec, seed);
        }
    }
}
