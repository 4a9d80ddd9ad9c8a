//! Cross-crate determinism guarantees of the sharded batch runner.
//!
//! The sweep runner shards trials across worker threads, but trial `i`
//! always runs with the sub-seed derived from `(seed, i)` no matter
//! which worker executes it — so a parallel batch must be **identical**
//! (summary and raw per-trial results, byte for byte) to the serial batch
//! of the same configuration, and re-running either must reproduce it.

use doda_core::fault::FaultProfile;
use doda_sim::prelude::*;

/// A uniform scenario sweep of `spec` at the default horizon.
fn uniform(
    spec: AlgorithmSpec,
    n: usize,
    trials: usize,
    seed: u64,
    parallel: bool,
) -> Sweep<'static> {
    Sweep::scenario(spec, Scenario::Uniform)
        .n(n)
        .trials(trials)
        .seed(seed)
        .parallel(parallel)
}

#[test]
fn parallel_and_serial_batches_are_byte_identical() {
    for spec in [
        AlgorithmSpec::Gathering,
        AlgorithmSpec::Waiting,
        AlgorithmSpec::WaitingGreedy { tau: None },
        AlgorithmSpec::OfflineOptimal,
    ] {
        for seed in [1u64, 0xD0DA] {
            let serial = uniform(spec, 12, 9, seed, false).run_summarized();
            let parallel = uniform(spec, 12, 9, seed, true).run_summarized();
            assert_eq!(
                serial, parallel,
                "{spec} diverged between serial and parallel for seed {seed}"
            );
        }
    }
}

#[test]
fn batches_are_reproducible_across_runs() {
    let sweep = uniform(AlgorithmSpec::Gathering, 10, 6, 7, true);
    let first = sweep.run_summarized();
    let second = sweep.run_summarized();
    assert_eq!(first, second);
}

#[test]
fn different_seeds_produce_different_batches() {
    let a = uniform(AlgorithmSpec::Gathering, 10, 6, 1, true).run_summarized();
    let b = uniform(AlgorithmSpec::Gathering, 10, 6, 2, true).run_summarized();
    assert_ne!(a.1, b.1, "distinct seeds must draw distinct sequences");
}

/// The streamed sharded runner: every entry of the **faulted** scenario
/// registry — the fault-free scenarios plus every fault-profile and
/// Byzantine variant — must produce byte-identical raw results serially
/// and in parallel, for both streamed and materialising algorithms.
#[test]
fn scenario_batches_are_serial_parallel_identical() {
    for scenario in doda::sim::test_support::registry_cases() {
        let n = scenario.min_nodes().max(10);
        for spec in [
            AlgorithmSpec::Gathering,
            AlgorithmSpec::Waiting,
            AlgorithmSpec::WaitingGreedy { tau: None },
        ] {
            if !scenario.supports(spec) {
                continue;
            }
            let sweep = |parallel| {
                Sweep::scenario(spec, scenario)
                    .n(n)
                    .trials(7)
                    .horizon(Some(3_000))
                    .seed(0xD0DA)
                    .parallel(parallel)
                    .run()
            };
            let (serial, parallel) = (sweep(false), sweep(true));
            assert_eq!(
                serial, parallel,
                "{spec} diverged between serial and parallel on scenario '{scenario}'"
            );
            assert_eq!(serial.len(), 7);
            // Fault-free entries stay clean; every terminated honest
            // trial (faulted or not) conserves its data — Byzantine
            // entries corrupt the data plane by design.
            if scenario.faults.is_none() {
                assert!(serial.iter().all(|r| r.faults.is_clean()), "{scenario}");
            }
            if scenario.byzantine.is_none() {
                assert!(
                    serial.iter().all(|r| !r.terminated() || r.data_conserved),
                    "{spec} broke conservation on scenario '{scenario}'"
                );
            }
        }
    }
}

/// The fault axis itself is deterministic end to end: re-running a
/// faulted batch reproduces it, distinct fault seeds (via the batch
/// seed) change the outcomes, and the fault events genuinely fire.
#[test]
fn faulted_batches_are_reproducible_and_seed_sensitive() {
    let scenario = Scenario::Uniform.with_faults(FaultProfile {
        loss: 0.1,
        ..FaultProfile::crash(0.002)
    });
    let sweep = |seed| {
        Sweep::scenario(AlgorithmSpec::Gathering, scenario)
            .n(16)
            .trials(8)
            .horizon(Some(20_000))
            .seed(seed)
            .parallel(true)
            .run()
    };
    let first = sweep(0xFA7);
    let second = sweep(0xFA7);
    assert_eq!(first, second);
    let other_seed = sweep(0xFA8);
    assert_ne!(
        first, other_seed,
        "distinct seeds must draw distinct faults"
    );
    assert!(
        first.iter().any(|r| !r.faults.is_clean()),
        "the fault plan must fire somewhere in the batch"
    );
}

/// Adaptive adversaries run through the sharded runner as first-class
/// streamed scenarios, deterministically (the acceptance criterion of the
/// streaming-first refactor).
#[test]
fn adaptive_scenarios_shard_deterministically() {
    let sweep = |parallel| {
        Sweep::scenario(AlgorithmSpec::Gathering, Scenario::AdaptiveIsolator)
            .n(24)
            .trials(9)
            .horizon(Some(10_000))
            .seed(3)
            .parallel(parallel)
            .run()
    };
    let (serial, parallel) = (sweep(false), sweep(true));
    assert_eq!(serial, parallel);
    assert!(serial
        .iter()
        .all(|r| r.terminated() && r.data_conserved && r.transmissions == 23));
}

mod isolator_invariant {
    //! Invariant proptest for the adaptive isolators' cached-pair
    //! revalidation: against *any* evolution of the ownership bitmap —
    //! including the abrupt losses a crash plan produces — the emitted
    //! pair never touches the isolated node (the sink) while isolation
    //! must hold.

    use doda_adversary::{CrashAwareIsolator, IsolatorAdversary};
    use doda_core::prelude::*;
    use doda_graph::NodeId;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Drive both isolators through a random ownership history: at
        /// each step a random subset instruction may strip ownership from
        /// a random node (modelling a transmission *or* a fault-driven
        /// loss — the adversary cannot tell them apart). While at least
        /// two non-sink owners remain, the plain isolator must keep the
        /// sink out of every pair; the crash-aware isolator must never
        /// involve the sink at all.
        #[test]
        fn cached_pair_revalidation_never_leaks_the_isolated_node(
            n in 4usize..16,
            sink_idx in 0usize..16,
            kills in prop::collection::vec(0usize..16, 1..40),
        ) {
            let sink = NodeId(sink_idx % n);
            let mut plain = IsolatorAdversary::new(n);
            let mut aware = CrashAwareIsolator::new(n);
            let mut owns = vec![true; n];
            for (t, kill) in kills.iter().enumerate() {
                let t = t as Time;
                let view = AdversaryView { owns_data: &owns, sink };
                let non_sink_owners = owns
                    .iter()
                    .enumerate()
                    .filter(|&(i, &o)| o && NodeId(i) != sink)
                    .count();

                let pair = plain
                    .next_interaction(t, &view)
                    .expect("owners remain, the isolator never runs dry");
                if non_sink_owners >= 2 {
                    prop_assert!(
                        !pair.involves(sink),
                        "plain isolator leaked the sink at t={} with {} owners",
                        t, non_sink_owners
                    );
                    // Isolation pairs always join two data owners.
                    prop_assert!(view.owns(pair.min()) && view.owns(pair.max()));
                }

                let aware_pair = aware
                    .next_interaction(t, &view)
                    .expect("owners remain, the isolator never runs dry");
                prop_assert!(
                    !aware_pair.involves(sink),
                    "crash-aware isolator touched the sink at t={}",
                    t
                );

                // Random ownership loss, sparing the sink (it never
                // transmits and never dies).
                let victim = NodeId(kill % n);
                if victim != sink {
                    owns[victim.index()] = false;
                }
                // Stop once nothing but the sink owns data.
                if owns
                    .iter()
                    .enumerate()
                    .all(|(i, &o)| !o || NodeId(i) == sink)
                {
                    break;
                }
            }
        }
    }
}
