//! Multi-trial batches: the summary of a [`Sweep`](crate::Sweep)
//! ([`BatchResult`]) and the claim loop every sweep and service slice
//! runs on.
//!
//! A sweep fixes an algorithm, a node count and a trial count through its
//! builder; each trial draws an independent interaction stream from a
//! workload or scenario, runs the algorithm, and
//! [`Sweep::run_summarized`](crate::Sweep::run_summarized) summarises the
//! interaction counts.
//!
//! # Streaming-first execution
//!
//! Knowledge-free algorithms ([`AlgorithmSpec::requires_materialization`]
//! is `false`) run **streamed**: each trial pulls interactions one at a
//! time from a seeded source, so a sweep's memory footprint is `O(n)`
//! regardless of the horizon, and adaptive adversaries (which cannot be
//! pre-generated at all) sweep through the exact same machinery.
//! Knowledge-based algorithms read each trial's committed sequence ahead
//! of the execution, because their oracles are functions of the future:
//! Waiting Greedy on demand, the others filled into the runner's scratch
//! buffer first. Both paths produce byte-identical results for the same
//! seed, enforced by `tests/determinism.rs` and the
//! `streaming_equivalence` property suite.
//!
//! # Sharded execution
//!
//! Parallel batches are *sharded* by [`claim_chunks`], the one dispatcher
//! behind every sweep and every service slice: every worker owns a
//! [`TrialRunner`] (reused engine scratch, and the scratch sequence the
//! filling path refills in place) and keeps it for the whole batch. Workers claim trials from one
//! shared cursor as they free up — one trial at a time on the scalar
//! paths, a lane batch at a time on the lane tier — so a worker that drew
//! short trials takes more of them instead of idling while another
//! finishes a long one. The cursor is the only thing shared while trials
//! run; each trial's result lands in its own index slot. Because trial `i`
//! always uses the sub-seed `SeedSequence::seed(i)` regardless of which
//! worker executes it, serial and parallel runs of the same sweep
//! produce **identical** [`BatchResult`]s and raw
//! [`TrialResult`]s, byte for byte.
//!
//! [`TrialRunner`]: crate::trial::TrialRunner

use std::ops::Range;
use std::sync::Mutex;

use doda_stats::Summary;

use crate::spec::AlgorithmSpec;
use crate::trial::TrialResult;

/// Summary of a batch of trials.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Algorithm label.
    pub algorithm: String,
    /// Number of nodes.
    pub n: usize,
    /// Number of trials run.
    pub trials: usize,
    /// Number of trials that completed the aggregation within the horizon.
    pub completed: usize,
    /// Summary of the interaction counts to completion (over completed
    /// trials only).
    pub interactions: Summary,
    /// Fraction of completed trials (`completed / trials`).
    pub completion_rate: f64,
}

impl BatchResult {
    /// Fraction of completed trials whose completion count is within
    /// `bound` interactions — the empirical "with high probability within
    /// the bound" measure used by the Theorem 10 experiment.
    pub fn fraction_within(&self, bound: f64, raw: &[TrialResult]) -> f64 {
        let within = raw
            .iter()
            .filter(|r| {
                r.interactions_to_completion()
                    .map(|x| x <= bound)
                    .unwrap_or(false)
            })
            .count();
        within as f64 / raw.len().max(1) as f64
    }
}

/// Runs `run` over `items` in chunks claimed by up to `workers` threads:
/// the claim-based dispatcher behind every sweep and every service slice.
///
/// Workers claim the next `grain` unclaimed items from one cursor until
/// none are left, where `grain` (at least 1) is capped at
/// `⌈items.len() / workers⌉` so that every worker can get a chunk. A
/// worker that drew cheap items claims more instead of idling while
/// another finishes an expensive one. The calling thread is one of the
/// workers, so `workers = 1`, or `items` that fit in one chunk, spawns
/// no thread and runs everything on the caller. Each worker builds one state
/// with `init` and keeps it across its chunks; `run` gets that state, the
/// chunk's start index in `items` and the chunk itself, and writes its
/// results into the chunk, so they land in their own index slots and the
/// caller reads them back in index order. A worker's panic resumes on the
/// caller with the worker's own payload.
pub fn claim_chunks<T: Send, S>(
    items: &mut [T],
    workers: usize,
    grain: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize, &mut [T]) + Sync,
) {
    let grain = grain
        .max(1)
        .min(items.len().div_ceil(workers.max(1)).max(1));
    let workers = workers.clamp(1, items.len().div_ceil(grain).max(1));
    let cursor = Mutex::new((0, items));
    let claim = || {
        let mut cursor = cursor
            .lock()
            .expect("no claim panics while holding the cursor");
        let (start, rest) = &mut *cursor;
        if rest.is_empty() {
            return None;
        }
        let len = grain.min(rest.len());
        let (chunk, tail) = std::mem::take(rest).split_at_mut(len);
        *rest = tail;
        let chunk_start = *start;
        *start += chunk.len();
        Some((chunk_start, chunk))
    };
    let worker = || {
        let mut state = init();
        while let Some((start, chunk)) = claim() {
            run(&mut state, start, chunk);
        }
    };
    if workers == 1 {
        return worker();
    }
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        worker();
        for handle in spawned {
            handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        }
    });
}

/// Runs trials `0..trials` through [`claim_chunks`] and returns their
/// results in trial-index order: serially on the calling thread, or, when
/// `parallel`, on `available_parallelism` workers. `run` returns the
/// results of a range of at most `grain` consecutive trials, in order.
pub(crate) fn shard<S>(
    trials: usize,
    parallel: bool,
    grain: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, Range<usize>) -> Vec<TrialResult> + Sync,
) -> Vec<TrialResult> {
    let workers = if parallel {
        std::thread::available_parallelism().map_or(2, |p| p.get())
    } else {
        1
    };
    let mut slots = Vec::new();
    slots.resize_with(trials, || None);
    claim_chunks(&mut slots, workers, grain, init, |state, start, chunk| {
        let results = run(state, start..start + chunk.len());
        for (slot, result) in chunk.iter_mut().zip(results) {
            *slot = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every trial is claimed exactly once"))
        .collect()
}

/// Summarises the raw results of `trials` trials over `n` nodes, each run
/// to at most `horizon` interactions, into a [`BatchResult`].
///
/// # Panics
///
/// Panics if no trial terminated (no summary can be formed); in practice
/// this means the horizon was far too small for the algorithm.
pub(crate) fn summarize(
    spec: AlgorithmSpec,
    n: usize,
    trials: usize,
    horizon: usize,
    results: &[TrialResult],
) -> BatchResult {
    let completions: Vec<f64> = results
        .iter()
        .filter_map(|r| r.interactions_to_completion())
        .collect();
    let completed = completions.len();
    let interactions = Summary::from_values(&completions).unwrap_or_else(|| {
        panic!(
            "no trial of {spec} terminated within {horizon} interactions (n = {n}); \
             increase the horizon"
        )
    });
    BatchResult {
        algorithm: spec.label().to_string(),
        n,
        trials,
        completed,
        interactions,
        completion_rate: completed as f64 / trials.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::ExactOrigins;
    use crate::scenario::{FaultedScenario, Scenario};
    use crate::sweep::Sweep;
    use crate::trial::{TrialConfig, TrialRunner};
    use doda_core::fault::FaultProfile;
    use doda_workloads::{UniformWorkload, Workload, ZipfWorkload};

    /// A scenario sweep of `spec` at seed 42 and the default horizon.
    fn sweep(
        spec: AlgorithmSpec,
        scenario: impl Into<FaultedScenario>,
        n: usize,
        trials: usize,
        parallel: bool,
    ) -> Sweep<'static> {
        Sweep::scenario(spec, scenario)
            .n(n)
            .trials(trials)
            .seed(42)
            .parallel(parallel)
    }

    #[test]
    fn claim_chunks_claims_every_index_exactly_once() {
        for workers in [1, 2, 3, 8] {
            for grain in [1, 3, 64] {
                for len in [0, 1, 7, 1_000] {
                    // (index, times claimed) per item.
                    let mut items: Vec<(usize, usize)> = (0..len).map(|i| (i, 0)).collect();
                    claim_chunks(
                        &mut items,
                        workers,
                        grain,
                        || (),
                        |(), start, chunk| {
                            assert!(!chunk.is_empty() && chunk.len() <= grain);
                            for (offset, (index, claimed)) in chunk.iter_mut().enumerate() {
                                assert_eq!(*index, start + offset);
                                *claimed += 1;
                            }
                        },
                    );
                    assert!(
                        items.iter().all(|&(_, claimed)| claimed == 1),
                        "workers {workers}, grain {grain}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (workers, len) in [(1, 0), (1, 1), (1, 100), (8, 0), (8, 1)] {
            let mut items = vec![None; len];
            claim_chunks(
                &mut items,
                workers,
                1,
                || std::thread::current().id(),
                |init_thread, _, chunk| {
                    assert_eq!(*init_thread, caller);
                    for item in chunk {
                        *item = Some(std::thread::current().id());
                    }
                },
            );
            assert!(items.iter().all(|&thread| thread == Some(caller)));
        }
    }

    #[test]
    fn a_panic_in_a_spawned_claim_resumes_with_its_own_payload() {
        let caller = std::thread::current().id();
        // Both workers meet in their first claim, so the spawned one holds
        // a claim of its own whichever thread starts first.
        let first_claims = std::sync::Barrier::new(2);
        let mut items = vec![(); 16];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            claim_chunks(
                &mut items,
                2,
                1,
                || false,
                |met, start, _| {
                    if !*met {
                        first_claims.wait();
                        *met = true;
                    }
                    if std::thread::current().id() != caller {
                        panic!("spawned claim at {start} fails");
                    }
                },
            );
        }))
        .expect_err("the spawned worker's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.starts_with("spawned claim at "), "{message}");
    }

    #[test]
    #[should_panic(expected = "trial 5 fails")]
    fn a_panicking_trial_surfaces_as_a_worker_panic() {
        let config = TrialConfig::default();
        let _ = shard(8, true, 1, TrialRunner::new, |runner, trials| {
            trials
                .map(|trial| {
                    assert_ne!(trial, 5, "trial 5 fails");
                    let source = || UniformWorkload::new(6).source(trial as u64);
                    runner.run(
                        AlgorithmSpec::Gathering,
                        source,
                        1_000,
                        &config,
                        &ExactOrigins,
                    )
                })
                .collect()
        });
    }

    #[test]
    fn sequential_batch_summarises_trials() {
        let (result, raw) =
            sweep(AlgorithmSpec::Gathering, Scenario::Uniform, 12, 8, false).run_summarized();
        assert_eq!(result.trials, 8);
        assert_eq!(result.completed, 8);
        assert_eq!(raw.len(), 8);
        assert_eq!(result.completion_rate, 1.0);
        assert!(result.interactions.mean >= (12 - 1) as f64);
        assert!(result.fraction_within(f64::INFINITY, &raw) >= 0.99);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let sequential =
            sweep(AlgorithmSpec::Gathering, Scenario::Uniform, 10, 6, false).run_summarized();
        let parallel =
            sweep(AlgorithmSpec::Gathering, Scenario::Uniform, 10, 6, true).run_summarized();
        // Same seeds per trial index regardless of sharding, so both the
        // summary and the raw per-trial results are identical.
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn run_trials_supports_non_uniform_workloads_without_panicking() {
        let workload = ZipfWorkload::new(10, 1.2);
        let raw = Sweep::workload(AlgorithmSpec::Waiting, &workload)
            .n(10)
            .trials(4)
            .horizon(Some(5)) // hopeless horizon: zero completions allowed
            .seed(3)
            .run();
        assert_eq!(raw.len(), 4);
        assert!(raw.iter().all(|r| !r.terminated()));
    }

    #[test]
    #[should_panic(expected = "workload is over")]
    fn run_trials_rejects_mismatched_node_counts() {
        let workload = ZipfWorkload::new(8, 1.2);
        let _ = Sweep::workload(AlgorithmSpec::Waiting, &workload)
            .n(10)
            .trials(2)
            .run();
    }

    #[test]
    fn scenario_sweep_runs_adaptive_adversaries_sharded() {
        let run = |spec, parallel| {
            Sweep::scenario(spec, Scenario::AdaptiveIsolator)
                .n(12)
                .trials(6)
                .horizon(Some(4_000))
                .seed(9)
                .parallel(parallel)
                .run()
        };
        let serial = run(AlgorithmSpec::Gathering, false);
        assert_eq!(serial, run(AlgorithmSpec::Gathering, true));
        assert!(serial.iter().all(|r| r.terminated() && r.data_conserved));
        // The same adversary starves Waiting for the whole horizon.
        let waiting = run(AlgorithmSpec::Waiting, false);
        assert!(waiting.iter().all(|r| !r.terminated()));
        assert!(waiting.iter().all(|r| r.interactions_processed == 4_000));
    }

    #[test]
    fn scenario_sweep_materializes_for_knowledge_based_specs() {
        let greedy = AlgorithmSpec::WaitingGreedy { tau: None };
        let raw = Sweep::scenario(greedy, Scenario::Uniform)
            .n(10)
            .trials(3)
            .seed(4)
            .run();
        assert_eq!(raw.len(), 3);
        assert!(raw.iter().all(|r| r.terminated()));
        // The scenario and workload views of "uniform" are the same process:
        // identical seeds produce identical trials.
        let via_workload = Sweep::workload(greedy, &UniformWorkload::new(10))
            .trials(3)
            .seed(4)
            .run();
        assert_eq!(raw, via_workload);
    }

    /// Serial and parallel runs of `scenario` under `spec` at seed `seed`,
    /// `trials` trials over 12 nodes and horizon `horizon`.
    fn serial_and_parallel(
        spec: AlgorithmSpec,
        scenario: impl Into<FaultedScenario> + Copy,
        trials: usize,
        horizon: usize,
        seed: u64,
    ) -> (Vec<TrialResult>, Vec<TrialResult>) {
        let run = |parallel| {
            Sweep::scenario(spec, scenario)
                .n(12)
                .trials(trials)
                .horizon(Some(horizon))
                .seed(seed)
                .parallel(parallel)
                .run()
        };
        (run(false), run(true))
    }

    #[test]
    fn faulted_scenario_sweeps_are_serial_parallel_identical() {
        for spec in [
            AlgorithmSpec::Gathering,
            AlgorithmSpec::WaitingGreedy { tau: None },
        ] {
            let scenario = Scenario::Uniform.with_faults(FaultProfile::crash(0.002));
            let (serial, parallel) = serial_and_parallel(spec, scenario, 6, 6_000, 0xFA);
            assert_eq!(serial, parallel, "{spec}");
            assert!(serial.iter().all(|r| r.data_conserved || !r.terminated()));
        }
    }

    #[test]
    fn round_scenarios_sweep_serial_parallel_identical() {
        for scenario in [
            Scenario::RandomMatching,
            Scenario::Tournament,
            Scenario::IntervalConnected { t: 8 },
        ] {
            let (serial, parallel) =
                serial_and_parallel(AlgorithmSpec::Gathering, scenario, 6, 6_000, 9);
            assert_eq!(serial, parallel, "{scenario}");
            assert!(
                serial.iter().all(|r| r.terminated() && r.data_conserved),
                "{scenario}"
            );
        }
        // The sink-unmatched round trap starves even Gathering.
        let (starved, _) = serial_and_parallel(
            AlgorithmSpec::Gathering,
            Scenario::RoundIsolator,
            6,
            6_000,
            9,
        );
        assert!(starved
            .iter()
            .all(|r| !r.terminated() && r.interactions_processed == 6_000));
    }

    #[test]
    fn faulted_round_scenarios_flow_through_the_flattened_fault_layer() {
        let scenario = Scenario::RandomMatching.with_faults(FaultProfile::lossy(0.2));
        let (serial, parallel) =
            serial_and_parallel(AlgorithmSpec::Gathering, scenario, 5, 8_000, 0xFA);
        assert_eq!(serial, parallel);
        assert!(serial.iter().any(|r| r.faults.lost_interactions > 0));
        assert!(serial.iter().all(|r| !r.terminated() || r.data_conserved));
    }

    #[test]
    fn fault_free_faulted_scenario_reproduces_the_plain_scenario() {
        let plain = sweep(AlgorithmSpec::Gathering, Scenario::Uniform, 10, 5, false).run();
        let wrapped = sweep(
            AlgorithmSpec::Gathering,
            FaultedScenario::from(Scenario::Uniform),
            10,
            5,
            false,
        )
        .run();
        assert_eq!(plain, wrapped);
        assert!(plain.iter().all(|r| r.faults.is_clean()));
    }

    #[test]
    #[should_panic(expected = "fewer than 2 live nodes")]
    fn invalid_fault_plans_panic_with_the_typed_error_not_a_hang() {
        let bad = Scenario::Uniform.with_faults(FaultProfile {
            min_live: 1,
            ..FaultProfile::churn(0.5, 0.0)
        });
        let _ = sweep(AlgorithmSpec::Gathering, bad, 8, 2, false).run();
    }

    #[test]
    #[should_panic(expected = "is adaptive")]
    fn scenario_sweep_rejects_oracles_over_adaptive_streams() {
        let spec = AlgorithmSpec::OfflineOptimal;
        let _ = sweep(spec, Scenario::AdaptiveIsolator, 10, 2, false).run();
    }

    #[test]
    fn ordering_offline_fastest_waiting_slowest() {
        let mean = |spec| {
            sweep(spec, Scenario::Uniform, 16, 6, false)
                .run_summarized()
                .0
                .interactions
                .mean
        };
        let offline = mean(AlgorithmSpec::OfflineOptimal);
        let gathering = mean(AlgorithmSpec::Gathering);
        let waiting = mean(AlgorithmSpec::Waiting);
        assert!(offline < gathering);
        assert!(gathering < waiting);
    }

    #[test]
    fn custom_horizon_is_respected() {
        let result = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(8)
            .trials(3)
            .horizon(Some(2_000))
            .seed(1)
            .run_summarized()
            .0;
        assert_eq!(result.completed, 3);
    }

    #[test]
    #[should_panic(expected = "increase the horizon")]
    fn hopelessly_short_horizon_panics_with_guidance() {
        let _ = Sweep::scenario(AlgorithmSpec::Waiting, Scenario::Uniform)
            .n(10)
            .trials(2)
            .horizon(Some(3))
            .seed(1)
            .run_summarized()
            .0;
    }
}
