//! Multi-trial batches: the batch shape ([`BatchConfig`], which
//! [`Sweep::config`](crate::Sweep::config) copies), its summary
//! ([`BatchResult`]), and the sharded claim loop every sweep runs on.
//!
//! A batch fixes an algorithm, a node count and a trial count; each trial
//! draws an independent interaction stream from a workload or scenario,
//! runs the algorithm, and the batch summarises the interaction counts.
//!
//! # Streaming-first execution
//!
//! Knowledge-free algorithms ([`AlgorithmSpec::requires_materialization`]
//! is `false`) run **streamed**: each trial pulls interactions one at a
//! time from a seeded source, so a sweep's memory footprint is `O(n)`
//! regardless of the horizon, and adaptive adversaries (which cannot be
//! pre-generated at all) sweep through the exact same machinery.
//! Knowledge-based algorithms materialise each trial's sequence into a
//! per-worker scratch buffer first, because their oracles are functions
//! of the future. Both paths produce byte-identical results for the same
//! seed, enforced by `tests/determinism.rs` and the
//! `streaming_equivalence` property suite.
//!
//! # Sharded execution
//!
//! Parallel batches are *sharded*: every worker owns a [`TrialRunner`]
//! (reused engine scratch) plus a scratch [`InteractionSequence`] that the
//! materialising path refills in place, and keeps both for the whole
//! batch. Workers claim trial indices from one shared atomic
//! counter as they free up — one trial at a time on the scalar paths, a
//! lane batch at a time on the lane tier — so a worker that drew short
//! trials takes more of them instead of idling while another finishes a
//! long one. The counter is the only thing shared while trials run; each
//! claim's results stay with its worker until the scope joins, when they
//! are put back in trial-index order. Because trial `i` always uses the
//! sub-seed `SeedSequence::seed(i)` regardless of which worker executes
//! it, serial and parallel runs of the same [`BatchConfig`] produce
//! **identical** [`BatchResult`]s and raw [`TrialResult`]s, byte for byte.
//!
//! [`TrialRunner`]: crate::trial::TrialRunner
//! [`InteractionSequence`]: doda_core::InteractionSequence

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use doda_stats::Summary;

use crate::spec::AlgorithmSpec;
use crate::trial::TrialResult;

/// Configuration of a batch of independent randomized-adversary trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of nodes (the sink is node 0).
    pub n: usize,
    /// Number of independent trials.
    pub trials: usize,
    /// Length of the materialised random sequence per trial; `None` uses
    /// the generous default `8·n²` (see
    /// `doda_adversary::RandomizedAdversary::default_horizon`).
    pub horizon: Option<usize>,
    /// Root seed; trial `i` uses an independent sub-seed derived from it.
    pub seed: u64,
    /// Whether to spread trials across worker threads.
    pub parallel: bool,
}

impl BatchConfig {
    /// The sequence length used per trial.
    pub fn horizon_len(&self) -> usize {
        self.horizon
            .unwrap_or_else(|| doda_adversary::RandomizedAdversary::default_horizon(self.n))
    }
}

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

/// Runs trials `0..trials` and returns their results in trial-index order
/// (the sharded-execution skeleton shared by every sweep entry point).
///
/// Every worker builds one state with `init` (its [`TrialRunner`] and
/// scratch buffers) and keeps it across all the trials it runs; `run`
/// returns the results of a range of trials in order.
/// Serially, one worker runs `0..trials` in one call. In parallel, up to
/// `available_parallelism` workers claim the next `grain` unclaimed trial
/// indices from one atomic counter until none are left, where `grain` is
/// `max_grain` (at least 1) capped at `⌈trials / workers⌉`, and the
/// claimed ranges are put back in index order when the scope joins. A
/// worker's panic resumes on the caller with the worker's own payload, so
/// a parallel sweep fails with the same message as a serial one.
///
/// [`TrialRunner`]: crate::trial::TrialRunner
pub(crate) fn shard<S>(
    trials: usize,
    parallel: bool,
    max_grain: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, Range<usize>) -> Vec<TrialResult> + Sync,
) -> Vec<TrialResult> {
    if !parallel || trials <= 1 {
        return run(&mut init(), 0..trials);
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(trials);
    let grain = max_grain.max(1).min(trials.div_ceil(workers));
    let next = AtomicUsize::new(0);
    let mut claims: Vec<(usize, Vec<TrialResult>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut claims = Vec::new();
                    loop {
                        // The counter publishes no data: each claim's
                        // results reach the caller through `join`.
                        let start = next.fetch_add(grain, Ordering::Relaxed);
                        if start >= trials {
                            return claims;
                        }
                        let end = trials.min(start + grain);
                        claims.push((start, run(&mut state, start..end)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    claims.sort_unstable_by_key(|&(start, _)| start);
    claims
        .into_iter()
        .flat_map(|(_, results)| results)
        .collect()
}

/// Summarises raw trial results into a [`BatchResult`].
///
/// # Panics
///
/// Panics if no trial terminated (no summary can be formed); in practice
/// this means the horizon was far too small for the algorithm.
pub(crate) fn summarize(
    spec: AlgorithmSpec,
    config: &BatchConfig,
    results: &[TrialResult],
) -> BatchResult {
    let completions: Vec<f64> = results
        .iter()
        .filter_map(|r| r.interactions_to_completion())
        .collect();
    let completed = completions.len();
    let interactions = Summary::from_values(&completions).unwrap_or_else(|| {
        panic!(
            "no trial of {} terminated within {} interactions (n = {}); increase the horizon",
            spec,
            config.horizon_len(),
            config.n
        )
    });
    BatchResult {
        algorithm: spec.label().to_string(),
        n: config.n,
        trials: config.trials,
        completed,
        interactions,
        completion_rate: completed as f64 / config.trials.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::ExactOrigins;
    use crate::scenario::{FaultedScenario, Scenario};
    use crate::sweep::{ExecutionTier, Sweep};
    use crate::trial::{TrialConfig, TrialRunner};
    use doda_core::fault::FaultProfile;
    use doda_workloads::{UniformWorkload, Workload, ZipfWorkload};

    fn config(n: usize, trials: usize, parallel: bool) -> BatchConfig {
        BatchConfig {
            n,
            trials,
            horizon: None,
            seed: 42,
            parallel,
        }
    }

    #[test]
    #[should_panic(expected = "trial 5 fails")]
    fn a_panicking_trial_surfaces_as_a_worker_panic() {
        let config = TrialConfig {
            max_interactions: Some(1_000),
            ..TrialConfig::default()
        };
        let _ = shard(8, true, 1, TrialRunner::new, |runner, trials| {
            trials
                .map(|trial| {
                    assert_ne!(trial, 5, "trial 5 fails");
                    let mut source = UniformWorkload::new(6).source(trial as u64);
                    runner.run_streamed(
                        AlgorithmSpec::Gathering,
                        source.as_mut(),
                        &config,
                        &ExactOrigins,
                    )
                })
                .collect()
        });
    }

    #[test]
    #[should_panic(expected = "raise Sweep::cluster_size")]
    fn parallel_sweeps_fail_with_the_trials_own_message() {
        let _ = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::ObliviousTrap)
            .n(20)
            .tier(ExecutionTier::Hierarchical)
            .cluster_size(2)
            .trials(4)
            .parallel(true)
            .run();
    }

    #[test]
    fn sequential_batch_summarises_trials() {
        let (result, raw) = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .config(&config(12, 8, false))
            .run_summarized();
        assert_eq!(result.trials, 8);
        assert_eq!(result.completed, 8);
        assert_eq!(raw.len(), 8);
        assert_eq!(result.completion_rate, 1.0);
        assert!(result.interactions.mean >= (12 - 1) as f64);
        assert!(result.fraction_within(f64::INFINITY, &raw) >= 0.99);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let sequential = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .config(&config(10, 6, false))
            .run_summarized();
        let parallel = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .config(&config(10, 6, true))
            .run_summarized();
        // Same seeds per trial index regardless of sharding, so both the
        // summary and the raw per-trial results are identical.
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn run_trials_supports_non_uniform_workloads_without_panicking() {
        let cfg = BatchConfig {
            n: 10,
            trials: 4,
            horizon: Some(5), // hopeless horizon: zero completions allowed
            seed: 3,
            parallel: false,
        };
        let workload = ZipfWorkload::new(10, 1.2);
        let raw = Sweep::workload(AlgorithmSpec::Waiting, &workload)
            .config(&cfg)
            .run();
        assert_eq!(raw.len(), 4);
        assert!(raw.iter().all(|r| !r.terminated()));
    }

    #[test]
    #[should_panic(expected = "workload is over")]
    fn run_trials_rejects_mismatched_node_counts() {
        let workload = ZipfWorkload::new(8, 1.2);
        let _ = Sweep::workload(AlgorithmSpec::Waiting, &workload)
            .config(&config(10, 2, false))
            .run();
    }

    #[test]
    fn scenario_sweep_runs_adaptive_adversaries_sharded() {
        let cfg = BatchConfig {
            n: 12,
            trials: 6,
            horizon: Some(4_000),
            seed: 9,
            parallel: false,
        };
        let serial = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::AdaptiveIsolator)
            .config(&cfg)
            .run();
        let parallel = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::AdaptiveIsolator)
            .config(&BatchConfig {
                parallel: true,
                ..cfg
            })
            .run();
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(|r| r.terminated() && r.data_conserved));
        // The same adversary starves Waiting for the whole horizon.
        let waiting = Sweep::scenario(AlgorithmSpec::Waiting, Scenario::AdaptiveIsolator)
            .config(&cfg)
            .run();
        assert!(waiting.iter().all(|r| !r.terminated()));
        assert!(waiting.iter().all(|r| r.interactions_processed == 4_000));
    }

    #[test]
    fn scenario_sweep_materializes_for_knowledge_based_specs() {
        let cfg = BatchConfig {
            n: 10,
            trials: 3,
            horizon: None,
            seed: 4,
            parallel: false,
        };
        let raw = Sweep::scenario(
            AlgorithmSpec::WaitingGreedy { tau: None },
            Scenario::Uniform,
        )
        .config(&cfg)
        .run();
        assert_eq!(raw.len(), 3);
        assert!(raw.iter().all(|r| r.terminated()));
        // The scenario and workload views of "uniform" are the same process:
        // identical seeds produce identical trials.
        let via_workload = Sweep::workload(
            AlgorithmSpec::WaitingGreedy { tau: None },
            &UniformWorkload::new(10),
        )
        .config(&cfg)
        .run();
        assert_eq!(raw, via_workload);
    }

    #[test]
    fn faulted_scenario_sweeps_are_serial_parallel_identical() {
        let cfg = BatchConfig {
            n: 12,
            trials: 6,
            horizon: Some(6_000),
            seed: 0xFA,
            parallel: false,
        };
        for spec in [
            AlgorithmSpec::Gathering,
            AlgorithmSpec::WaitingGreedy { tau: None },
        ] {
            let scenario = Scenario::Uniform.with_faults(FaultProfile::crash(0.002));
            let serial = Sweep::scenario(spec, scenario).config(&cfg).run();
            let parallel = Sweep::scenario(spec, scenario)
                .config(&BatchConfig {
                    parallel: true,
                    ..cfg
                })
                .run();
            assert_eq!(serial, parallel, "{spec}");
            assert!(serial.iter().all(|r| r.data_conserved || !r.terminated()));
        }
    }

    #[test]
    fn round_scenarios_sweep_serial_parallel_identical() {
        let cfg = BatchConfig {
            n: 12,
            trials: 6,
            horizon: Some(6_000),
            seed: 9,
            parallel: false,
        };
        for scenario in [
            Scenario::RandomMatching,
            Scenario::Tournament,
            Scenario::IntervalConnected { t: 8 },
        ] {
            let serial = Sweep::scenario(AlgorithmSpec::Gathering, scenario)
                .config(&cfg)
                .run();
            let parallel = Sweep::scenario(AlgorithmSpec::Gathering, scenario)
                .config(&BatchConfig {
                    parallel: true,
                    ..cfg
                })
                .run();
            assert_eq!(serial, parallel, "{scenario}");
            assert!(
                serial.iter().all(|r| r.terminated() && r.data_conserved),
                "{scenario}"
            );
        }
        // The sink-unmatched round trap starves even Gathering.
        let starved = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::RoundIsolator)
            .config(&cfg)
            .run();
        assert!(starved
            .iter()
            .all(|r| !r.terminated() && r.interactions_processed == 6_000));
    }

    #[test]
    fn faulted_round_scenarios_flow_through_the_flattened_fault_layer() {
        let cfg = BatchConfig {
            n: 12,
            trials: 5,
            horizon: Some(8_000),
            seed: 0xFA,
            parallel: false,
        };
        let scenario = Scenario::RandomMatching.with_faults(FaultProfile::lossy(0.2));
        let serial = Sweep::scenario(AlgorithmSpec::Gathering, scenario)
            .config(&cfg)
            .run();
        let parallel = Sweep::scenario(AlgorithmSpec::Gathering, scenario)
            .config(&BatchConfig {
                parallel: true,
                ..cfg
            })
            .run();
        assert_eq!(serial, parallel);
        assert!(serial.iter().any(|r| r.faults.lost_interactions > 0));
        assert!(serial.iter().all(|r| !r.terminated() || r.data_conserved));
    }

    #[test]
    fn fault_free_faulted_scenario_reproduces_the_plain_scenario() {
        let cfg = config(10, 5, false);
        let plain = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .config(&cfg)
            .run();
        let wrapped = Sweep::scenario(
            AlgorithmSpec::Gathering,
            FaultedScenario::from(Scenario::Uniform),
        )
        .config(&cfg)
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
        let _ = Sweep::scenario(AlgorithmSpec::Gathering, bad)
            .config(&config(8, 2, false))
            .run();
    }

    #[test]
    #[should_panic(expected = "is adaptive")]
    fn scenario_sweep_rejects_oracles_over_adaptive_streams() {
        let cfg = config(10, 2, false);
        let _ = Sweep::scenario(AlgorithmSpec::OfflineOptimal, Scenario::AdaptiveIsolator)
            .config(&cfg)
            .run();
    }

    #[test]
    fn ordering_offline_fastest_waiting_slowest() {
        let cfg = config(16, 6, false);
        let offline = Sweep::scenario(AlgorithmSpec::OfflineOptimal, Scenario::Uniform)
            .config(&cfg)
            .run_summarized()
            .0;
        let gathering = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .config(&cfg)
            .run_summarized()
            .0;
        let waiting = Sweep::scenario(AlgorithmSpec::Waiting, Scenario::Uniform)
            .config(&cfg)
            .run_summarized()
            .0;
        assert!(offline.interactions.mean < gathering.interactions.mean);
        assert!(gathering.interactions.mean < waiting.interactions.mean);
    }

    #[test]
    fn custom_horizon_is_respected() {
        let cfg = BatchConfig {
            n: 8,
            trials: 3,
            horizon: Some(2_000),
            seed: 1,
            parallel: false,
        };
        assert_eq!(cfg.horizon_len(), 2_000);
        let result = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .config(&cfg)
            .run_summarized()
            .0;
        assert_eq!(result.completed, 3);
    }

    #[test]
    #[should_panic(expected = "increase the horizon")]
    fn hopelessly_short_horizon_panics_with_guidance() {
        let cfg = BatchConfig {
            n: 10,
            trials: 2,
            horizon: Some(3),
            seed: 1,
            parallel: false,
        };
        let _ = Sweep::scenario(AlgorithmSpec::Waiting, Scenario::Uniform)
            .config(&cfg)
            .run_summarized()
            .0;
    }
}
