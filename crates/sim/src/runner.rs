//! Multi-trial batches.
//!
//! A batch fixes an algorithm, a node count and a trial count; each trial
//! draws an independent interaction stream from a workload or scenario (by
//! default the uniform randomized adversary — the paper's Section 4
//! setting), runs the algorithm, and the batch summarises the interaction
//! counts.
//!
//! # Streaming-first execution
//!
//! Knowledge-free algorithms ([`AlgorithmSpec::requires_materialization`]
//! is `false`) run **streamed**: each trial pulls interactions one at a
//! time from a seeded source, so a sweep's memory footprint is `O(n)`
//! regardless of the horizon, and adaptive adversaries (which cannot be
//! pre-generated at all) sweep through the exact same machinery
//! ([`run_scenario_trials`]). Knowledge-based algorithms materialise each
//! trial's sequence into a per-worker scratch buffer first, because their
//! oracles are functions of the future. Both paths produce byte-identical
//! results for the same seed, enforced by `tests/determinism.rs` and the
//! `streaming_equivalence` property suite.
//!
//! # Sharded execution
//!
//! Parallel batches are *sharded*: every worker owns a [`TrialRunner`]
//! (reused engine scratch) plus — only on the materialising path — a
//! scratch [`InteractionSequence`] refilled in place, and keeps both for
//! the whole batch. Workers claim trial indices from one shared atomic
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
use doda_workloads::{UniformWorkload, Workload};

use crate::scenario::FaultedScenario;
use crate::spec::AlgorithmSpec;
use crate::sweep::Sweep;
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
/// claimed ranges are put back in index order when the scope joins.
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
            .flat_map(|handle| handle.join().expect("batch worker thread panicked"))
            .collect()
    });
    claims.sort_unstable_by_key(|&(start, _)| start);
    claims
        .into_iter()
        .flat_map(|(_, results)| results)
        .collect()
}

/// [`shard`] one trial at a time: `run_trial(state, i)` runs trial `i`.
pub(crate) fn shard_trials<S>(
    trials: usize,
    parallel: bool,
    init: impl Fn() -> S + Sync,
    run_trial: impl Fn(&mut S, usize) -> TrialResult + Sync,
) -> Vec<TrialResult> {
    shard(trials, parallel, 1, init, |state, range| {
        range.map(|trial| run_trial(state, trial)).collect()
    })
}

/// Runs `config.trials` independent trials of `spec`, each over a fresh
/// interaction stream drawn from `workload`, and returns the raw per-trial
/// results in trial-index order.
///
/// **Deprecation note:** this is a thin wrapper over the unified sweep
/// builder — [`Sweep::workload`] with [`Sweep::config`] — kept so existing
/// call sites migrate without churn. New code should use [`Sweep`], which
/// additionally exposes the execution tier
/// ([`crate::sweep::ExecutionTier`]) and lane width.
///
/// # Panics
///
/// Panics if `workload.node_count() != config.n`, or if a worker thread
/// panics.
#[deprecated(note = "use Sweep")]
pub fn run_trials<W>(spec: AlgorithmSpec, workload: &W, config: &BatchConfig) -> Vec<TrialResult>
where
    W: Workload + Sync + ?Sized,
{
    Sweep::workload(spec, &workload).config(config).run()
}

/// Runs `config.trials` independent trials of `spec` against `scenario` —
/// the scenario-registry counterpart of [`run_trials`], covering the
/// adversaries (oblivious trap, weighted, **adaptive**) alongside the
/// synthetic workloads, and — through the [`FaultedScenario`] axis — any
/// of them with a fault plan layered on top (a plain
/// [`crate::scenario::Scenario`] converts implicitly, fault-free).
///
/// Adaptive scenarios construct a fresh live adversary per trial and run
/// it streamed through the same sharded machinery; serial and parallel
/// runs remain byte-identical because the adversary's decisions depend
/// only on its own trial's execution. Fault plans preserve that: trial
/// `i` derives its fault-stream seed from its own trial seed, no matter
/// which worker executes it. On the materialising path the per-worker
/// scratch sequence is filled from the **base** stream (oracles describe
/// the committed schedule, not the faults) and the plan is injected at
/// execution time.
///
/// **Round scenarios** ([`crate::scenario::Scenario::is_round`]) run
/// their fault-free knowledge-free trials through the engine's native
/// batched round path ([`crate::trial::TrialRunner::run_rounds`]); faulted and
/// materialising trials consume the flattened round stream instead (the
/// fault layer and the oracles are pairwise constructs). The round and
/// flattened paths are byte-identical on any round stream — pinned by
/// `tests/round_equivalence.rs` — so the routing never changes a number.
///
/// **Deprecation note:** this is a thin wrapper over the unified sweep
/// builder — [`Sweep::scenario`] with [`Sweep::config`] — kept so existing
/// call sites migrate without churn. New code should use [`Sweep`], which
/// additionally exposes the execution tier
/// ([`crate::sweep::ExecutionTier`]) and lane width. The automatic
/// routing described above is exactly [`Sweep`]'s
/// [`Auto`](crate::sweep::ExecutionTier::Auto) tier.
///
/// # Panics
///
/// Panics if `spec` requires materialisation and `scenario` is adaptive
/// (an adaptive adversary's stream depends on the execution, so no
/// faithful sequence exists to build oracles from — check
/// [`FaultedScenario::supports`] first), if the fault plan is invalid for
/// `config.n` (the typed [`doda_core::fault::FaultConfigError`] is the
/// panic message — check [`FaultedScenario::validate`] first), if
/// `config.n` is below [`FaultedScenario::min_nodes`], or if a worker
/// thread panics.
#[deprecated(note = "use Sweep")]
pub fn run_scenario_trials(
    spec: AlgorithmSpec,
    scenario: impl Into<FaultedScenario>,
    config: &BatchConfig,
) -> Vec<TrialResult> {
    Sweep::scenario(spec, scenario).config(config).run()
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

/// Runs a batch against the uniform randomized adversary and returns its
/// summary together with the raw per-trial results.
///
/// **Deprecation note:** prefer [`Sweep::scenario`] with
/// [`crate::scenario::Scenario::Uniform`] and [`Sweep::run_summarized`];
/// this wrapper is kept for existing call sites.
///
/// # Panics
///
/// Panics if every trial fails to terminate (no summary can be formed); in
/// practice this means the horizon was far too small for the algorithm.
#[deprecated(note = "use Sweep")]
pub fn run_batch_detailed(
    spec: AlgorithmSpec,
    config: &BatchConfig,
) -> (BatchResult, Vec<TrialResult>) {
    let workload = UniformWorkload::new(config.n);
    let results = Sweep::workload(spec, &workload).config(config).run();
    (summarize(spec, config, &results), results)
}

/// Runs a batch and returns only its summary.
#[deprecated(note = "use Sweep")]
pub fn run_batch(spec: AlgorithmSpec, config: &BatchConfig) -> BatchResult {
    #[allow(deprecated)]
    run_batch_detailed(spec, config).0
}

#[cfg(test)]
mod tests {
    // The deprecated wrappers stay under test until they are removed:
    // these tests pin that each one still matches its `Sweep` equivalent.
    #![allow(deprecated)]

    use super::*;
    use crate::scenario::Scenario;
    use crate::trial::{TrialConfig, TrialRunner};
    use doda_core::fault::FaultProfile;
    use doda_workloads::ZipfWorkload;

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
    #[should_panic(expected = "batch worker thread panicked")]
    fn a_panicking_trial_surfaces_as_a_worker_panic() {
        let config = TrialConfig {
            max_interactions: Some(1_000),
            ..TrialConfig::default()
        };
        let _ = shard_trials(8, true, TrialRunner::new, |runner, trial| {
            assert_ne!(trial, 5, "trial 5 fails");
            let mut source = UniformWorkload::new(6).source(trial as u64);
            runner.run_streamed(AlgorithmSpec::Gathering, source.as_mut(), &config)
        });
    }

    #[test]
    fn sequential_batch_summarises_trials() {
        let (result, raw) = run_batch_detailed(AlgorithmSpec::Gathering, &config(12, 8, false));
        assert_eq!(result.trials, 8);
        assert_eq!(result.completed, 8);
        assert_eq!(raw.len(), 8);
        assert_eq!(result.completion_rate, 1.0);
        assert!(result.interactions.mean >= (12 - 1) as f64);
        assert!(result.fraction_within(f64::INFINITY, &raw) >= 0.99);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let sequential = run_batch_detailed(AlgorithmSpec::Gathering, &config(10, 6, false));
        let parallel = run_batch_detailed(AlgorithmSpec::Gathering, &config(10, 6, true));
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
        let raw = run_trials(AlgorithmSpec::Waiting, &workload, &cfg);
        assert_eq!(raw.len(), 4);
        assert!(raw.iter().all(|r| !r.terminated()));
    }

    #[test]
    #[should_panic(expected = "workload is over")]
    fn run_trials_rejects_mismatched_node_counts() {
        let workload = ZipfWorkload::new(8, 1.2);
        let _ = run_trials(AlgorithmSpec::Waiting, &workload, &config(10, 2, false));
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
        let serial =
            run_scenario_trials(AlgorithmSpec::Gathering, Scenario::AdaptiveIsolator, &cfg);
        let parallel = run_scenario_trials(
            AlgorithmSpec::Gathering,
            Scenario::AdaptiveIsolator,
            &BatchConfig {
                parallel: true,
                ..cfg
            },
        );
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(|r| r.terminated() && r.data_conserved));
        // The same adversary starves Waiting for the whole horizon.
        let waiting = run_scenario_trials(AlgorithmSpec::Waiting, Scenario::AdaptiveIsolator, &cfg);
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
        let raw = run_scenario_trials(
            AlgorithmSpec::WaitingGreedy { tau: None },
            Scenario::Uniform,
            &cfg,
        );
        assert_eq!(raw.len(), 3);
        assert!(raw.iter().all(|r| r.terminated()));
        // The scenario and workload views of "uniform" are the same process:
        // identical seeds produce identical trials.
        let via_workload = run_trials(
            AlgorithmSpec::WaitingGreedy { tau: None },
            &UniformWorkload::new(10),
            &cfg,
        );
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
            let serial = run_scenario_trials(spec, scenario, &cfg);
            let parallel = run_scenario_trials(
                spec,
                scenario,
                &BatchConfig {
                    parallel: true,
                    ..cfg
                },
            );
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
            let serial = run_scenario_trials(AlgorithmSpec::Gathering, scenario, &cfg);
            let parallel = run_scenario_trials(
                AlgorithmSpec::Gathering,
                scenario,
                &BatchConfig {
                    parallel: true,
                    ..cfg
                },
            );
            assert_eq!(serial, parallel, "{scenario}");
            assert!(
                serial.iter().all(|r| r.terminated() && r.data_conserved),
                "{scenario}"
            );
        }
        // The sink-unmatched round trap starves even Gathering.
        let starved = run_scenario_trials(AlgorithmSpec::Gathering, Scenario::RoundIsolator, &cfg);
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
        let serial = run_scenario_trials(AlgorithmSpec::Gathering, scenario, &cfg);
        let parallel = run_scenario_trials(
            AlgorithmSpec::Gathering,
            scenario,
            &BatchConfig {
                parallel: true,
                ..cfg
            },
        );
        assert_eq!(serial, parallel);
        assert!(serial.iter().any(|r| r.faults.lost_interactions > 0));
        assert!(serial.iter().all(|r| !r.terminated() || r.data_conserved));
    }

    #[test]
    fn fault_free_faulted_scenario_reproduces_the_plain_scenario() {
        let cfg = config(10, 5, false);
        let plain = run_scenario_trials(AlgorithmSpec::Gathering, Scenario::Uniform, &cfg);
        let wrapped = run_scenario_trials(
            AlgorithmSpec::Gathering,
            FaultedScenario::from(Scenario::Uniform),
            &cfg,
        );
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
        let _ = run_scenario_trials(AlgorithmSpec::Gathering, bad, &config(8, 2, false));
    }

    #[test]
    #[should_panic(expected = "is adaptive")]
    fn scenario_sweep_rejects_oracles_over_adaptive_streams() {
        let cfg = config(10, 2, false);
        let _ = run_scenario_trials(
            AlgorithmSpec::OfflineOptimal,
            Scenario::AdaptiveIsolator,
            &cfg,
        );
    }

    #[test]
    fn ordering_offline_fastest_waiting_slowest() {
        let cfg = config(16, 6, false);
        let offline = run_batch(AlgorithmSpec::OfflineOptimal, &cfg);
        let gathering = run_batch(AlgorithmSpec::Gathering, &cfg);
        let waiting = run_batch(AlgorithmSpec::Waiting, &cfg);
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
        let result = run_batch(AlgorithmSpec::Gathering, &cfg);
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
        let _ = run_batch(AlgorithmSpec::Waiting, &cfg);
    }
}
