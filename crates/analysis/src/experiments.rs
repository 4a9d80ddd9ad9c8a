//! The per-theorem experiment index (E1–E15).
//!
//! Each function reproduces one result of the paper as a finite-`n`
//! experiment and returns an [`ExperimentReport`] comparing the paper's
//! claim with what was measured. `EXPERIMENTS.md` is these reports at
//! [`Effort::Full`], rendered by [`crate::report`] through
//! `doda-bench --experiments`.
//!
//! Adversarial sources are pulled from the unified
//! [`doda_sim::Scenario`] registry where a sweepable scenario exists;
//! the fixed-`n` trap constructions of Theorems 1 and 3 keep using their
//! bespoke types.

use doda_adversary::{AdaptiveTrap, CycleTrap};
use doda_core::cost::{cost_of_duration, Cost};
use doda_core::prelude::*;
use doda_graph::NodeId;
use doda_sim::{AlgorithmSpec, Scenario, Sweep};
use doda_stats::harmonic;
use doda_workloads::{TreeRestrictedWorkload, UniformWorkload, Workload};

use crate::crossover::ordering_holds_everywhere;
use crate::scaling::ScalingStudy;
use crate::whp::check_within_bound;

/// How much compute to spend on an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small parameters, suitable for unit tests and quick smoke runs.
    Quick,
    /// The parameters behind the committed EXPERIMENTS.md.
    Full,
}

/// The outcome of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id (`"E1"` … `"E15"`).
    pub id: String,
    /// Short title.
    pub title: String,
    /// The paper's claim being reproduced.
    pub paper_claim: String,
    /// What was measured.
    pub measured: String,
    /// Whether the measurement is consistent with the claim.
    pub passed: bool,
}

fn report(id: &str, title: &str, claim: &str, measured: String, passed: bool) -> ExperimentReport {
    ExperimentReport {
        id: id.to_string(),
        title: title.to_string(),
        paper_claim: claim.to_string(),
        measured,
        passed,
    }
}

fn run_against_trap<S>(source: &mut S, spec: AlgorithmSpec, sink: NodeId, horizon: u64) -> bool
where
    S: InteractionSource + ?Sized,
{
    // Knowledge-free algorithms run streamed against the live adversary —
    // no sequence, no oracles.
    let mut algo = spec
        .instantiate_online()
        .expect("knowledge-free algorithms instantiate without a sequence");
    let outcome =
        engine::run_with_id_sets(algo.as_mut(), source, sink, EngineConfig::sweep(horizon))
            .expect("algorithms never emit invalid decisions");
    outcome.terminated()
}

/// E1 — Theorem 1: against the online adaptive adversary no algorithm
/// terminates, while convergecasts remain possible (`cost = ∞`).
pub fn e1_adaptive_adversary(effort: Effort) -> ExperimentReport {
    let horizon = match effort {
        Effort::Quick => 2_000,
        Effort::Full => 100_000,
    };
    let mut any_terminated = false;
    for spec in [AlgorithmSpec::Waiting, AlgorithmSpec::Gathering] {
        let mut trap = AdaptiveTrap::new();
        if run_against_trap(&mut trap, spec, AdaptiveTrap::SINK, horizon) {
            any_terminated = true;
        }
    }
    // Convergecasts remain possible on the sequence the trap plays against
    // Gathering (materialised by replaying the deterministic interplay).
    let seq = materialize_adaptive_trap_vs_gathering(horizon.min(5_000));
    let convergecasts = convergecast::successive_convergecast_times(&seq, AdaptiveTrap::SINK, 64);
    let passed = !any_terminated && convergecasts.len() >= 64;
    report(
        "E1",
        "Adaptive adversary defeats every algorithm",
        "Theorem 1: for every algorithm there is an adaptive adversary with cost_A(I) = ∞",
        format!(
            "Waiting/Gathering never terminated within {horizon} interactions; {} successive convergecasts remained possible",
            convergecasts.len()
        ),
        passed,
    )
}

/// Replays the deterministic AdaptiveTrap-vs-Gathering interplay and
/// returns the sequence the adversary produced.
fn materialize_adaptive_trap_vs_gathering(horizon: u64) -> InteractionSequence {
    let mut trap = AdaptiveTrap::new();
    let mut algo = Gathering::new();
    let mut owns = vec![true; 3];
    let mut seq = InteractionSequence::new(3);
    for t in 0..horizon {
        let view = AdversaryView {
            owns_data: &owns,
            sink: AdaptiveTrap::SINK,
        };
        let Some(interaction) = doda_core::InteractionSource::next_interaction(&mut trap, t, &view)
        else {
            break;
        };
        seq.push(interaction);
        let ctx = InteractionContext {
            time: t,
            interaction,
            min_owns_data: owns[interaction.min().index()],
            max_owns_data: owns[interaction.max().index()],
            sink: AdaptiveTrap::SINK,
        };
        if let Decision::Transmit { sender, .. } = algo.decide(&ctx) {
            if ctx.both_own_data() && sender != AdaptiveTrap::SINK {
                owns[sender.index()] = false;
            }
        }
    }
    seq
}

/// E2 — Theorem 2: the oblivious star-then-ring construction defeats the
/// oblivious knowledge-free algorithms. The trap is drawn from the
/// unified scenario registry ([`Scenario::ObliviousTrap`]).
pub fn e2_oblivious_trap(effort: Effort) -> ExperimentReport {
    let (n, horizon) = match effort {
        Effort::Quick => (8, 20_000),
        Effort::Full => (32, 500_000),
    };
    let sink = NodeId(0);
    let mut any_terminated = false;
    for spec in [AlgorithmSpec::Waiting, AlgorithmSpec::Gathering] {
        let mut adversary = Scenario::ObliviousTrap.source(n, 0);
        if run_against_trap(adversary.as_mut(), spec, sink, horizon) {
            any_terminated = true;
        }
    }
    let seq = Scenario::ObliviousTrap
        .materialize(n, 4_000, 0)
        .expect("the oblivious trap is not adaptive");
    let convergecasts = convergecast::successive_convergecast_times(&seq, sink, 32);
    let passed = !any_terminated && convergecasts.len() >= 32;
    report(
        "E2",
        "Oblivious adversary defeats oblivious algorithms",
        "Theorem 2: an oblivious adversary makes cost_A(I) = ∞ w.h.p. for oblivious randomized algorithms",
        format!(
            "n = {n}: Waiting/Gathering never terminated within {horizon} interactions; {} successive convergecasts remained possible",
            convergecasts.len()
        ),
        passed,
    )
}

/// E3 — Theorem 3: knowing the underlying graph (a 4-cycle) is not enough.
pub fn e3_cycle_trap(effort: Effort) -> ExperimentReport {
    let horizon = match effort {
        Effort::Quick => 2_000,
        Effort::Full => 100_000,
    };
    let underlying = CycleTrap::underlying_graph();
    let mut spanning = SpanningTreeAggregation::from_underlying_graph(&underlying, CycleTrap::SINK)
        .expect("the 4-cycle is connected");
    let mut trap = CycleTrap::new();
    let outcome = engine::run_with_id_sets(
        &mut spanning,
        &mut trap,
        CycleTrap::SINK,
        EngineConfig::sweep(horizon),
    )
    .expect("valid decisions");
    let mut gathering_trap = CycleTrap::new();
    let gathering_terminated = run_against_trap(
        &mut gathering_trap,
        AlgorithmSpec::Gathering,
        CycleTrap::SINK,
        horizon,
    );
    let passed = !outcome.terminated() && !gathering_terminated;
    report(
        "E3",
        "Underlying-graph knowledge is insufficient (n ≥ 4)",
        "Theorem 3: with G̅ known (a 4-cycle) an adaptive adversary still forces cost_A(I) = ∞",
        format!(
            "spanning-tree and Gathering both failed to terminate within {horizon} interactions on the 4-cycle trap"
        ),
        passed,
    )
}

/// E4 — Theorem 4: with recurring interactions and `G̅` known, the
/// spanning-tree algorithm has finite but *unbounded* cost.
pub fn e4_recurring_edges(effort: Effort) -> ExperimentReport {
    let delays: Vec<usize> = match effort {
        Effort::Quick => vec![2, 6],
        Effort::Full => vec![2, 6, 12, 24],
    };
    // Underlying graph: the 4-cycle. The deterministic spanning tree keeps
    // edges (0,1), (0,3), (1,2); the alternative tree (0,1), (1,2), (2,3)
    // supports one convergecast per block below.
    let block: Vec<(usize, usize)> = vec![(2, 3), (1, 2), (0, 1)];
    let mut costs = Vec::new();
    let mut all_finite = true;
    for &delay in &delays {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for _ in 0..3 {
            for _ in 0..delay {
                pairs.extend_from_slice(&block);
            }
            pairs.push((0, 3));
        }
        let seq = InteractionSequence::from_pairs(4, pairs);
        let underlying = seq.underlying_graph();
        let mut algo = SpanningTreeAggregation::from_underlying_graph(&underlying, NodeId(0))
            .expect("cycle is connected");
        let outcome = engine::run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::sweep_default(),
        )
        .expect("valid decisions");
        let cost = cost_of_duration(&seq, NodeId(0), outcome.termination_time, 1_000);
        match cost {
            Cost::Finite(c) => costs.push(c),
            Cost::ExceedsHorizon { .. } => all_finite = false,
        }
    }
    let grows = costs.windows(2).all(|w| w[1] >= w[0]) && costs.last() > costs.first();
    let passed = all_finite && grows && costs.iter().all(|&c| c >= 1);
    report(
        "E4",
        "Recurring interactions: finite but unbounded cost with G̅",
        "Theorem 4: cost_A(I) < ∞ when every interaction recurs, but cost_A(I) is unbounded over sequences",
        format!("delays {delays:?} produced costs {costs:?} (finite, growing with the delay)"),
        passed,
    )
}

/// E5 — Theorem 5: when `G̅` is a tree the spanning-tree algorithm is optimal.
pub fn e5_tree_underlying(effort: Effort) -> ExperimentReport {
    let (n, seeds) = match effort {
        Effort::Quick => (8, 5u64),
        Effort::Full => (16, 20u64),
    };
    let workload = TreeRestrictedWorkload::random_tree(n);
    let mut all_optimal = true;
    let mut costs = Vec::new();
    for seed in 0..seeds {
        let seq = workload.generate(40 * n, seed);
        let underlying = seq.underlying_graph();
        let Some(mut algo) = SpanningTreeAggregation::from_underlying_graph(&underlying, NodeId(0))
        else {
            // The random sequence did not expose every tree edge: skip.
            continue;
        };
        let outcome = engine::run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::sweep_default(),
        )
        .expect("valid decisions");
        let cost = cost_of_duration(&seq, NodeId(0), outcome.termination_time, 200);
        if !cost.is_optimal() {
            all_optimal = false;
        }
        costs.push(cost);
    }
    let passed = all_optimal && !costs.is_empty();
    // A cost beyond the evaluation horizon is the worst.
    let max_cost = costs
        .iter()
        .max_by_key(|cost| cost.as_finite().unwrap_or(u64::MAX))
        .map_or_else(|| "none".to_string(), Cost::to_string);
    report(
        "E5",
        "Tree underlying graph: spanning-tree algorithm is optimal",
        "Theorem 5: if G̅ is a tree, the algorithm achieves cost_A(I) = 1",
        format!(
            "{} tree-restricted sequences, max cost {max_cost}",
            costs.len()
        ),
        passed,
    )
}

/// E6 — Theorem 6: with own-future knowledge, cost ≤ n on every sequence.
pub fn e6_future_knowledge(effort: Effort) -> ExperimentReport {
    let (n, seeds) = match effort {
        Effort::Quick => (8, 5u64),
        Effort::Full => (16, 20u64),
    };
    let workload = UniformWorkload::new(n);
    let mut max_cost = 0u64;
    let mut all_within = true;
    for seed in 0..seeds {
        let seq = workload.generate(8 * n * n, seed);
        let mut algo = FutureBroadcast::new(&seq, NodeId(0));
        let outcome = engine::run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::sweep_default(),
        )
        .expect("valid decisions");
        match cost_of_duration(&seq, NodeId(0), outcome.termination_time, 4 * n as u64) {
            Cost::Finite(c) => {
                max_cost = max_cost.max(c);
                if c > n as u64 {
                    all_within = false;
                }
            }
            Cost::ExceedsHorizon { .. } => all_within = false,
        }
    }
    report(
        "E6",
        "Own-future knowledge: cost at most n",
        "Theorem 6: there is an algorithm in DODA(future) with cost_A(I) ≤ n for every I",
        format!(
            "n = {n}, {seeds} random sequences: maximum observed cost = {max_cost} (bound n = {n})"
        ),
        all_within,
    )
}

/// E7 — Theorem 7: without knowledge, `Ω(n²)` interactions are required;
/// Gathering matches the bound (its mean is `(n−1)²`, exponent ≈ 2).
pub fn e7_lower_bound(effort: Effort) -> ExperimentReport {
    let study = match effort {
        Effort::Quick => ScalingStudy::quick(),
        Effort::Full => ScalingStudy::benchmark(),
    };
    let result = study.run(AlgorithmSpec::Gathering);
    let exponent = result.exponent().unwrap_or(f64::NAN);
    // Compare the largest measured point against the exact expectation (n−1)².
    let last = result.points.last().expect("study has points");
    let expected = harmonic::expected_gathering_interactions(last.n);
    let ratio = last.mean_interactions / expected;
    let passed = (1.6..=2.4).contains(&exponent) && (0.7..=1.4).contains(&ratio);
    report(
        "E7",
        "Ω(n²) lower bound without knowledge (Gathering matches)",
        "Theorem 7: expected interactions are Ω(n²); Gathering needs (n−1)² in expectation",
        format!(
            "fitted exponent {exponent:.2} (expect ≈ 2); mean at n = {} is {:.0} vs (n−1)² = {:.0} (ratio {ratio:.2})",
            last.n, last.mean_interactions, expected
        ),
        passed,
    )
}

/// E8 — Theorem 8 / Corollary 1: with full knowledge, `Θ(n log n)`.
pub fn e8_full_knowledge(effort: Effort) -> ExperimentReport {
    let study = match effort {
        Effort::Quick => ScalingStudy::quick(),
        Effort::Full => ScalingStudy::benchmark(),
    };
    let result = study.run(AlgorithmSpec::OfflineOptimal);
    let exponent_with_log = result
        .fit_with_log_factor(1.0)
        .map(|f| f.exponent)
        .unwrap_or(f64::NAN);
    let last = result.points.last().expect("study has points");
    let expected = harmonic::expected_full_knowledge_interactions(last.n);
    let ratio = last.mean_interactions / expected;
    let passed = (0.8..=1.25).contains(&exponent_with_log) && (0.7..=1.4).contains(&ratio);
    report(
        "E8",
        "Θ(n log n) with full knowledge",
        "Theorem 8: the best algorithm with full knowledge terminates in Θ(n log n) interactions (expectation (n−1)·H(n−1))",
        format!(
            "exponent after removing the log factor: {exponent_with_log:.2} (expect ≈ 1); mean at n = {} is {:.0} vs (n−1)H(n−1) = {:.0} (ratio {ratio:.2})",
            last.n, last.mean_interactions, expected
        ),
        passed,
    )
}

/// E9 — Theorem 9: Waiting is `O(n² log n)`, Gathering is `O(n²)`.
pub fn e9_waiting_gathering(effort: Effort) -> ExperimentReport {
    let study = match effort {
        Effort::Quick => ScalingStudy::quick(),
        Effort::Full => ScalingStudy::benchmark(),
    };
    let waiting = study.run(AlgorithmSpec::Waiting);
    let gathering = study.run(AlgorithmSpec::Gathering);
    let last_w = waiting.points.last().expect("points");
    let last_g = gathering.points.last().expect("points");
    let expected_w = harmonic::expected_waiting_interactions(last_w.n);
    let expected_g = harmonic::expected_gathering_interactions(last_g.n);
    let ratio_w = last_w.mean_interactions / expected_w;
    let ratio_g = last_g.mean_interactions / expected_g;
    // Waiting / Gathering should be ≈ H(n−1)/2 > 1 and grow slowly with n.
    let measured_gap = last_w.mean_interactions / last_g.mean_interactions;
    let expected_gap = expected_w / expected_g;
    let passed = (0.7..=1.4).contains(&ratio_w)
        && (0.7..=1.4).contains(&ratio_g)
        && (0.6..=1.5).contains(&(measured_gap / expected_gap));
    report(
        "E9",
        "Waiting O(n² log n) vs Gathering O(n²)",
        "Theorem 9: E[Waiting] = n(n−1)/2·H(n−1), E[Gathering] = (n−1)²",
        format!(
            "at n = {}: Waiting mean {:.0} vs formula {:.0} (ratio {ratio_w:.2}); Gathering mean {:.0} vs formula {:.0} (ratio {ratio_g:.2}); gap {measured_gap:.2} vs predicted {expected_gap:.2}",
            last_w.n, last_w.mean_interactions, expected_w, last_g.mean_interactions, expected_g
        ),
        passed,
    )
}

/// E10 — Theorem 10 / Corollary 3: Waiting Greedy with
/// `τ = n^{3/2}√log n` terminates within `τ` w.h.p.
pub fn e10_waiting_greedy(effort: Effort) -> ExperimentReport {
    let (ns, trials) = match effort {
        Effort::Quick => (vec![16, 32, 64], 10),
        Effort::Full => (vec![32, 64, 128, 256], 40),
    };
    let points = check_within_bound(
        AlgorithmSpec::WaitingGreedy { tau: None },
        &ns,
        trials,
        0xE10,
        |n| harmonic::waiting_greedy_tau(n) as f64,
    );
    let worst = points
        .iter()
        .map(|p| p.fraction_within)
        .fold(f64::INFINITY, f64::min);
    let passed = worst >= 0.8
        && points
            .last()
            .map(|p| p.fraction_within >= 0.9)
            .unwrap_or(false);
    let detail: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "n={}: {:.0}% ≤ τ={}",
                p.n,
                p.fraction_within * 100.0,
                p.bound
            )
        })
        .collect();
    report(
        "E10",
        "Waiting Greedy terminates within τ = n^{3/2}√log n w.h.p.",
        "Theorem 10 / Corollary 3: WG_τ with τ = Θ(n^{3/2}√log n) terminates in τ interactions w.h.p.",
        detail.join("; "),
        passed,
    )
}

/// E11 — Theorem 11: with `meetTime` knowledge Waiting Greedy is optimal —
/// empirically it sits strictly between the offline optimum and the
/// knowledge-free algorithms at every `n`, with exponent ≈ 1.5.
pub fn e11_meettime_optimality(effort: Effort) -> ExperimentReport {
    let study = match effort {
        Effort::Quick => ScalingStudy::quick(),
        Effort::Full => ScalingStudy::benchmark(),
    };
    let results = study.run_all(&AlgorithmSpec::randomized_comparison());
    let ordered = ordering_holds_everywhere(&results);
    let wg = results
        .iter()
        .find(|r| r.algorithm == "WaitingGreedy")
        .expect("WG in comparison");
    let wg_exponent = wg
        .fit_with_log_factor(0.5)
        .map(|f| f.exponent)
        .unwrap_or(f64::NAN);
    let passed = ordered && (1.2..=1.8).contains(&wg_exponent);
    let means: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{} {:.0}",
                r.algorithm,
                r.points
                    .last()
                    .map(|p| p.mean_interactions)
                    .unwrap_or(f64::NAN)
            )
        })
        .collect();
    report(
        "E11",
        "Ordering offline < WaitingGreedy < Gathering < Waiting",
        "Theorem 11: Waiting Greedy is optimal given meetTime; it must sit between the full-knowledge optimum (n log n) and the knowledge-free optimum (n²), with exponent 3/2",
        format!(
            "means at n = {}: {} | WG exponent (log factor removed) {wg_exponent:.2}",
            study.ns.last().copied().unwrap_or(0),
            means.join(", ")
        ),
        passed,
    )
}

/// E12 — Section 2.3: sanity of the cost function (duplicate-insertion
/// invariance and `cost = 1 ⇔ optimal`).
pub fn e12_cost_function(effort: Effort) -> ExperimentReport {
    let seeds = match effort {
        Effort::Quick => 10u64,
        Effort::Full => 50u64,
    };
    let n = 6;
    let workload = UniformWorkload::new(n);
    let mut all_hold = true;
    for seed in 0..seeds {
        let seq = workload.generate(6 * n * n, seed);
        let offline = OfflineOptimal::new(&FullKnowledge::new(seq.clone()), NodeId(0));
        let mut algo = offline;
        let outcome = engine::run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::sweep_default(),
        )
        .expect("valid decisions");
        let base = cost_of_duration(&seq, NodeId(0), outcome.termination_time, 100);
        if !base.is_optimal() {
            all_hold = false;
        }
        // Duplicate-insertion invariance: repeating the final interaction a
        // few times at the end of the sequence cannot change the cost of the
        // same (unchanged) duration.
        let mut padded = seq.clone();
        if let Some(last) = seq.get(seq.len() as u64 - 1) {
            for _ in 0..5 {
                padded.push(last);
            }
        }
        let padded_cost = cost_of_duration(&padded, NodeId(0), outcome.termination_time, 100);
        if padded_cost != base {
            all_hold = false;
        }
    }
    report(
        "E12",
        "Cost-function sanity",
        "Section 2.3: cost_A(I) = 1 iff the algorithm is optimal on I; the cost is invariant under trivial transformations such as appending duplicate interactions",
        format!("{seeds} random sequences checked (offline optimum has cost 1; appending duplicates preserves the cost)"),
        all_hold,
    )
}

/// E13 — adaptive adversaries are *sweepable*: Monte-Carlo batches of the
/// online adaptive isolator run through the sharded streamed runner, with
/// serial and parallel execution byte-identical. Gathering completes every
/// trial in exactly `n − 1` transmissions; Waiting completes none.
pub fn e13_adaptive_sweep(effort: Effort) -> ExperimentReport {
    let (n, trials, horizon) = match effort {
        Effort::Quick => (16usize, 8usize, 4_000usize),
        Effort::Full => (64, 40, 64_000),
    };
    let sweep = |spec, parallel| {
        Sweep::scenario(spec, Scenario::AdaptiveIsolator)
            .n(n)
            .trials(trials)
            .horizon(Some(horizon))
            .seed(0xE13)
            .parallel(parallel)
            .run()
    };
    let gathering = sweep(AlgorithmSpec::Gathering, false);
    let waiting = sweep(AlgorithmSpec::Waiting, false);
    let parallel = sweep(AlgorithmSpec::Gathering, true);
    let gathering_all = gathering
        .iter()
        .all(|r| r.terminated() && r.data_conserved && r.transmissions == n - 1);
    let waiting_none = waiting
        .iter()
        .all(|r| !r.terminated() && r.interactions_processed == horizon as u64);
    let deterministic = gathering == parallel;
    let passed = gathering_all && waiting_none && deterministic;
    report(
        "E13",
        "Adaptive adversaries sweep through the streamed sharded runner",
        "Section 2.2 operationalised: online adaptive adversaries run as first-class streamed scenarios — no materialisation — with deterministic sharded batches",
        format!(
            "n = {n}, {trials} trials vs the adaptive isolator: Gathering completed {}/{trials} (n−1 transmissions each), Waiting completed {}/{trials} within {horizon} interactions; serial == parallel: {deterministic}",
            gathering.iter().filter(|r| r.terminated()).count(),
            waiting.iter().filter(|r| r.terminated()).count(),
        ),
        passed,
    )
}

/// E14 — beyond the paper: completion-rate and transmission-cost
/// degradation of Waiting / Gathering / WaitingGreedy as the crash
/// probability grows. The paper's model assumes a fixed, fault-free
/// population; the fault axis ([`doda_sim::FaultedScenario`]) measures
/// how gracefully each strategy loses data when nodes crash mid-run:
/// fault-free runs aggregate everything, crash plans push trials into
/// survivors-only completion (the sink finishes, but over fewer data and
/// with fewer transmissions), and data conservation holds throughout.
pub fn e14_fault_degradation(effort: Effort) -> ExperimentReport {
    use doda_core::fault::FaultProfile;

    let (n, trials, ps) = match effort {
        Effort::Quick => (16usize, 8usize, vec![0.0, 0.002, 0.01]),
        Effort::Full => (64, 32, vec![0.0, 0.0005, 0.002, 0.01]),
    };
    let specs = [
        AlgorithmSpec::Waiting,
        AlgorithmSpec::Gathering,
        AlgorithmSpec::WaitingGreedy { tau: None },
    ];
    let mut passed = true;
    let mut lines = Vec::new();
    for spec in specs {
        let mut full_rates = Vec::new();
        let mut mean_transmissions = Vec::new();
        for &p in &ps {
            let scenario = if p > 0.0 {
                Scenario::Uniform.with_faults(FaultProfile::crash(p))
            } else {
                Scenario::Uniform.into()
            };
            let raw = Sweep::scenario(spec, scenario)
                .n(n)
                .trials(trials)
                .seed(0xE14)
                .run();
            // Conservation must hold on every terminated trial, faulted
            // or not.
            if raw.iter().any(|r| r.terminated() && !r.data_conserved) {
                passed = false;
            }
            let full = raw.iter().filter(|r| r.fully_aggregated()).count();
            let terminated: Vec<_> = raw.iter().filter(|r| r.terminated()).collect();
            let mean_tx = terminated
                .iter()
                .map(|r| r.transmissions as f64)
                .sum::<f64>()
                / terminated.len().max(1) as f64;
            full_rates.push(full as f64 / trials as f64);
            mean_transmissions.push(mean_tx);
        }
        // Fault-free sweeps aggregate everything...
        if full_rates[0] < 1.0 {
            passed = false;
        }
        // ...and crashes must cost completeness at the heaviest plan,
        // with fewer transmissions (lost data never transmits).
        let last = full_rates.len() - 1;
        if full_rates[last] >= 1.0 || mean_transmissions[last] >= mean_transmissions[0] {
            passed = false;
        }
        // Degradation is monotone (never *gaining* completeness from
        // more crashes).
        if full_rates.windows(2).any(|w| w[1] > w[0]) {
            passed = false;
        }
        lines.push(format!(
            "{spec}: full-aggregation rate {} | mean transmissions {}",
            full_rates
                .iter()
                .map(|r| format!("{:.2}", r))
                .collect::<Vec<_>>()
                .join(" → "),
            mean_transmissions
                .iter()
                .map(|t| format!("{:.1}", t))
                .collect::<Vec<_>>()
                .join(" → "),
        ));
    }
    report(
        "E14",
        "Crash faults degrade completion gracefully (fault axis)",
        "Beyond the paper: under crash probability p per step, the sink still terminates but aggregates survivors only — completion degrades monotonically with p, transmissions shrink, and no datum is ever unaccounted for",
        format!("n = {n}, {trials} trials, p ∈ {ps:?}: {}", lines.join(" ; ")),
        passed,
    )
}

/// E15 — beyond the paper: exact vs approximate aggregation. The
/// aggregation algebra makes the carried value orthogonal to the
/// trajectory: switching [`doda_sim::AggregateKind`] changes *what* the
/// sink knows at termination, never *how* the run unfolds. Measured
/// here on Gathering vs uniform:
///
/// * **trajectory invariance** — every aggregate kind reproduces the
///   exact run's interactions, transmissions and termination time
///   trial-for-trial (decisions read algorithm state, not datum values);
/// * **exactness** — the `Count` summary equals `n` on every fully
///   aggregated trial, like the `IdSet` reference;
/// * **accuracy** — the fixed-size `Distinct` sketch estimates `n`
///   within a register-bound relative error, and the fixed-bin
///   `Quantile` sketch pins the median and p95 of the uniform `[0, 1)`
///   readings within bin-plus-sampling tolerance — both with `O(1)`
///   state per node where `IdSet` pays `O(n)` at the sink (the memory
///   side is asserted on real heap marks by `doda-bench
///   --algebra-guard`).
pub fn e15_exact_vs_sketch(effort: Effort) -> ExperimentReport {
    use doda_core::algebra::AggregateSummary;
    use doda_sim::AggregateKind;

    let (n, trials, distinct_tol, quantile_tol) = match effort {
        Effort::Quick => (32usize, 4usize, 0.25, 0.25),
        Effort::Full => (512, 8, 0.15, 0.08),
    };
    let sweep = |kind| {
        Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(n)
            .trials(trials)
            .seed(0xE15)
            .aggregate(kind)
            .run()
    };
    let exact = sweep(AggregateKind::IdSet);
    let counted = sweep(AggregateKind::Count);
    let distinct = sweep(AggregateKind::Distinct);
    let quantile = sweep(AggregateKind::Quantile);

    let mut passed = exact.iter().all(|r| r.fully_aggregated());

    // Same trajectory under every aggregate kind, trial for trial.
    let same_trajectory = |approx: &[doda_sim::TrialResult]| {
        exact.iter().zip(approx).all(|(e, a)| {
            e.interactions_processed == a.interactions_processed
                && e.transmissions == a.transmissions
                && e.termination_time == a.termination_time
        })
    };
    let trajectories_match =
        same_trajectory(&counted) && same_trajectory(&distinct) && same_trajectory(&quantile);
    passed &= trajectories_match;

    // Counting is exact.
    passed &= counted.iter().all(
        |r| matches!(r.aggregate, Some(AggregateSummary::Count { value }) if value == n as u64),
    );

    // The distinct sketch tracks the true cardinality.
    let mut distinct_err: f64 = 0.0;
    for r in &distinct {
        match r.aggregate {
            Some(AggregateSummary::Distinct { estimate }) => {
                distinct_err = distinct_err.max((estimate - n as f64).abs() / n as f64);
            }
            _ => passed = false,
        }
    }
    passed &= distinct_err <= distinct_tol;

    // The quantile sketch counts everything and pins the uniform
    // readings' median and p95.
    let mut median_err: f64 = 0.0;
    let mut p95_err: f64 = 0.0;
    for r in &quantile {
        match r.aggregate {
            Some(AggregateSummary::Quantile { count, median, p95 }) if count == n as u64 => {
                median_err = median_err.max((median - 0.5).abs());
                p95_err = p95_err.max((p95 - 0.95).abs());
            }
            _ => passed = false,
        }
    }
    passed &= median_err <= quantile_tol && p95_err <= quantile_tol;

    report(
        "E15",
        "Exact vs sketch aggregation: same trajectory, bounded error",
        "Beyond the paper: the aggregation algebra swaps the carried value under the same runs — exact counts stay exact, fixed-size sketches trade bounded error for O(1) per-node state",
        format!(
            "n = {n}, {trials} trials of Gathering vs uniform per kind: trajectories identical \
             across id-set/count/distinct/quantile: {trajectories_match}; distinct worst error \
             {:.1}% (tol {:.0}%); quantile worst |median−0.5| {median_err:.3}, |p95−0.95| \
             {p95_err:.3} (tol {quantile_tol})",
            distinct_err * 100.0,
            distinct_tol * 100.0,
        ),
        passed,
    )
}

/// Runs every experiment at the given effort and returns the reports in
/// order E1–E15.
pub fn run_all(effort: Effort) -> Vec<ExperimentReport> {
    vec![
        e1_adaptive_adversary(effort),
        e2_oblivious_trap(effort),
        e3_cycle_trap(effort),
        e4_recurring_edges(effort),
        e5_tree_underlying(effort),
        e6_future_knowledge(effort),
        e7_lower_bound(effort),
        e8_full_knowledge(effort),
        e9_waiting_gathering(effort),
        e10_waiting_greedy(effort),
        e11_meettime_optimality(effort),
        e12_cost_function(effort),
        e13_adaptive_sweep(effort),
        e14_fault_degradation(effort),
        e15_exact_vs_sketch(effort),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impossibility_experiments_pass_quickly() {
        assert!(e1_adaptive_adversary(Effort::Quick).passed);
        assert!(e3_cycle_trap(Effort::Quick).passed);
    }

    #[test]
    fn oblivious_trap_experiment_passes() {
        assert!(e2_oblivious_trap(Effort::Quick).passed);
    }

    #[test]
    fn knowledge_experiments_pass() {
        let e4 = e4_recurring_edges(Effort::Quick);
        assert!(e4.passed, "{e4:?}");
        let e5 = e5_tree_underlying(Effort::Quick);
        assert!(e5.passed, "{e5:?}");
        let e6 = e6_future_knowledge(Effort::Quick);
        assert!(e6.passed, "{e6:?}");
    }

    #[test]
    fn randomized_adversary_shape_experiments_pass() {
        let e7 = e7_lower_bound(Effort::Quick);
        assert!(e7.passed, "{e7:?}");
        let e8 = e8_full_knowledge(Effort::Quick);
        assert!(e8.passed, "{e8:?}");
    }

    #[test]
    fn waiting_vs_gathering_experiment_passes() {
        let e9 = e9_waiting_gathering(Effort::Quick);
        assert!(e9.passed, "{e9:?}");
    }

    #[test]
    fn meettime_experiments_pass() {
        let e10 = e10_waiting_greedy(Effort::Quick);
        assert!(e10.passed, "{e10:?}");
        let e11 = e11_meettime_optimality(Effort::Quick);
        assert!(e11.passed, "{e11:?}");
    }

    #[test]
    fn cost_function_experiment_passes() {
        let e12 = e12_cost_function(Effort::Quick);
        assert!(e12.passed, "{e12:?}");
    }

    #[test]
    fn adaptive_sweep_experiment_passes() {
        let e13 = e13_adaptive_sweep(Effort::Quick);
        assert!(e13.passed, "{e13:?}");
    }

    #[test]
    fn fault_degradation_experiment_passes() {
        let e14 = e14_fault_degradation(Effort::Quick);
        assert!(e14.passed, "{e14:?}");
    }

    #[test]
    fn exact_vs_sketch_experiment_passes() {
        let e15 = e15_exact_vs_sketch(Effort::Quick);
        assert!(e15.passed, "{e15:?}");
    }
}
