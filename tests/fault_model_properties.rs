//! Conformance suite for the fault model: every invariant of the crash /
//! churn / loss semantics is pinned by a property, so the fault surface
//! cannot drift silently as it grows.
//!
//! The three pillars:
//!
//! 1. **Data conservation** — every datum ever introduced (initial data
//!    plus churn arrivals) is aggregated at the sink, destroyed by a
//!    crash/departure (lost bin), salvaged from a recoverable crash
//!    (recovered bin), or still owned by a live node. Never duplicated,
//!    never silently dropped — checked *exactly* with `Count` data and
//!    as origin-set coverage with `IdSet` data.
//! 2. **Determinism** — a `FaultedSource` is a pure function of
//!    `(inner stream, profile, fault seed)`: the same triple yields the
//!    same event stream, and the fault stream never perturbs the inner
//!    stream's randomness.
//! 3. **Streamed == materialised under faults** — for every workload ×
//!    knowledge-free algorithm × seed, running the engine off
//!    `FaultedSource(workload.source)` is byte-identical to materialising
//!    the workload first and running `FaultedSource(sequence.stream)`
//!    with the same fault plan: the fault layer preserves the PR-3
//!    streaming equivalence.

use doda::core::data::Count;
use doda::core::fault::{FaultProfile, FaultedSource};
use doda::core::outcome::Completion;
use doda::graph::NodeId;
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

/// A profile strategy spanning the whole fault space: crash (both
/// policies), churn and loss, individually and combined. Probabilities
/// are drawn in basis points (the vendored proptest has integer-range
/// strategies only).
fn profile_strategy() -> impl Strategy<Value = FaultProfile> {
    (0u32..200, 0u32..200, 0u32..500, 0u32..3_000, 0u8..2).prop_map(
        |(crash_bp, departure_bp, arrival_bp, loss_bp, recoverable)| {
            let crash = f64::from(crash_bp) / 10_000.0;
            let base = if recoverable == 1 {
                FaultProfile::crash_recoverable(crash)
            } else {
                FaultProfile::crash(crash)
            };
            FaultProfile {
                departure: f64::from(departure_bp) / 10_000.0,
                arrival: f64::from(arrival_bp) / 10_000.0,
                loss: f64::from(loss_bp) / 10_000.0,
                ..base
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exact conservation with `Count` data: at any stopping point (the
    /// executions here may terminate or starve), the sum of the counts at
    /// the sink, in the lost and recovered bins, and at live owners
    /// equals `n + arrivals` — no datum duplicated, none dropped.
    #[test]
    fn every_datum_is_accounted_for_exactly(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        n in 4usize..12,
        profile in profile_strategy(),
        budget in 50u64..4_000,
    ) {
        let workload = UniformWorkload::new(n);
        for spec in STREAMABLE {
            let mut algorithm = spec.instantiate_online().expect("knowledge-free");
            let mut engine: Engine<Count> = Engine::new();
            let mut faulted = FaultedSource::new(
                workload.source(seed),
                profile,
                fault_seed,
            ).expect("profiles from the strategy are valid");
            let stats = engine
                .run(
                    algorithm.as_mut(),
                    &mut faulted,
                    NodeId(0),
                    |_| Count(1),
                    EngineConfig::sweep(budget),
                    &mut DiscardTransmissions,
                )
                .expect("valid decisions and well-formed fault events");

            let at_nodes: u64 = (0..n)
                .filter_map(|i| engine.state().data_of(NodeId(i)))
                .map(|c| c.0)
                .sum();
            let lost = engine.state().lost_data().map_or(0, |c| c.0);
            let recovered = engine.state().recovered_data().map_or(0, |c| c.0);
            prop_assert_eq!(
                at_nodes + lost + recovered,
                stats.data_introduced(),
                "{} leaked or duplicated data (n={}, seed={}, fault_seed={})",
                spec, n, seed, fault_seed
            );
            // The tallies count destroyed *data items* (each possibly an
            // aggregate of several origins), so the origin-counting bins
            // dominate them, with equality when nothing was aggregated
            // before being lost.
            prop_assert!(lost >= stats.faults.data_lost);
            prop_assert!(recovered >= stats.faults.data_recovered);
            prop_assert_eq!(lost == 0, stats.faults.data_lost == 0);
            prop_assert_eq!(recovered == 0, stats.faults.data_recovered == 0);
            // Completion classification is consistent with the tallies.
            match stats.completion {
                Completion::Aggregated => {
                    prop_assert!(stats.terminated());
                    prop_assert_eq!(stats.faults.data_lost + stats.faults.data_recovered, 0);
                }
                Completion::AggregatedSurvivors => {
                    prop_assert!(stats.terminated());
                    prop_assert!(stats.faults.data_lost + stats.faults.data_recovered > 0);
                }
                Completion::Starved => prop_assert!(!stats.terminated()),
            }
            // At termination the sink is the sole owner.
            if stats.terminated() {
                prop_assert_eq!(stats.remaining_owners, 1);
            }
        }
    }

    /// Origin-set conservation with `IdSet` data, via the trial runner:
    /// at termination the sink's origins plus the lost/recovered bins
    /// cover every origin (`data_conserved`), faulted or not.
    #[test]
    fn terminated_faulted_trials_conserve_origins(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        n in 4usize..12,
        profile in profile_strategy(),
    ) {
        let workload = UniformWorkload::new(n);
        let mut runner = TrialRunner::new();
        for spec in STREAMABLE {
            let result = runner.run(
                spec,
                || workload.source(seed),
                8 * n * n,
                &TrialConfig {
                    fault: Some(FaultInjection { profile, seed: fault_seed }),
                    ..TrialConfig::default()
                },
                &ExactOrigins,
            );
            if result.terminated() {
                prop_assert!(
                    result.data_conserved,
                    "{} terminated without conserving origins (n={}, seed={}, fault_seed={})",
                    spec, n, seed, fault_seed
                );
            }
            prop_assert_eq!(result.fully_aggregated(), result.completion == Completion::Aggregated);
        }
    }

    /// A `FaultedSource` is deterministic per `(profile, seed)`: the same
    /// plan over the same inner stream yields the same events, and a
    /// different fault seed yields a different fault placement without
    /// ever perturbing the *inner* interactions' relative order.
    #[test]
    fn faulted_source_is_deterministic_per_seed(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        n in 4usize..10,
        profile in profile_strategy(),
    ) {
        let workload = UniformWorkload::new(n);
        let owns = vec![true; n];
        let view = AdversaryView { owns_data: &owns, sink: NodeId(0) };
        let drain = |fs: u64| -> Vec<StepEvent> {
            let mut source = FaultedSource::new(workload.source(seed), profile, fs)
                .expect("valid profile");
            (0..600u64).map_while(|t| source.next_event(t, &view)).collect()
        };
        let a = drain(fault_seed);
        let b = drain(fault_seed);
        prop_assert_eq!(&a, &b, "same (seed, fault seed) must replay identically");

        // The interaction payload (delivered or lost) is the inner stream
        // in order: stripping fault events recovers a prefix of it.
        let inner: Vec<Interaction> = {
            let mut source = workload.source(seed);
            (0..600u64).map_while(|t| source.next_interaction(t, &view)).collect()
        };
        let replayed: Vec<Interaction> = a.iter().filter_map(|e| match e {
            StepEvent::Interaction(i) | StepEvent::Lost(i) => Some(*i),
            _ => None,
        }).collect();
        prop_assert_eq!(
            &replayed[..],
            &inner[..replayed.len()],
            "the fault layer must never reorder or perturb the inner stream"
        );
    }

    /// The tentpole equivalence: faulted streamed == faulted materialised
    /// for every workload × knowledge-free algorithm × seed, byte for
    /// byte — the fault layer composes with the PR-3 streaming guarantee
    /// instead of breaking it.
    #[test]
    fn faulted_streamed_equals_faulted_materialized(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        n in 4usize..12,
        profile in profile_strategy(),
    ) {
        let horizon = 6 * n * n;
        let injection = FaultInjection { profile, seed: fault_seed };
        let mut runner = TrialRunner::new();
        for workload in all_workloads(n) {
            let seq = workload.generate(horizon, seed);
            for spec in STREAMABLE {
                let config = TrialConfig {
                    fault: Some(injection),
                    ..TrialConfig::default()
                };
                let materialized =
                    runner.run(spec, || seq.source(false), horizon, &config, &ExactOrigins);
                let streamed =
                    runner.run(spec, || workload.source(seed), horizon, &config, &ExactOrigins);
                prop_assert_eq!(
                    &streamed,
                    &materialized,
                    "{} diverged under faults on {} (n={}, seed={}, fault_seed={})",
                    spec,
                    workload.name(),
                    n,
                    seed,
                    fault_seed
                );
            }
        }
    }
}

/// Crashed nodes stay dead: no event stream from a `FaultedSource` ever
/// revives a crashed slot, and the sink is never removed (directed test
/// over a hostile profile — high churn, high crash).
#[test]
fn crashes_are_permanent_and_the_sink_is_immortal() {
    let n = 8;
    let profile = FaultProfile {
        arrival: 0.3,
        departure: 0.2,
        ..FaultProfile::crash(0.1)
    };
    let workload = UniformWorkload::new(n);
    let owns = vec![true; n];
    for sink in [NodeId(0), NodeId(3)] {
        let view = AdversaryView {
            owns_data: &owns,
            sink,
        };
        let mut source = FaultedSource::new(workload.source(1), profile, 99).unwrap();
        let mut crashed = vec![false; n];
        for t in 0..20_000u64 {
            match source.next_event(t, &view).expect("infinite inner stream") {
                StepEvent::Crash { node, .. } => {
                    assert_ne!(node, sink, "the sink crashed at t={t}");
                    assert!(!crashed[node.index()], "double crash of {node} at t={t}");
                    crashed[node.index()] = true;
                }
                StepEvent::Departure(node) => {
                    assert_ne!(node, sink, "the sink departed at t={t}");
                    assert!(!crashed[node.index()], "departure of crashed {node}");
                }
                StepEvent::Arrival(node) => {
                    assert!(
                        !crashed[node.index()],
                        "crashed node {node} revived at t={t}"
                    );
                }
                StepEvent::Interaction(_) | StepEvent::Lost(_) => {}
            }
        }
        assert!(
            crashed.iter().any(|&c| c),
            "a 10% crash plan must fire over 20k steps"
        );
    }
}

/// Regression (satellite): a fault plan that could drop the live
/// population below 2 nodes is a typed `FaultConfigError` surfaced
/// before any trial runs — never a hang. `Scenario::min_nodes` composes
/// with the plan's floor through `FaultedScenario::min_nodes`.
#[test]
fn under_floored_plans_are_typed_errors_not_hangs() {
    use doda::core::fault::FaultConfigError;

    let plan = FaultProfile {
        min_live: 1,
        ..FaultProfile::churn(0.5, 0.0)
    };
    // Core rejects the profile itself...
    assert_eq!(
        plan.validate(8),
        Err(FaultConfigError::MinLiveTooSmall { min_live: 1 })
    );
    // ...the scenario layer surfaces the same typed error pre-run...
    let scenario = Scenario::Uniform.with_faults(plan);
    assert_eq!(
        scenario.validate(8),
        Err(FaultConfigError::MinLiveTooSmall { min_live: 1 })
    );
    // ...and a floor the node count cannot satisfy raises the scenario's
    // minimum admissible node count.
    let heavy = Scenario::Uniform.with_faults(FaultProfile {
        min_live: 10,
        ..FaultProfile::crash(0.1)
    });
    assert_eq!(heavy.min_nodes(), 10);
    assert_eq!(
        heavy.validate(8),
        Err(FaultConfigError::MinLiveExceedsNodes { min_live: 10, n: 8 })
    );
    assert!(heavy.validate(10).is_ok());
    // The adapter constructor enforces the same contract.
    assert!(FaultedSource::new(UniformWorkload::new(8).source(0), plan, 0).is_err());
}
