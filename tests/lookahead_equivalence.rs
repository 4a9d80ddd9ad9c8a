//! Sweep-level pin: Waiting Greedy sweeps read `meetTime` ahead on demand
//! instead of filling the horizon, and reproduce the filled reference
//! result for result.
//!
//! The reference is what a sweep did before the lookahead: fill each
//! trial's committed schedule up to the horizon with
//! [`InteractionSequence::fill_from`], then run [`TrialRunner::run`] over
//! it with the trial's fault and Byzantine plans. Every registry entry
//! that admits Waiting Greedy is covered, faulted and Byzantine ones
//! included, plus the workload family, a horizon cut below completion,
//! `τ = 0` and an unreachable `τ`, serially and in parallel.

use doda::core::byzantine::ByzantineProfile;
use doda::prelude::*;
use doda::stats::rng::SeedSequence;
use doda::workloads::{UniformWorkload, VehicularWorkload};

const TRIALS: usize = 4;
const SEED: u64 = 0x100C;

const SPECS: [AlgorithmSpec; 3] = [
    AlgorithmSpec::WaitingGreedy { tau: None },
    AlgorithmSpec::WaitingGreedy { tau: Some(0) },
    AlgorithmSpec::WaitingGreedy {
        tau: Some(u64::MAX),
    },
];

/// Fills then runs each trial, as the sweep's materialised path did:
/// trial `i` streams from `source(seed_i)` under `planes`' plans for
/// `seed_i`.
fn reference(
    spec: AlgorithmSpec,
    source: impl Fn(u64) -> Box<dyn InteractionSource + Send>,
    planes: FaultedScenario,
    horizon: usize,
) -> Vec<TrialResult> {
    let seeds = SeedSequence::new(SEED);
    let mut runner = TrialRunner::new();
    let mut seq = InteractionSequence::new(0);
    (0..TRIALS)
        .map(|trial| {
            let seed = seeds.seed(trial as u64);
            seq.fill_from(source(seed).as_mut(), horizon);
            let config = TrialConfig {
                fault: planes.fault_injection(seed),
                byzantine: planes.byzantine_injection(seed),
                ..TrialConfig::default()
            };
            runner.run(spec, &seq, &config, &ExactOrigins)
        })
        .collect()
}

/// Runs `sweep` serially and in parallel and checks both against
/// `expected`.
fn assert_sweep_reproduces(sweep: Sweep<'_>, expected: &[TrialResult], what: &str) {
    assert_eq!(sweep.path_label(), "materialized", "{what}");
    let serial = sweep.run();
    assert_eq!(serial, expected, "{what}, serial");
    assert_eq!(sweep.parallel(true).run(), expected, "{what}, parallel");
}

#[test]
fn registry_sweeps_reproduce_the_filled_reference() {
    let (mut covered, mut cut_short) = (0, 0);
    for entry in FaultedScenario::registry() {
        if !entry.supports(SPECS[0]) {
            continue;
        }
        covered += 1;
        let n = entry.min_nodes().max(10);
        // The default 8n² horizon, and one far below completion.
        for horizon in [None, Some(2 * n)] {
            let h = horizon.unwrap_or(8 * n * n);
            for spec in SPECS {
                let expected = reference(spec, |seed| entry.base.source(n, seed), entry, h);
                if horizon.is_some() {
                    cut_short += expected.iter().filter(|r| !r.terminated()).count();
                }
                let sweep = Sweep::scenario(spec, entry)
                    .n(n)
                    .trials(TRIALS)
                    .seed(SEED)
                    .horizon(horizon);
                assert_sweep_reproduces(sweep, &expected, &format!("{spec} x {entry}, h = {h}"));
            }
        }
    }
    assert!(
        covered >= 10,
        "only {covered} registry entries admit Waiting Greedy"
    );
    assert!(
        cut_short > 0,
        "the short horizon must cut some trials before completion"
    );
}

#[test]
fn byzantine_builder_sweeps_reproduce_the_filled_reference() {
    let forgers = ByzantineProfile::forge(0.1);
    let n = 16;
    for base in [
        FaultedScenario::from(Scenario::Uniform),
        Scenario::Vehicular.with_faults(doda::core::fault::FaultProfile::churn(0.002, 0.004)),
    ] {
        let planes = base.with_byzantine(forgers);
        for spec in SPECS {
            let expected = reference(spec, |seed| base.base.source(n, seed), planes, 8 * n * n);
            let sweep = Sweep::scenario(spec, base)
                .n(n)
                .trials(TRIALS)
                .seed(SEED)
                .byzantine(forgers);
            assert_sweep_reproduces(sweep, &expected, &format!("{spec} x {planes}"));
        }
    }
}

#[test]
fn workload_sweeps_reproduce_the_filled_reference() {
    let n = 14;
    let uniform = UniformWorkload::new(n);
    let vehicular = VehicularWorkload::new(n, 3);
    let workloads: [&(dyn Workload + Sync); 2] = [&uniform, &vehicular];
    let honest = FaultedScenario::from(Scenario::Uniform);
    for workload in workloads {
        for horizon in [None, Some(3 * n)] {
            let h = horizon.unwrap_or(8 * n * n);
            for spec in SPECS {
                let expected = reference(spec, |seed| workload.source(seed), honest, h);
                let sweep = Sweep::workload(spec, workload)
                    .trials(TRIALS)
                    .seed(SEED)
                    .horizon(horizon);
                let what = format!("{spec} x {}, h = {h}", workload.name());
                assert_sweep_reproduces(sweep, &expected, &what);
            }
        }
    }
}
