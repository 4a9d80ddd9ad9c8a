//! The batch-sweep workloads, `sweep-lanes` and `sweep-scalar`: their
//! cells, the untraced measurement, the correctness gate, and the traced
//! layer-by-layer replay.

use std::hint::black_box;
use std::time::Instant;

use doda_adversary::RandomizedAdversary;
use doda_core::byzantine::{ByzantineInjector, ByzantineProfile, Tally, Verdict};
use doda_core::data::IdSet;
use doda_core::engine::{DiscardTransmissions, Engine, EngineConfig, RunStats};
use doda_core::fault::{FaultProfile, FaultedSource};
use doda_core::lane::{LaneEngine, LaneRunStats, MAX_LANES};
use doda_core::outcome::{Completion, FaultTally};
use doda_core::sequence::InteractionSource;
use doda_core::InteractionSequence;
use doda_graph::NodeId;
use doda_sim::{
    finish_trial, AlgorithmSpec, ExecutionTier, FaultedScenario, Scenario, Sweep, TrialResult,
};
use doda_stats::rng::SeedSequence;

use crate::trace::{span, Prefetch, Trace};
use crate::{Gate, Scale};

/// The seed whose simulated statistics are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// How many times a run sets up, to report the median set-up time.
const SETUP_REPS: usize = 7;

/// A set-up's warm-up pass runs this fraction of every cell's trials.
const WARM_UP_SHARE: usize = 8;

/// Lane trials per cell re-run on the scalar tier by the gate.
const LANE_SAMPLE: usize = 4;

/// Which sweep workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepWorkload {
    /// Knowledge-free cells that `ExecutionTier::Auto` runs on lanes.
    Lanes,
    /// Scalar cells: materialized knowledge, faults, and the audited path.
    Scalar,
}

impl SweepWorkload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            SweepWorkload::Lanes => "sweep-lanes",
            SweepWorkload::Scalar => "sweep-scalar",
        }
    }
}

/// One sweep of a workload: an algorithm against a scenario at a size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The algorithm.
    pub spec: AlgorithmSpec,
    /// The interaction process, with any fault or Byzantine plan.
    pub scenario: FaultedScenario,
    /// Node count.
    pub n: usize,
    /// Trials per pass.
    pub trials: usize,
}

impl Cell {
    /// The cell's sweep at `seed`, serial.
    pub fn sweep(&self, seed: u64) -> Sweep<'static> {
        Sweep::scenario(self.spec, self.scenario)
            .n(self.n)
            .trials(self.trials)
            .seed(seed)
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        format!("{} x {} n={}", self.spec, self.scenario, self.n)
    }
}

/// The cells of `workload` at `scale`.
pub fn cells(workload: SweepWorkload, scale: Scale) -> Vec<Cell> {
    let cell = |spec, scenario: FaultedScenario, n: usize, trials: usize| Cell {
        spec,
        scenario,
        n: match scale {
            Scale::Tiny => n / 4,
            Scale::Full | Scale::Probe => n,
        },
        trials: match scale {
            Scale::Full => trials,
            Scale::Probe | Scale::Tiny => trials / 16,
        },
    };
    let zipf = Scenario::Zipf { exponent: 1.2 };
    match workload {
        SweepWorkload::Lanes => vec![
            cell(AlgorithmSpec::Gathering, Scenario::Uniform.into(), 512, 128),
            cell(AlgorithmSpec::Gathering, zipf.into(), 512, 128),
            cell(AlgorithmSpec::Waiting, Scenario::Uniform.into(), 512, 128),
            cell(AlgorithmSpec::Waiting, zipf.into(), 512, 128),
        ],
        SweepWorkload::Scalar => vec![
            cell(
                AlgorithmSpec::WaitingGreedy { tau: None },
                Scenario::Uniform.into(),
                256,
                64,
            ),
            cell(
                AlgorithmSpec::Waiting,
                Scenario::Vehicular.with_faults(FaultProfile::crash(0.002)),
                96,
                64,
            ),
            cell(
                AlgorithmSpec::Waiting,
                Scenario::Uniform.with_byzantine(ByzantineProfile::forge(0.1)),
                256,
                64,
            ),
        ],
    }
}

/// Per-cell statistics pinned for [`DEFAULT_SEED`] at full scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellStats {
    /// Trials that completed.
    pub completed: usize,
    /// Sum over completed trials of the interactions to completion (their
    /// mean is this over `completed`).
    pub completion_sum: u64,
    /// Interactions processed by all trials.
    pub processed: u64,
    /// Verdict counts: clean, detected, tolerated, corrupted.
    pub verdicts: [usize; 4],
}

impl CellStats {
    /// The statistics of one cell's results.
    pub fn of(results: &[TrialResult]) -> Self {
        let mut stats = CellStats {
            completed: 0,
            completion_sum: 0,
            processed: 0,
            verdicts: [0; 4],
        };
        for r in results {
            if let Some(t) = r.termination_time {
                stats.completed += 1;
                stats.completion_sum += t + 1;
            }
            stats.processed += r.interactions_processed;
            let slot = match r.verdict {
                None => None,
                Some(Verdict::Clean) => Some(0),
                Some(Verdict::Detected { .. }) => Some(1),
                Some(Verdict::Tolerated) => Some(2),
                Some(Verdict::Corrupted) => Some(3),
            };
            if let Some(slot) = slot {
                stats.verdicts[slot] += 1;
            }
        }
        stats
    }
}

const fn pinned(
    completed: usize,
    completion_sum: u64,
    processed: u64,
    verdicts: [usize; 4],
) -> CellStats {
    CellStats {
        completed,
        completion_sum,
        processed,
        verdicts,
    }
}

/// The pinned statistics of every cell of `workload` at full scale and
/// [`DEFAULT_SEED`].
fn pinned_stats(workload: SweepWorkload) -> &'static [CellStats] {
    const LANES: &[CellStats] = &[
        pinned(128, 33_728_511, 33_728_511, [0; 4]),
        pinned(128, 7_910_205, 7_910_205, [0; 4]),
        pinned(128, 116_744_863, 116_744_863, [0; 4]),
        pinned(128, 8_269_458, 8_269_458, [0; 4]),
    ];
    const SCALAR: &[CellStats] = &[
        pinned(64, 607_061, 607_061, [0; 4]),
        pinned(64, 2_203_227, 2_203_227, [0; 4]),
        pinned(64, 13_166_624, 13_166_624, [0, 64, 0, 0]),
    ];
    match workload {
        SweepWorkload::Lanes => LANES,
        SweepWorkload::Scalar => SCALAR,
    }
}

/// The untraced measurement of a sweep workload.
#[derive(Debug)]
pub struct Measure {
    /// Seconds per set-up: building the sweeps and one warm-up pass (see
    /// [`set_up`]).
    pub setup_s: Vec<f64>,
    /// Seconds per measured pass over every cell.
    pub pass_s: Vec<f64>,
    /// Seconds per cell of every measured pass, by cell.
    pub cell_s: Vec<Vec<f64>>,
    /// Trials per pass.
    pub trials_per_pass: usize,
    /// The first pass's per-cell results.
    pub reference: Vec<Vec<TrialResult>>,
    /// Peak resident set (MiB) after set-up and the first pass. Later
    /// passes repeat the same work; each spawns fresh worker threads, and
    /// the allocator arenas those may claim would make a later reading
    /// vary from run to run.
    pub peak_rss_mib: Option<f64>,
    /// Trials run in later passes.
    pub repeated: u64,
    /// Trials of later passes that differed from the first pass.
    pub nondeterministic: u64,
}

/// Builds the parallel sweeps and warms them up with a pass over the first
/// [`WARM_UP_SHARE`]th of every cell's trials (at least one per worker).
/// The share is large enough that the page faults a fresh allocator arena
/// takes are a small part of the set-up time.
fn set_up(cells: &[Cell], seed: u64, workers: usize) -> Vec<Sweep<'static>> {
    let sweeps = cells.iter().map(|c| c.sweep(seed).parallel(true)).collect();
    for cell in cells {
        let trials = (cell.trials / WARM_UP_SHARE).max(workers).min(cell.trials);
        black_box(cell.sweep(seed).trials(trials).parallel(true).run());
    }
    sweeps
}

/// Sets up [`SETUP_REPS`] times, then runs whole passes over every cell,
/// with `nproc` workers, until `seconds` have passed.
pub fn measure(cells: &[Cell], seed: u64, seconds: f64, workers: usize) -> Measure {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut sweeps = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        sweeps = set_up(cells, seed, workers);
        setup_s.push(start.elapsed().as_secs_f64());
    }

    let mut pass_s = Vec::new();
    let mut cell_s = vec![Vec::new(); cells.len()];
    let mut reference: Option<Vec<Vec<TrialResult>>> = None;
    let mut peak_rss_mib = None;
    let mut repeated = 0;
    let mut nondeterministic = 0;
    let window = Instant::now();
    loop {
        let start = Instant::now();
        let results: Vec<Vec<TrialResult>> = sweeps
            .iter()
            .zip(&mut cell_s)
            .map(|(sweep, times)| {
                let cell_start = Instant::now();
                let results = sweep.run();
                times.push(cell_start.elapsed().as_secs_f64());
                results
            })
            .collect();
        pass_s.push(start.elapsed().as_secs_f64());
        match &reference {
            None => {
                reference = Some(results);
                peak_rss_mib = crate::metrics::peak_rss_mib();
            }
            Some(first) => {
                for (a, b) in first.iter().zip(&results) {
                    repeated += b.len() as u64;
                    nondeterministic += a.iter().zip(b).filter(|(x, y)| x != y).count() as u64;
                }
            }
        }
        if window.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Measure {
        setup_s,
        pass_s,
        cell_s,
        trials_per_pass: cells.iter().map(|c| c.trials).sum(),
        reference: reference.expect("at least one pass ran"),
        peak_rss_mib,
        repeated,
        nondeterministic,
    }
}

/// Checks one pass of results: the pinned statistics (at full scale and
/// [`DEFAULT_SEED`] only), lane results against the scalar tier on a
/// sample, data conservation in every faulted trial that completes, and
/// a verdict on every audited trial.
pub fn gate(
    workload: SweepWorkload,
    cells: &[Cell],
    seed: u64,
    scale: Scale,
    results: &[Vec<TrialResult>],
) -> Gate {
    let mut gate = Gate::default();
    let pins = (scale == Scale::Full && seed == DEFAULT_SEED).then(|| pinned_stats(workload));
    for (index, (cell, results)) in cells.iter().zip(results).enumerate() {
        let label = cell.label();
        let stats = CellStats::of(results);
        if let Some(pins) = pins {
            gate.check(stats == pins[index], || {
                format!(
                    "{label}: statistics {stats:?} differ from the pinned {:?}",
                    pins[index]
                )
            });
        }
        if cell.sweep(seed).path_label() == "lanes" {
            let sample = LANE_SAMPLE.min(cell.trials);
            let scalar = cell
                .sweep(seed)
                .trials(sample)
                .tier(ExecutionTier::Scalar)
                .parallel(true)
                .run();
            for (trial, (lane, scalar)) in results.iter().zip(&scalar).enumerate() {
                gate.check(lane == scalar, || {
                    format!("{label}: trial {trial} differs between the lane and scalar tiers")
                });
            }
        }
        if cell.scenario.faults.is_some() {
            // Whether a faulted trial completes depends on its seed; one
            // that completes without accounting for every datum breaks
            // the fault model.
            for (trial, r) in results.iter().enumerate() {
                gate.check(!r.terminated() || r.data_conserved, || {
                    format!("{label}: faulted trial {trial} completed without conserving its data")
                });
            }
        }
        if cell.scenario.byzantine.is_some() {
            for (trial, r) in results.iter().enumerate() {
                gate.check(r.verdict.is_some(), || {
                    format!("{label}: audited trial {trial} carries no verdict")
                });
            }
        }
    }
    gate
}

/// The traced run of a sweep workload.
#[derive(Debug)]
pub struct Traced {
    /// Index of the replay's root span.
    pub root: usize,
    /// Seconds of the untraced serial `Sweep::run` pass.
    pub serial_s: f64,
    /// Seconds of the untraced parallel `Sweep::run` pass.
    pub parallel_s: f64,
    /// Seconds of the traced replay.
    pub replay_s: f64,
    /// The serial pass's results, checked by [`gate`].
    pub reference: Vec<Vec<TrialResult>>,
    /// Trials replayed.
    pub replayed: u64,
    /// Replayed trials whose results differ from `Sweep::run`'s.
    pub mismatches: Vec<String>,
}

/// Sets up once, times an untraced serial and an untraced parallel pass,
/// then replays every trial layer by layer through the layers' public
/// functions, in a span named after the workload, and checks that the
/// replay reproduces `Sweep::run`'s per-trial results.
pub fn trace(
    workload: SweepWorkload,
    cells: &[Cell],
    seed: u64,
    workers: usize,
    trace: &Trace,
    next_id: &mut u64,
) -> Traced {
    set_up(cells, seed, workers);
    let mut serial_s = 0.0;
    let mut reference = Vec::with_capacity(cells.len());
    for cell in cells {
        let start = Instant::now();
        reference.push(cell.sweep(seed).run());
        serial_s += start.elapsed().as_secs_f64();
    }
    let mut parallel_s = 0.0;
    for cell in cells {
        let start = Instant::now();
        black_box(cell.sweep(seed).parallel(true).run());
        parallel_s += start.elapsed().as_secs_f64();
    }

    let root = trace.borrow().spans().len();
    let start = Instant::now();
    let replayed: Vec<Vec<TrialResult>> = span(Some(trace), workload.name(), 0, || {
        cells
            .iter()
            .zip(&reference)
            .enumerate()
            .map(|(index, (cell, expected))| {
                span(Some(trace), "sweep.cell", index as u64, || {
                    replay_cell(cell, seed, expected, trace, next_id)
                })
            })
            .collect()
    });
    let replay_s = start.elapsed().as_secs_f64();

    let mut mismatches = Vec::new();
    for (cell, (expected, got)) in cells.iter().zip(reference.iter().zip(&replayed)) {
        for (trial, (e, g)) in expected.iter().zip(got).enumerate() {
            if e != g {
                mismatches.push(format!(
                    "{}: the replay of trial {trial} differs from Sweep::run",
                    cell.label()
                ));
            }
        }
    }
    Traced {
        root,
        serial_s,
        parallel_s,
        replay_s,
        replayed: replayed.iter().map(|r| r.len() as u64).sum(),
        reference,
        mismatches,
    }
}

/// Span and counter name of the source layer a scenario streams from.
fn source_layer(scenario: Scenario) -> &'static str {
    match scenario {
        Scenario::Uniform => "workloads.uniform",
        Scenario::Zipf { .. } => "workloads.zipf",
        Scenario::Vehicular => "workloads.vehicular",
        other => panic!("the benchmark replays no {other} cell"),
    }
}

fn take_id(next_id: &mut u64) -> u64 {
    let id = *next_id;
    *next_id += 1;
    id
}

/// Replays one cell's trials on the path `Sweep::run` resolves for it.
fn replay_cell(
    cell: &Cell,
    seed: u64,
    expected: &[TrialResult],
    trace: &Trace,
    next_id: &mut u64,
) -> Vec<TrialResult> {
    match cell.sweep(seed).path_label() {
        "lanes" => replay_lanes(cell, seed, expected, trace, next_id),
        "materialized" => replay_materialized(cell, seed, trace, next_id),
        "streamed" => replay_streamed(cell, seed, expected, trace, next_id),
        path => panic!("the benchmark has no replay of the {path} path"),
    }
}

/// Lane batches of up to [`MAX_LANES`] consecutive trials, as a serial
/// `Sweep::run` groups them: each trial's source is built, its stream
/// generated in timed chunks, and `LaneEngine::run_lanes` steps the
/// batch.
fn replay_lanes(
    cell: &Cell,
    seed: u64,
    expected: &[TrialResult],
    trace: &Trace,
    next_id: &mut u64,
) -> Vec<TrialResult> {
    let algorithm = cell
        .spec
        .lane_algorithm()
        .expect("lane cells have a lane kernel");
    let layer = source_layer(cell.scenario.base);
    let horizon = RandomizedAdversary::default_horizon(cell.n) as u64;
    let seeds = SeedSequence::new(seed);
    let mut lanes = LaneEngine::new();
    let mut results = Vec::with_capacity(expected.len());
    for batch in expected.chunks(MAX_LANES) {
        let first = results.len();
        let batch_id = *next_id;
        let stats = span(Some(trace), "lane.batch", batch_id, || {
            let mut sources: Vec<_> = batch
                .iter()
                .enumerate()
                .map(|(offset, e)| {
                    let id = take_id(next_id);
                    let trial_seed = seeds.seed((first + offset) as u64);
                    let base = span(Some(trace), layer, id, || {
                        cell.scenario.base.source(cell.n, trial_seed)
                    });
                    Prefetch::new(base, e.interactions_processed, layer, id, trace, true)
                })
                .collect();
            span(Some(trace), "lane.run_lanes", batch_id, || {
                lanes.run_lanes(algorithm, &mut sources, NodeId(0), horizon)
            })
        });
        let useful: u64 = stats.iter().map(|s| s.interactions_processed).sum();
        let longest = stats
            .iter()
            .map(|s| s.interactions_processed)
            .max()
            .unwrap_or(0);
        let mut tracer = trace.borrow_mut();
        tracer.count("lane.run_lanes", useful);
        tracer.count("lane.capacity", longest * stats.len() as u64);
        drop(tracer);
        results.extend(stats.into_iter().map(|s| lane_result(cell.spec, s)));
    }
    results
}

/// The `TrialResult` the sweep builds from one retired lane.
fn lane_result(spec: AlgorithmSpec, stats: LaneRunStats) -> TrialResult {
    let terminated = stats.terminated();
    TrialResult {
        algorithm: spec.label().to_string(),
        n: stats.node_count,
        termination_time: stats.termination_time,
        interactions_processed: stats.interactions_processed,
        transmissions: stats.transmissions as usize,
        ignored_decisions: 0,
        data_conserved: terminated,
        completion: if terminated {
            Completion::Aggregated
        } else {
            Completion::Starved
        },
        faults: FaultTally::default(),
        cost: None,
        aggregate: None,
        verdict: None,
    }
}

/// Materialized trials: `Workload::fill` of the whole horizon, the
/// knowledge oracles of `AlgorithmSpec::instantiate`, then `Engine::run`
/// over the filled sequence.
fn replay_materialized(
    cell: &Cell,
    seed: u64,
    trace: &Trace,
    next_id: &mut u64,
) -> Vec<TrialResult> {
    assert!(
        cell.scenario.faults.is_none() && cell.scenario.byzantine.is_none(),
        "the benchmark replays no materialized cell with a fault or Byzantine plan"
    );
    let horizon = RandomizedAdversary::default_horizon(cell.n);
    let workload = cell
        .scenario
        .base
        .workload(cell.n)
        .expect("materialized cells are workload-backed");
    let seeds = SeedSequence::new(seed);
    let mut engine = Engine::<IdSet>::new();
    let mut seq = InteractionSequence::new(cell.n);
    (0..cell.trials)
        .map(|trial| {
            let id = take_id(next_id);
            span(Some(trace), "trial", id, || {
                let trial_seed = seeds.seed(trial as u64);
                span(Some(trace), "workloads.fill", id, || {
                    workload.fill(&mut seq, horizon, trial_seed)
                });
                let mut algorithm = span(Some(trace), "knowledge.instantiate", id, || {
                    cell.spec.instantiate(&seq, NodeId(0))
                })
                .expect("the replayed specs always instantiate");
                let stats = span(Some(trace), "engine.run", id, || {
                    engine.run(
                        algorithm.as_mut(),
                        &mut seq.stream(false),
                        NodeId(0),
                        IdSet::singleton,
                        EngineConfig::sweep(seq.len() as u64),
                        &mut DiscardTransmissions,
                    )
                })
                .expect("the provided algorithms never emit invalid decisions");
                let mut tracer = trace.borrow_mut();
                tracer.count("knowledge.materialized", seq.len() as u64);
                tracer.count("knowledge.processed", stats.interactions_processed);
                tracer.count("engine.run", stats.interactions_processed);
                drop(tracer);
                finish_trial(cell.spec, &engine, stats, None)
            })
        })
        .collect()
}

/// Streamed trials: the scenario's source, generated ahead in timed
/// chunks, feeding `Engine::run` — through `FaultedSource` under a fault
/// plan, or `Engine::run_audited` under a Byzantine plan.
fn replay_streamed(
    cell: &Cell,
    seed: u64,
    expected: &[TrialResult],
    trace: &Trace,
    next_id: &mut u64,
) -> Vec<TrialResult> {
    let layer = source_layer(cell.scenario.base);
    let horizon = RandomizedAdversary::default_horizon(cell.n) as u64;
    let seeds = SeedSequence::new(seed);
    let mut engine = Engine::<IdSet>::new();
    expected
        .iter()
        .enumerate()
        .map(|(trial, e)| {
            let id = take_id(next_id);
            span(Some(trace), "trial", id, || {
                let trial_seed = seeds.seed(trial as u64);
                let base = span(Some(trace), layer, id, || {
                    cell.scenario.base.source(cell.n, trial_seed)
                });
                let mut algorithm = cell
                    .spec
                    .instantiate_online()
                    .expect("streamed cells are knowledge-free");
                let config = EngineConfig::sweep(horizon);
                let limit = e.interactions_processed;
                let mut verdict = None;
                let (name, stats) = match (
                    cell.scenario.fault_injection(trial_seed),
                    cell.scenario.byzantine_injection(trial_seed),
                ) {
                    (fault, None) => {
                        let mut source: Box<dyn InteractionSource + '_> = match fault {
                            None => Box::new(Prefetch::new(base, limit, layer, id, trace, false)),
                            Some(fault) => {
                                // The fault layer pulls the base stream only
                                // on interaction steps.
                                let f = e.faults;
                                let base_pulls = limit - (f.crashes + f.departures + f.arrivals);
                                let inner =
                                    Prefetch::new(base, base_pulls, layer, id, trace, false);
                                let faulted = FaultedSource::new(inner, fault.profile, fault.seed)
                                    .expect("the cell's fault plan is valid");
                                Box::new(Prefetch::new(
                                    faulted,
                                    limit,
                                    "fault.source",
                                    id,
                                    trace,
                                    false,
                                ))
                            }
                        };
                        let stats = span(Some(trace), "engine.run", id, || {
                            engine.run(
                                algorithm.as_mut(),
                                &mut source,
                                NodeId(0),
                                IdSet::singleton,
                                config,
                                &mut DiscardTransmissions,
                            )
                        });
                        ("engine.run", stats)
                    }
                    (None, Some(byzantine)) => {
                        let mut injector = ByzantineInjector::new(
                            byzantine.profile,
                            cell.n,
                            NodeId(0),
                            byzantine.seed,
                        )
                        .expect("the cell's Byzantine plan is valid");
                        let mut tally = Tally::new();
                        let mut source = Prefetch::new(base, limit, layer, id, trace, false);
                        let stats = span(Some(trace), "engine.run_audited", id, || {
                            engine.run_audited(
                                algorithm.as_mut(),
                                &mut source,
                                NodeId(0),
                                IdSet::singleton,
                                config,
                                &mut DiscardTransmissions,
                                &mut injector,
                                &mut tally,
                            )
                        });
                        verdict = Some(tally.verdict::<IdSet>());
                        ("engine.run_audited", stats)
                    }
                    (Some(_), Some(_)) => {
                        panic!("the benchmark replays no cell with both fault and Byzantine plans")
                    }
                };
                let stats: RunStats =
                    stats.expect("the provided algorithms never emit invalid decisions");
                let f = stats.faults;
                let mut tracer = trace.borrow_mut();
                tracer.count(name, stats.interactions_processed);
                tracer.count(
                    "fault.events",
                    f.crashes + f.departures + f.arrivals + f.lost_interactions,
                );
                drop(tracer);
                let mut result = finish_trial(cell.spec, &engine, stats, None);
                result.verdict = verdict;
                result
            })
        })
        .collect()
}
