//! The machine-readable perf harness behind the `doda-bench` binary.
//!
//! A [`PerfGrid`] pins a grid of (algorithm × scenario × n) cells over the
//! unified [`Scenario`] registry — synthetic workloads *and* the
//! oblivious/adaptive adversaries; running it executes every cell through
//! the sharded [`Sweep`] builder and produces a [`PerfReport`] that
//! serialises to `BENCH_<grid>.json`. Each cell records its execution
//! `mode` — the tier [`doda_sim::ExecutionTier::Auto`] resolved for it
//! ([`Sweep::path_label`]): `"lanes"` for knowledge-free fault-free honest
//! cells (up to 64 trials stepped in lockstep through bit-lane state),
//! `"streamed"` for the remaining knowledge-free cells (the engine pulls
//! interactions straight from the source, `O(n)` memory at any horizon)
//! and `"materialized"` for algorithms whose oracles force sequence
//! generation. Round scenarios resolve like any other stream: their
//! flattened round schedule runs on whichever tier the cell resolves to,
//! and only the `model` column says that it came in rounds. Every PR
//! extends the perf trajectory by re-running a grid and comparing the
//! emitted file against the committed baseline; CI runs the `smoke` grid
//! on every push and schema-checks the artifact with [`validate_report`].

use std::time::Instant;

use doda_core::fault::FaultProfile;
use doda_sim::runner::BatchConfig;
use doda_sim::{AlgorithmSpec, ExecutionTier, FaultedScenario, Scenario, Sweep};
use doda_stats::Summary;

use crate::json::{pretty, Json};

/// Version of the `BENCH_*.json` schema emitted by [`PerfReport::to_json`].
///
/// Version history: 1 = workload-only grids; 2 = unified scenario grids
/// with the per-cell `"mode"` (`"streamed" | "materialized"`) field;
/// 3 = fault-model grids with the per-cell `"fault_profile"` column and
/// the `"aggregated"` / `"aggregated_survivors"` completion split
/// (`completed = aggregated + aggregated_survivors`); 4 = round-model
/// grids with the per-cell `"model"` (`"pairwise" | "rounds"`) column;
/// 5 = execution-tier grids: `"mode"` now names the tier the sweep
/// actually ran (`"streamed" | "materialized" | "lanes" | "rounds"`), so
/// knowledge-free fault-free pairwise cells report `"lanes"` and round
/// cells report `"rounds"` instead of overloading `"streamed"`;
/// 6 = scale grids: explicitly pinned large-n [`ScaleCell`]s join the
/// cross product, every cell carries `"peak_mem_bytes"` (the process
/// heap high-water growth while the cell ran; 0 when no tracking
/// allocator is installed), the envelope declares the full node-count
/// grid under `"ns"` (validation rejects cells at undeclared `n`), and
/// `"mode"` admits `"hierarchical"` (seeded aggregator election,
/// per-cluster aggregation, then an aggregator-only final phase);
/// 7 = byzantine grids: every cell carries the `"byzantine_profile"`
/// column (the scenario's Byzantine plan label, `"none"` when honest) —
/// byzantine cells run the audited streamed path, so the lane and
/// hierarchical tiers are byzantine-free by contract (validation rejects
/// cells claiming otherwise). Within v7, `"mode"` no longer admits
/// `"rounds"` since round scenarios lost their tier of their own: their
/// cells report the tier they resolve to, and lane cells may carry the
/// rounds model.
pub const SCHEMA_VERSION: u64 = 7;

/// A pinned perf grid: the cells plus the execution parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfGrid {
    /// Grid label; the emitted file is `BENCH_<name>.json`.
    pub name: String,
    /// Node counts of the grid.
    pub ns: Vec<usize>,
    /// Trials per cell.
    pub trials: usize,
    /// Root seed; each cell derives an independent sub-seed.
    pub seed: u64,
    /// Algorithms of the grid.
    pub algorithms: Vec<AlgorithmSpec>,
    /// Scenarios of the grid: workloads and adversaries alike, each
    /// optionally carrying a fault plan (plain [`Scenario`]s convert via
    /// `.into()`).
    pub scenarios: Vec<FaultedScenario>,
    /// Whether cells run their trials through the sharded parallel runner.
    pub parallel: bool,
    /// Explicitly pinned large-n cells run in addition to the cross
    /// product. Million-node cells cannot inherit the unbounded-horizon
    /// defaults of the small-n grid, so each pins its own interaction
    /// budget, execution tier and trial count.
    pub scale_cells: Vec<ScaleCell>,
}

/// One explicitly pinned large-n grid cell (see [`PerfGrid::scale_cells`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleCell {
    /// Algorithm of the cell.
    pub spec: AlgorithmSpec,
    /// Scenario of the cell (fault-free: the scale regime tracks the
    /// engine's O(n) claims, not the fault layer's).
    pub scenario: Scenario,
    /// Node count.
    pub n: usize,
    /// Interaction budget per trial — flat aggregation at these node
    /// counts needs `Θ(n²)` interactions, so large-n flat cells are
    /// throughput/memory cells that deliberately starve at the budget.
    pub horizon: usize,
    /// Execution tier the cell pins (the cross-product cells always use
    /// [`ExecutionTier::Auto`]; the hierarchical tier is never
    /// auto-selected, so its cells must pin it here).
    pub tier: ExecutionTier,
    /// Trials for the cell.
    pub trials: usize,
}

impl PerfGrid {
    /// The tiny grid CI runs on every push (`doda-bench --smoke`).
    pub fn smoke() -> PerfGrid {
        PerfGrid {
            name: "smoke".to_string(),
            ns: vec![8, 16],
            trials: 3,
            seed: 0xD0DA,
            algorithms: vec![AlgorithmSpec::Gathering, AlgorithmSpec::Waiting],
            scenarios: vec![
                Scenario::Uniform.into(),
                Scenario::Zipf { exponent: 1.2 }.into(),
                Scenario::AdaptiveIsolator.into(),
                Scenario::Uniform.with_faults(FaultProfile::crash(0.002)),
                Scenario::RandomMatching.into(),
            ],
            parallel: true,
            scale_cells: vec![ScaleCell {
                spec: AlgorithmSpec::Gathering,
                scenario: Scenario::Uniform,
                n: 2_048,
                horizon: 2_000_000,
                tier: ExecutionTier::Hierarchical,
                trials: 1,
            }],
        }
    }

    /// The committed perf-trajectory grid (`doda-bench --baseline`):
    /// online algorithms × {uniform, zipf, vehicular, oblivious-trap,
    /// adaptive-isolator, uniform+crash, vehicular+churn, random-matching,
    /// tournament, round-isolator} × n ∈ {32, 128, 512}. Adaptive cells
    /// are skipped for algorithms that require materialisation.
    pub fn baseline() -> PerfGrid {
        PerfGrid {
            name: "baseline".to_string(),
            ns: vec![32, 128, 512],
            trials: 4,
            seed: 0xD0DA,
            algorithms: vec![
                AlgorithmSpec::Gathering,
                AlgorithmSpec::Waiting,
                AlgorithmSpec::WaitingGreedy { tau: None },
            ],
            scenarios: vec![
                Scenario::Uniform.into(),
                Scenario::Zipf { exponent: 1.2 }.into(),
                Scenario::Vehicular.into(),
                Scenario::ObliviousTrap.into(),
                Scenario::AdaptiveIsolator.into(),
                Scenario::Uniform.with_faults(FaultProfile::crash(0.002)),
                Scenario::Vehicular.with_faults(FaultProfile::churn(0.002, 0.004)),
                Scenario::RandomMatching.into(),
                Scenario::Tournament.into(),
                Scenario::RoundIsolator.into(),
            ],
            parallel: true,
            scale_cells: vec![
                // Flat pairwise at n = 10^5: a budgeted throughput/memory
                // cell (flat completion needs Θ(n²) interactions).
                ScaleCell {
                    spec: AlgorithmSpec::Gathering,
                    scenario: Scenario::Uniform,
                    n: 100_000,
                    horizon: 2_000_000,
                    tier: ExecutionTier::Auto,
                    trials: 1,
                },
                // CSR-backed round matchings at n = 10^5: the O(n)-per-round
                // torus contact process, equally budgeted.
                ScaleCell {
                    spec: AlgorithmSpec::Gathering,
                    scenario: Scenario::TorusContact,
                    n: 100_000,
                    horizon: 2_000_000,
                    tier: ExecutionTier::Auto,
                    trials: 1,
                },
                // Hierarchical at n = 10^4: O(n^{3/2}) interactions make
                // completion feasible where flat aggregation starves.
                ScaleCell {
                    spec: AlgorithmSpec::Gathering,
                    scenario: Scenario::Uniform,
                    n: 10_000,
                    horizon: 8_000_000,
                    tier: ExecutionTier::Hierarchical,
                    trials: 1,
                },
            ],
        }
    }

    /// The number of runnable cells (incompatible algorithm × adaptive
    /// scenario combinations are skipped).
    pub fn cell_count(&self) -> usize {
        self.scenarios
            .iter()
            .map(|scenario| {
                self.algorithms
                    .iter()
                    .filter(|spec| scenario.supports(**spec))
                    .count()
            })
            .sum::<usize>()
            * self.ns.len()
            + self.scale_cells.len()
    }

    /// The full declared node-count grid: the cross-product `ns` plus the
    /// scale-cell node counts, sorted and deduplicated. This is what the
    /// emitted report declares under `"ns"`, and validation rejects any
    /// cell whose `n` falls outside it.
    pub fn declared_ns(&self) -> Vec<usize> {
        let mut ns = self.ns.clone();
        ns.extend(self.scale_cells.iter().map(|cell| cell.n));
        ns.sort_unstable();
        ns.dedup();
        ns
    }
}

/// The measurements of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Algorithm label.
    pub algorithm: String,
    /// Scenario label (kept under the `workload` key in the JSON for
    /// trajectory continuity).
    pub workload: String,
    /// The fault plan label of the cell's scenario (`"none"` when
    /// fault-free).
    pub fault_profile: String,
    /// The Byzantine plan label of the cell's scenario (`"none"` when
    /// every node is honest). Byzantine cells run the audited streamed
    /// path and never the lane or hierarchical tiers.
    pub byzantine_profile: String,
    /// The execution tier the sweep resolved for the cell
    /// ([`Sweep::path_label`]): `"lanes"` (lockstep bit-lane batches),
    /// `"streamed"` (scalar pull loop, `O(n)` memory), `"materialized"`
    /// (oracle construction forced sequence generation) or
    /// `"hierarchical"` (clustered two-phase aggregation, pinned by a
    /// [`ScaleCell`] — never auto-selected).
    pub mode: &'static str,
    /// Interaction model of the cell's scenario: `"pairwise"` (one
    /// interaction per step, the paper's adversary) or `"rounds"` (one
    /// matching of disjoint interactions per synchronous round, played as
    /// a flattened stream on whichever tier `mode` names).
    pub model: &'static str,
    /// Node count.
    pub n: usize,
    /// Trials run.
    pub trials: usize,
    /// Trials that completed the aggregation within the horizon
    /// (`aggregated + aggregated_survivors`).
    pub completed: usize,
    /// Trials in which the sink aggregated every datum introduced.
    pub aggregated: usize,
    /// Trials that terminated over the survivors only (some data lost to
    /// faults first); always 0 for fault-free cells.
    pub aggregated_survivors: usize,
    /// `completed / trials`.
    pub completion_rate: f64,
    /// Mean interactions to completion over completed trials (`None` when
    /// no trial completed).
    pub mean_interactions: Option<f64>,
    /// Total interactions processed by the engine across all trials —
    /// the work units behind the throughput figure.
    pub total_interactions: u64,
    /// Wall-clock spent on the cell (trial execution plus stream/sequence
    /// generation), in seconds.
    pub elapsed_secs: f64,
    /// Engine throughput: `total_interactions / elapsed_secs`.
    pub throughput_ips: f64,
    /// Growth of the process heap high-water mark while the cell ran, in
    /// bytes — 0 when no tracking allocator is installed (library tests);
    /// the `doda-bench` binary always installs one (see
    /// [`crate::memory`]).
    pub peak_mem_bytes: u64,
}

/// A full perf report, serialisable to `BENCH_<grid>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Grid label (the `scenario` key of the JSON envelope, predating the
    /// unified scenario registry).
    pub scenario: String,
    /// `git rev-parse --short=12 HEAD` at measurement time, or `"unknown"`.
    pub git_rev: String,
    /// The grid's root seed.
    pub seed: u64,
    /// The declared node-count grid (see [`PerfGrid::declared_ns`]): a
    /// cell at an `n` outside this list fails validation.
    pub ns: Vec<usize>,
    /// Wall-clock of the whole grid, in seconds.
    pub wall_clock_secs: f64,
    /// One record per runnable grid cell.
    pub results: Vec<CellResult>,
}

impl PerfReport {
    /// The canonical file name, `BENCH_<grid>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.scenario)
    }

    /// Serialises the report (pretty-printed, schema-versioned).
    pub fn to_json(&self) -> String {
        let results = self
            .results
            .iter()
            .map(|cell| {
                Json::Object(vec![
                    ("algorithm".to_string(), Json::str(&cell.algorithm)),
                    ("workload".to_string(), Json::str(&cell.workload)),
                    ("fault_profile".to_string(), Json::str(&cell.fault_profile)),
                    (
                        "byzantine_profile".to_string(),
                        Json::str(&cell.byzantine_profile),
                    ),
                    ("mode".to_string(), Json::str(cell.mode)),
                    ("model".to_string(), Json::str(cell.model)),
                    ("n".to_string(), Json::Uint(cell.n as u64)),
                    ("trials".to_string(), Json::Uint(cell.trials as u64)),
                    ("completed".to_string(), Json::Uint(cell.completed as u64)),
                    ("aggregated".to_string(), Json::Uint(cell.aggregated as u64)),
                    (
                        "aggregated_survivors".to_string(),
                        Json::Uint(cell.aggregated_survivors as u64),
                    ),
                    (
                        "completion_rate".to_string(),
                        Json::Num(cell.completion_rate),
                    ),
                    (
                        "mean_interactions".to_string(),
                        cell.mean_interactions.map_or(Json::Null, Json::Num),
                    ),
                    (
                        "total_interactions".to_string(),
                        Json::Uint(cell.total_interactions),
                    ),
                    ("elapsed_secs".to_string(), Json::Num(cell.elapsed_secs)),
                    ("throughput_ips".to_string(), Json::Num(cell.throughput_ips)),
                    (
                        "peak_mem_bytes".to_string(),
                        Json::Uint(cell.peak_mem_bytes),
                    ),
                ])
            })
            .collect();
        let doc = Json::Object(vec![
            ("schema_version".to_string(), Json::Uint(SCHEMA_VERSION)),
            ("scenario".to_string(), Json::str(&self.scenario)),
            ("git_rev".to_string(), Json::str(&self.git_rev)),
            ("seed".to_string(), Json::Uint(self.seed)),
            (
                "ns".to_string(),
                Json::Array(self.ns.iter().map(|&n| Json::Uint(n as u64)).collect()),
            ),
            (
                "wall_clock_secs".to_string(),
                Json::Num(self.wall_clock_secs),
            ),
            ("results".to_string(), Json::Array(results)),
        ]);
        pretty(&doc)
    }
}

/// Runs every runnable cell of `grid` and collects the perf report.
pub fn run_grid(grid: &PerfGrid) -> PerfReport {
    let started = Instant::now();
    let mut results = Vec::new();
    let mut cell_index = 0u64;
    for scenario in &grid.scenarios {
        for &n in &grid.ns {
            for &spec in &grid.algorithms {
                if !scenario.supports(spec) {
                    // Adaptive streams cannot feed materialising oracles;
                    // the cell is skipped rather than faked.
                    continue;
                }
                let shape = CellShape {
                    spec,
                    scenario: *scenario,
                    n,
                    trials: grid.trials,
                    horizon: None,
                    tier: ExecutionTier::Auto,
                };
                results.push(run_cell(grid, shape, cell_index));
                cell_index += 1;
            }
        }
    }
    for cell in &grid.scale_cells {
        let shape = CellShape {
            spec: cell.spec,
            scenario: cell.scenario.into(),
            n: cell.n,
            trials: cell.trials,
            horizon: Some(cell.horizon),
            tier: cell.tier,
        };
        results.push(run_cell(grid, shape, cell_index));
        cell_index += 1;
    }
    PerfReport {
        scenario: grid.name.clone(),
        git_rev: git_rev(),
        seed: grid.seed,
        ns: grid.declared_ns(),
        wall_clock_secs: started.elapsed().as_secs_f64(),
        results,
    }
}

/// The resolved execution shape of one cell — the cross-product cells
/// and the pinned [`ScaleCell`]s flow through the same measurement path.
struct CellShape {
    spec: AlgorithmSpec,
    scenario: FaultedScenario,
    n: usize,
    trials: usize,
    horizon: Option<usize>,
    tier: ExecutionTier,
}

fn run_cell(grid: &PerfGrid, shape: CellShape, cell_index: u64) -> CellResult {
    let CellShape {
        spec,
        scenario,
        n,
        trials,
        horizon,
        tier,
    } = shape;
    let config = BatchConfig {
        n,
        trials,
        horizon,
        seed: doda_stats::rng::SeedSequence::new(grid.seed)
            .child(cell_index)
            .seed(0),
        parallel: grid.parallel,
    };
    let sweep = Sweep::scenario(spec, scenario).config(&config).tier(tier);
    let mode = sweep.path_label();
    // Bracket the cell's heap growth when a tracking allocator is
    // installed; without one the counters never move and the column
    // degrades to 0 instead of lying.
    let mem_floor = crate::memory::tracking().then(crate::memory::reset_peak);
    let cell_start = Instant::now();
    let raw = sweep.run();
    let mut elapsed_secs = cell_start.elapsed().as_secs_f64();
    // One wall-clock sample on a shared runner can be dominated by a
    // scheduling spike, so every cell is timed at least twice (best-of,
    // identical deterministic results), and fast cells — which finish
    // well under the noise floor — keep re-timing until enough wall
    // clock has accumulated to trust the minimum.
    let mut spent = elapsed_secs;
    let mut reps = 1;
    while (reps < 2 || spent < 0.25) && elapsed_secs > 0.0 {
        let rep_start = Instant::now();
        let rerun = sweep.run();
        let rep_secs = rep_start.elapsed().as_secs_f64();
        assert_eq!(
            rerun, raw,
            "a re-timed cell must reproduce byte-identically"
        );
        elapsed_secs = elapsed_secs.min(rep_secs);
        spent += rep_secs;
        reps += 1;
    }
    let peak_mem_bytes = mem_floor
        .map(|floor| crate::memory::peak_bytes().saturating_sub(floor) as u64)
        .unwrap_or(0);
    let completions: Vec<f64> = raw
        .iter()
        .filter_map(|r| r.interactions_to_completion())
        .collect();
    let aggregated = raw.iter().filter(|r| r.fully_aggregated()).count();
    let total_interactions: u64 = raw.iter().map(|r| r.interactions_processed).sum();
    CellResult {
        algorithm: spec.label().to_string(),
        workload: scenario.base.name().to_string(),
        fault_profile: scenario.fault_label(),
        byzantine_profile: scenario.byzantine_label(),
        mode,
        model: if scenario.is_round() {
            "rounds"
        } else {
            "pairwise"
        },
        n,
        trials: raw.len(),
        completed: completions.len(),
        aggregated,
        aggregated_survivors: completions.len() - aggregated,
        completion_rate: completions.len() as f64 / raw.len().max(1) as f64,
        mean_interactions: Summary::from_values(&completions).map(|s| s.mean),
        total_interactions,
        elapsed_secs,
        throughput_ips: total_interactions as f64 / elapsed_secs.max(1e-9),
        peak_mem_bytes,
    }
}

/// The current short git revision, or `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The identity of a grid cell, as rendered in validation and comparison
/// messages: the index plus whatever identifying columns are readable, so
/// a failure names the offending cell instead of forcing a by-hand bisect
/// of the JSON.
pub(crate) fn cell_identity(i: usize, cell: &Json) -> String {
    let mut parts = Vec::new();
    for field in [
        "algorithm",
        "workload",
        "fault_profile",
        "byzantine_profile",
        "n",
    ] {
        if let Some(value) = cell.get(field) {
            let rendered = match value {
                Json::Str(s) => s.clone(),
                other => other.to_string(),
            };
            // Skip the noise columns when they carry no information.
            if field.ends_with("_profile") && rendered == "none" {
                continue;
            }
            parts.push(format!("{field}={rendered}"));
        }
    }
    if parts.is_empty() {
        format!("results[{i}]")
    } else {
        format!("results[{i}] ({})", parts.join(", "))
    }
}

/// Schema-checks a parsed `BENCH_*.json` document.
///
/// # Errors
///
/// Returns a description of the first violation — missing or mistyped
/// field, wrong schema version, empty results, invalid mode or model, an
/// out-of-range rate, or a completion split that does not add up
/// (`aggregated + aggregated_survivors != completed`) — naming the
/// offending cell by its identifying columns (algorithm, workload, fault
/// profile, n), not just its index.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing numeric field: schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
        ));
    }
    for field in ["scenario", "git_rev"] {
        doc.get(field)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field: {field}"))?;
    }
    for field in ["seed", "wall_clock_secs"] {
        doc.get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field: {field}"))?;
    }
    let declared_ns: Vec<f64> = doc
        .get("ns")
        .and_then(Json::as_array)
        .ok_or("missing array field: ns")?
        .iter()
        .map(|n| n.as_f64().ok_or("ns entries must be numeric"))
        .collect::<Result<_, _>>()?;
    if declared_ns.is_empty() {
        return Err("the declared node-count grid 'ns' must not be empty".to_string());
    }
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or("missing array field: results")?;
    if results.is_empty() {
        return Err("results must not be empty".to_string());
    }
    for (i, cell) in results.iter().enumerate() {
        let who = || cell_identity(i, cell);
        for field in [
            "algorithm",
            "workload",
            "fault_profile",
            "byzantine_profile",
            "mode",
            "model",
        ] {
            cell.get(field)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: missing string field: {field}", who()))?;
        }
        let mode = cell.get("mode").and_then(Json::as_str).expect("checked");
        if !["streamed", "materialized", "lanes", "hierarchical"].contains(&mode) {
            return Err(format!(
                "{}: mode '{mode}' must be 'streamed', 'materialized', 'lanes' or \
                 'hierarchical'",
                who()
            ));
        }
        let model = cell.get("model").and_then(Json::as_str).expect("checked");
        if model != "pairwise" && model != "rounds" {
            return Err(format!(
                "{}: model '{model}' must be 'pairwise' or 'rounds'",
                who()
            ));
        }
        let fault_label = cell
            .get("fault_profile")
            .and_then(Json::as_str)
            .expect("checked");
        let byzantine_label = cell
            .get("byzantine_profile")
            .and_then(Json::as_str)
            .expect("checked");
        // The lane tier is fault-free by contract. A cell claiming
        // otherwise was not produced by the sweep's tier resolution.
        if mode == "lanes" && fault_label != "none" {
            return Err(format!("{}: a lane cell must be fault-free", who()));
        }
        // The hierarchical tier re-instantiates the scenario family at
        // cluster size and is fault-free by contract; only pairwise
        // fault-free cells can have run on it.
        if mode == "hierarchical" && (fault_label != "none" || model != "pairwise") {
            return Err(format!(
                "{}: a hierarchical cell must be fault-free and pairwise",
                who()
            ));
        }
        // Byzantine plans run on the audited scalar paths only: a cell
        // claiming a fast tier *and* a Byzantine plan was not produced by
        // the sweep's tier resolution.
        if byzantine_label != "none" && ["lanes", "hierarchical"].contains(&mode) {
            return Err(format!(
                "{}: a byzantine cell cannot run on the {mode} tier (honest by contract)",
                who()
            ));
        }
        for field in [
            "n",
            "trials",
            "completed",
            "aggregated",
            "aggregated_survivors",
            "completion_rate",
            "total_interactions",
            "elapsed_secs",
            "throughput_ips",
            "peak_mem_bytes",
        ] {
            cell.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: missing numeric field: {field}", who()))?;
        }
        let numeric = |field: &str| cell.get(field).and_then(Json::as_f64).expect("checked");
        if !declared_ns.contains(&numeric("n")) {
            return Err(format!(
                "{}: n={} is not in the declared node-count grid",
                who(),
                numeric("n")
            ));
        }
        if numeric("aggregated") + numeric("aggregated_survivors") != numeric("completed") {
            return Err(format!(
                "{}: aggregated + aggregated_survivors must equal completed",
                who()
            ));
        }
        let fault_profile = cell
            .get("fault_profile")
            .and_then(Json::as_str)
            .expect("checked");
        if fault_profile == "none" && numeric("aggregated_survivors") != 0.0 {
            return Err(format!(
                "{}: a fault-free cell cannot report survivor-only completions",
                who()
            ));
        }
        let mean = cell
            .get("mean_interactions")
            .ok_or_else(|| format!("{}: missing field: mean_interactions", who()))?;
        if !mean.is_null() && mean.as_f64().is_none() {
            return Err(format!(
                "{}: mean_interactions must be a number or null",
                who()
            ));
        }
        let rate = cell
            .get("completion_rate")
            .and_then(Json::as_f64)
            .expect("checked above");
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("{}: completion_rate {rate} outside [0, 1]", who()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_emits_a_valid_schema() {
        let report = run_grid(&PerfGrid::smoke());
        assert_eq!(report.file_name(), "BENCH_smoke.json");
        // 2 algorithms x 5 scenarios x 2 node counts, all compatible (both
        // smoke algorithms are knowledge-free), plus one pinned
        // hierarchical scale cell.
        assert_eq!(report.results.len(), PerfGrid::smoke().cell_count());
        assert_eq!(report.results.len(), 2 * 5 * 2 + 1);
        let doc = Json::parse(&report.to_json()).expect("emitted JSON parses");
        validate_report(&doc).expect("emitted JSON passes the schema check");
        // The mode column names the resolved execution tier: fault-free
        // cells of the lane-kernel algorithms run on lanes, round scenarios
        // included, faulted cells fall back to the scalar streamed
        // reference, and the pinned scale cell reports the hierarchical
        // tier it requested.
        for cell in &report.results {
            let expected = if cell.n == 2_048 {
                "hierarchical"
            } else if cell.fault_profile != "none" {
                "streamed"
            } else {
                "lanes"
            };
            assert_eq!(
                cell.mode, expected,
                "{} x {}",
                cell.algorithm, cell.workload
            );
        }
        // The hierarchical scale cell genuinely completes: clustered
        // aggregation needs O(n^{3/2}) interactions, well inside its
        // budget at n = 2048.
        let scale = report.results.last().expect("scale cell present");
        assert_eq!(scale.mode, "hierarchical");
        assert_eq!(scale.completion_rate, 1.0);
        // The declared grid covers the cross product and the scale cell.
        assert_eq!(report.ns, vec![8, 16, 2_048]);
        // The fault axis is present: fault-free cells say "none", the
        // faulted cells carry the plan label and a consistent split.
        assert!(report
            .results
            .iter()
            .any(|c| c.fault_profile == "crash(0.002)"));
        // The round axis is present, and only round scenarios carry it.
        assert!(report
            .results
            .iter()
            .any(|c| c.model == "rounds" && c.workload == "random-matching"));
        for cell in &report.results {
            assert_eq!(cell.completed, cell.aggregated + cell.aggregated_survivors);
            if cell.fault_profile == "none" {
                assert_eq!(cell.aggregated_survivors, 0);
            }
            assert_eq!(cell.model == "rounds", cell.workload == "random-matching");
        }
    }

    #[test]
    fn smoke_grid_is_deterministic_in_its_measurements() {
        // Wall-clock fields vary run to run; the measured simulation
        // quantities must not.
        let a = run_grid(&PerfGrid::smoke());
        let b = run_grid(&PerfGrid::smoke());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.algorithm, y.algorithm);
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.mode, y.mode);
            assert_eq!(x.n, y.n);
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.mean_interactions, y.mean_interactions);
            assert_eq!(x.total_interactions, y.total_interactions);
        }
    }

    #[test]
    fn baseline_grid_skips_adaptive_cells_for_materializing_specs() {
        let grid = PerfGrid::baseline();
        // 3 algorithms x 10 scenarios x 3 node counts, minus the
        // WaitingGreedy x adaptive-isolator column (3 cells), plus the
        // three pinned scale cells. The round scenarios are non-adaptive,
        // so they admit every algorithm.
        assert_eq!(grid.cell_count(), 3 * 10 * 3 - 3 + 3);
        assert_eq!(grid.declared_ns(), vec![32, 128, 512, 10_000, 100_000]);
    }

    #[test]
    fn adaptive_cells_run_and_report_modes() {
        let report = run_grid(&PerfGrid {
            name: "adaptive-mini".to_string(),
            ns: vec![8],
            trials: 2,
            seed: 1,
            algorithms: vec![
                AlgorithmSpec::Gathering,
                AlgorithmSpec::WaitingGreedy { tau: None },
            ],
            scenarios: vec![Scenario::Uniform.into(), Scenario::AdaptiveIsolator.into()],
            parallel: false,
            scale_cells: Vec::new(),
        });
        // uniform admits both; adaptive-isolator only Gathering.
        assert_eq!(report.results.len(), 3);
        let modes: Vec<(&str, &str)> = report
            .results
            .iter()
            .map(|c| (c.workload.as_str(), c.mode))
            .collect();
        assert!(modes.contains(&("uniform", "lanes")));
        assert!(modes.contains(&("uniform", "materialized")));
        // Adaptive adversaries run on lanes too: the lane engine maintains
        // per-lane ownership views identical to the scalar engine's.
        assert!(modes.contains(&("adaptive-isolator", "lanes")));
        // The adaptive cell completes under Gathering (the isolator's
        // release rule) — adaptive adversaries are genuinely sweepable.
        let adaptive = report
            .results
            .iter()
            .find(|c| c.workload == "adaptive-isolator")
            .unwrap();
        assert_eq!(adaptive.completion_rate, 1.0);
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let good = run_grid(&PerfGrid {
            trials: 2,
            ns: vec![8],
            algorithms: vec![AlgorithmSpec::Gathering],
            scenarios: vec![Scenario::Uniform.into()],
            scale_cells: Vec::new(),
            ..PerfGrid::smoke()
        })
        .to_json();
        let doc = Json::parse(&good).unwrap();
        validate_report(&doc).unwrap();

        for (breaker, expected) in [
            (r#"{"schema_version": 7}"#, "missing string field: scenario"),
            (r#"{"schema_version": 9}"#, "unsupported schema_version"),
            (r#"{"schema_version": 6}"#, "unsupported schema_version"),
            (r#"{}"#, "missing numeric field: schema_version"),
        ] {
            let err = validate_report(&Json::parse(breaker).unwrap()).unwrap_err();
            assert!(err.contains(expected), "{err} !~ {expected}");
        }
        // Empty results array is rejected.
        let Json::Object(mut fields) = Json::parse(&good).unwrap() else {
            unreachable!("reports are objects");
        };
        for (key, value) in &mut fields {
            if key == "results" {
                *value = Json::Array(Vec::new());
            }
        }
        let err = validate_report(&Json::Object(fields)).unwrap_err();
        assert!(err.contains("results must not be empty"), "{err}");
        // A bogus mode is rejected. The tiny Gathering x uniform grid runs
        // its cell on the lane tier.
        let bad_mode = good.replace("\"lanes\"", "\"telepathic\"");
        assert_ne!(bad_mode, good, "fixture must contain a lane cell");
        let err = validate_report(&Json::parse(&bad_mode).unwrap()).unwrap_err();
        assert!(
            err.contains("must be 'streamed', 'materialized', 'lanes' or 'hierarchical'"),
            "{err}"
        );
        // A cell at a node count the envelope never declared is rejected
        // (the cell key is "n"; the declared grid array is "ns").
        let off_grid = good.replace("\"n\": 8", "\"n\": 9");
        assert_ne!(off_grid, good, "fixture must contain the field");
        let err = validate_report(&Json::parse(&off_grid).unwrap()).unwrap_err();
        assert!(err.contains("not in the declared node-count grid"), "{err}");
        // A hierarchical cell claiming a fault plan or the rounds model
        // contradicts the hierarchical tier's contract.
        let faulted_hier = good.replace("\"lanes\"", "\"hierarchical\"").replace(
            "\"fault_profile\": \"none\"",
            "\"fault_profile\": \"crash(0.1)\"",
        );
        let err = validate_report(&Json::parse(&faulted_hier).unwrap()).unwrap_err();
        assert!(
            err.contains("hierarchical cell must be fault-free"),
            "{err}"
        );
        // A lane cell claiming a fault plan contradicts the lane tier's
        // fault-free contract.
        let faulted_lane = good.replace(
            "\"fault_profile\": \"none\"",
            "\"fault_profile\": \"crash(0.1)\"",
        );
        assert_ne!(faulted_lane, good, "fixture must contain the field");
        let err = validate_report(&Json::parse(&faulted_lane).unwrap()).unwrap_err();
        assert!(err.contains("lane cell must be fault-free"), "{err}");
        // Round scenarios have no tier of their own, so "rounds" is no
        // mode; it names an interaction model only.
        let rounds_mode = good.replace("\"lanes\"", "\"rounds\"");
        let err = validate_report(&Json::parse(&rounds_mode).unwrap()).unwrap_err();
        assert!(err.contains("mode 'rounds' must be"), "{err}");
        // A completion split that does not add up is rejected. The tiny
        // grid completes every trial, so "completed": 2 pairs with
        // "aggregated": 2; corrupting the latter breaks the identity.
        let bad_split = good.replace("\"aggregated\": 2", "\"aggregated\": 1");
        assert_ne!(bad_split, good, "fixture must contain the field");
        let err = validate_report(&Json::parse(&bad_split).unwrap()).unwrap_err();
        assert!(err.contains("must equal completed"), "{err}");
        // A fault-free cell claiming survivor completions is rejected.
        let bad_survivors = good
            .replace("\"aggregated\": 2", "\"aggregated\": 1")
            .replace("\"aggregated_survivors\": 0", "\"aggregated_survivors\": 1");
        let err = validate_report(&Json::parse(&bad_survivors).unwrap()).unwrap_err();
        assert!(err.contains("fault-free cell"), "{err}");
        // A bogus interaction model is rejected.
        let bad_model = good.replace("\"pairwise\"", "\"telepathic\"");
        let err = validate_report(&Json::parse(&bad_model).unwrap()).unwrap_err();
        assert!(err.contains("must be 'pairwise' or 'rounds'"), "{err}");
        // A Byzantine cell claiming an honest-by-contract tier is rejected.
        let byzantine_lane = good.replace(
            "\"byzantine_profile\": \"none\"",
            "\"byzantine_profile\": \"forge(0.1)\"",
        );
        assert_ne!(byzantine_lane, good, "fixture must contain the field");
        let err = validate_report(&Json::parse(&byzantine_lane).unwrap()).unwrap_err();
        assert!(
            err.contains("byzantine cell cannot run on the lanes tier"),
            "{err}"
        );
    }

    #[test]
    fn validator_errors_name_the_offending_cell() {
        // Cell failures identify the cell by its columns, not just the
        // index — a 90-cell baseline cannot be bisected by hand.
        let report = run_grid(&PerfGrid {
            trials: 2,
            ns: vec![8],
            algorithms: vec![AlgorithmSpec::Gathering],
            scenarios: vec![Scenario::Uniform.into()],
            scale_cells: Vec::new(),
            ..PerfGrid::smoke()
        })
        .to_json();
        let broken = report.replace("\"completion_rate\": 1.0", "\"completion_rate\": 7.5");
        assert_ne!(broken, report, "fixture must contain the field");
        let err = validate_report(&Json::parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("results[0]"), "{err}");
        assert!(err.contains("algorithm=Gathering"), "{err}");
        assert!(err.contains("workload=uniform"), "{err}");
        assert!(err.contains("n=8"), "{err}");
        assert!(err.contains("completion_rate"), "{err}");
        // The redundant fault_profile=none column is elided.
        assert!(!err.contains("fault_profile"), "{err}");
    }
}
