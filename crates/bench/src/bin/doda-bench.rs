//! `doda-bench` — the paper's checked reproduction and the
//! machine-readable perf harness.
//!
//! `--experiments` prints the committed `EXPERIMENTS.md`: experiments
//! E1–E15 at full effort, then the scaling tables of Gathering, Waiting,
//! Waiting Greedy and the offline optimum. Every seed is fixed and a
//! sweep's results do not depend on its worker count, so the output is
//! byte-identical from run to run; CI regenerates it and diffs it
//! against the committed file.
//!
//! The other modes run a pinned perf grid (algorithms × scenarios × node
//! counts) through the sharded [`Sweep`] builder and emit
//! `BENCH_<grid>.json`, the perf-trajectory artifact CI uploads on every
//! push. They also validate existing artifacts, measure the lane and
//! scalar tiers' speedups over the per-event loop, and guard the streaming path's
//! `O(n)`-memory claim with a long-horizon run.
//!
//! ```text
//! doda-bench --experiments > EXPERIMENTS.md
//!                                    # E1–E15 + scaling tables, Markdown
//! doda-bench --baseline              # full grid  -> BENCH_baseline.json
//! doda-bench --smoke                 # tiny grid  -> BENCH_smoke.json (CI)
//! doda-bench --out-dir perf --smoke  # write into ./perf/
//! doda-bench --validate FILE.json    # schema-check an artifact
//! doda-bench --compare RUN BASE --tolerance 40
//!                                    # perf-regression gate (CI)
//! doda-bench --compare-runners       # lanes, scalar and per-event loop speedups
//! doda-bench --lane-guard            # lanes >= 1.5x, scalar >= 1.25x over per-event (CI)
//! doda-bench --stream-guard          # 10^7-interaction streamed sweeps, 8n² Waiting Greedy
//! doda-bench --fault-guard           # 10^6-interaction faulted sweeps
//! doda-bench --round-guard           # 10^6-interaction flattened round sweeps, bounded heap
//! doda-bench --service-guard         # 1000 sessions over the loopback wire
//! doda-bench --scale-guard           # O(n) memory + throughput at n = 10^6
//! doda-bench --algebra-guard         # sketch aggregates: less memory, bounded error
//! doda-bench --byzantine-guard       # lying nodes: detected / tolerated verdicts
//! doda-bench --guard-summary DIR     # one-line table over BENCH_guard_*.json
//! ```
//!
//! Every guard prints its detail lines, then a one-line summary, and —
//! when `--out-dir` is given — drops a `BENCH_guard_<name>.json` record
//! (`guard`, `passed`, `summary`) next to the grid artifacts, so CI can
//! upload one artifact covering every gate and render a summary table
//! with `--guard-summary`.

// The one unsafe block of the workspace: the tracking global allocator
// below wraps `System` to feed the `doda_bench::memory` counters behind
// the `peak_mem_bytes` column and the `--scale-guard` memory gate.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use doda_analysis::experiments::{run_all, Effort};
use doda_analysis::report::{exponents_to_markdown, reports_to_markdown, scaling_to_markdown};
use doda_analysis::ScalingStudy;
use doda_bench::compare::compare_reports;
use doda_bench::json::Json;
use doda_bench::perf::{run_grid, validate_report, PerfGrid};
use doda_core::algebra::AggregateSummary;
use doda_core::byzantine::{ByzantineProfile, Verdict};
use doda_core::fault::FaultProfile;
use doda_core::sequence::StepEvent;
use doda_core::Interaction;
use doda_graph::NodeId;
use doda_service::decode_result;
use doda_service::prelude::*;
use doda_sim::runner::BatchConfig;
use doda_sim::test_support::per_event_sweep;
use doda_sim::{AggregateKind, AlgorithmSpec, ExecutionTier, Scenario, Sweep, TrialResult};

/// A thin [`System`] wrapper that reports every allocation event to
/// [`doda_bench::memory`], so every grid cell carries a real
/// `peak_mem_bytes` and `--scale-guard` can assert the `O(n)` memory
/// claim on actual heap high-water marks.
struct TrackingAllocator;

// SAFETY: every method delegates directly to `System` and only adds
// bookkeeping on the reported sizes; the allocation contract is exactly
// `System`'s.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            doda_bench::memory::record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        doda_bench::memory::record_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            doda_bench::memory::record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            doda_bench::memory::record_dealloc(layout.size());
            doda_bench::memory::record_alloc(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

struct Args {
    experiments: bool,
    grid: PerfGrid,
    out_dir: PathBuf,
    validate: Vec<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    tolerance: Option<f64>,
    compare_runners: bool,
    lane_guard: bool,
    stream_guard: bool,
    fault_guard: bool,
    round_guard: bool,
    service_guard: bool,
    scale_guard: bool,
    algebra_guard: bool,
    byzantine_guard: bool,
    guard_summary: Option<PathBuf>,
}

/// The default throughput tolerance of `--compare`, generous enough for
/// shared-runner noise while still failing a 2x slowdown loudly.
const DEFAULT_TOLERANCE_PCT: f64 = 40.0;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        experiments: false,
        grid: PerfGrid::baseline(),
        out_dir: PathBuf::from("."),
        validate: Vec::new(),
        compare: None,
        tolerance: None,
        compare_runners: false,
        lane_guard: false,
        stream_guard: false,
        fault_guard: false,
        round_guard: false,
        service_guard: false,
        scale_guard: false,
        algebra_guard: false,
        byzantine_guard: false,
        guard_summary: None,
    };
    let mut grid_requested = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--experiments" => args.experiments = true,
            "--smoke" => {
                args.grid = PerfGrid::smoke();
                grid_requested = true;
            }
            "--baseline" => {
                args.grid = PerfGrid::baseline();
                grid_requested = true;
            }
            "--out-dir" => {
                let dir = argv.next().ok_or("--out-dir needs a directory")?;
                args.out_dir = PathBuf::from(dir);
            }
            "--validate" => {
                let file = argv.next().ok_or("--validate needs a file")?;
                args.validate.push(PathBuf::from(file));
            }
            "--compare" => {
                let run = argv.next().ok_or("--compare needs <run> and <baseline>")?;
                let base = argv
                    .next()
                    .ok_or("--compare needs a <baseline> after <run>")?;
                args.compare = Some((PathBuf::from(run), PathBuf::from(base)));
            }
            "--tolerance" => {
                let pct = argv.next().ok_or("--tolerance needs a percentage")?;
                args.tolerance = Some(
                    pct.parse::<f64>()
                        .map_err(|e| format!("--tolerance {pct}: {e}"))?,
                );
            }
            "--compare-runners" => args.compare_runners = true,
            "--lane-guard" => args.lane_guard = true,
            "--stream-guard" => args.stream_guard = true,
            "--fault-guard" => args.fault_guard = true,
            "--round-guard" => args.round_guard = true,
            "--service-guard" => args.service_guard = true,
            "--scale-guard" => args.scale_guard = true,
            "--algebra-guard" => args.algebra_guard = true,
            "--byzantine-guard" => args.byzantine_guard = true,
            "--guard-summary" => {
                let dir = argv.next().ok_or("--guard-summary needs a directory")?;
                args.guard_summary = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!(
                    "doda-bench --experiments | [--smoke | --baseline] [--out-dir DIR] \
                     | --validate FILE... | --compare RUN BASELINE [--tolerance PCT] \
                     | --compare-runners | [--out-dir DIR] --lane-guard | --stream-guard \
                     | --fault-guard | --round-guard | --service-guard | --scale-guard \
                     | --algebra-guard | --byzantine-guard | --guard-summary DIR"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    // The modes are mutually exclusive; combining them would silently skip
    // a requested grid run.
    let modes = usize::from(args.experiments)
        + usize::from(grid_requested)
        + usize::from(!args.validate.is_empty())
        + usize::from(args.compare.is_some())
        + usize::from(args.compare_runners)
        + usize::from(args.lane_guard)
        + usize::from(args.stream_guard)
        + usize::from(args.fault_guard)
        + usize::from(args.round_guard)
        + usize::from(args.service_guard)
        + usize::from(args.scale_guard)
        + usize::from(args.algebra_guard)
        + usize::from(args.byzantine_guard)
        + usize::from(args.guard_summary.is_some());
    if modes > 1 {
        return Err(
            "--experiments, --smoke/--baseline, --validate, --compare, --compare-runners, \
             --lane-guard, --stream-guard, --fault-guard, --round-guard, --service-guard, \
             --scale-guard, --algebra-guard, --byzantine-guard and --guard-summary are \
             mutually exclusive"
                .to_string(),
        );
    }
    if args.tolerance.is_some() && args.compare.is_none() {
        return Err("--tolerance only applies to --compare".to_string());
    }
    Ok(args)
}

/// Renders `EXPERIMENTS.md`: E1–E15 at full effort, then the scaling
/// study's per-`n` table and fitted exponents for the randomized-adversary
/// comparison. Timings are left out, so the text depends only on the
/// fixed seeds.
fn experiments_markdown() -> String {
    let reports = run_all(Effort::Full);
    let study = ScalingStudy::benchmark();
    let scaling = study.run_all(&AlgorithmSpec::randomized_comparison());
    let ns: Vec<String> = study.ns.iter().map(usize::to_string).collect();
    format!(
        "<!-- Generated by `cargo run --release --bin doda-bench -- --experiments > EXPERIMENTS.md`; \
         CI regenerates this file and diffs it. -->\n\
         \n\
         # Experiments\n\
         \n\
         Each of E1–E15 turns one result of the paper into a finite-n \
         measurement and checks it against the claim.\n\
         \n\
         {}\n\
         ## Scaling under the uniform randomized adversary\n\
         \n\
         n = {}, {} trials per point, seed {:#X}.\n\
         \n\
         {}\n\
         Power-law fits, mean interactions ∝ n^exponent:\n\
         \n\
         {}",
        reports_to_markdown(&reports),
        ns.join(", "),
        study.trials,
        study.seed,
        scaling_to_markdown(&scaling),
        exponents_to_markdown(&scaling),
    )
}

fn validate_files(files: &[PathBuf]) -> Result<(), String> {
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        validate_report(&doc).map_err(|e| format!("{}: {e}", file.display()))?;
        println!("{}: ok", file.display());
    }
    Ok(())
}

/// The perf-regression gate: diffs a fresh run against a committed
/// baseline and fails on regressions beyond the tolerance (see
/// `doda_bench::compare`). Prints every regression with its cell
/// identity, so a CI failure names exactly what slowed down.
fn compare_files(run_path: &PathBuf, base_path: &PathBuf, tolerance: f64) -> Result<(), String> {
    let load = |path: &PathBuf| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let run = load(run_path)?;
    let baseline = load(base_path)?;
    let summary = compare_reports(&run, &baseline, tolerance)?;
    println!(
        "compared {} cells of {} against {} (throughput tolerance {tolerance}%)",
        summary.compared,
        run_path.display(),
        base_path.display(),
    );
    if let Some(ratio) = summary.median_throughput_ratio {
        println!(
            "  machine calibration: median run/baseline throughput ratio {ratio:.2} \
             (far from 1.0 means the baseline was measured on different hardware — \
             consider regenerating it where the gate runs)"
        );
    }
    for cell in &summary.new_cells {
        println!("  new cell (not in baseline): {cell}");
    }
    for cell in &summary.missing {
        println!("  MISSING: baseline cell absent from the run: {cell}");
    }
    for regression in &summary.regressions {
        println!("  REGRESSION: {regression}");
    }
    if summary.passed() {
        println!("perf gate passed: no cell regressed beyond {tolerance}%");
        Ok(())
    } else {
        Err(format!(
            "{} regression(s), {} missing cell(s)",
            summary.regressions.len(),
            summary.missing.len()
        ))
    }
}

/// The floor `--lane-guard` enforces on the lane tier's median speedup
/// over the per-event loop (the scalar engine pulling one `next_event`
/// per interaction) on the knowledge-free n = 512 cell: conservative
/// enough for noisy shared CI runners, but a lane tier that cannot beat
/// that reference by 1.5x has lost its reason to exist.
const LANE_GUARD_MIN_SPEEDUP: f64 = 1.5;

/// The floor `--lane-guard` enforces on the scalar tier's median speedup
/// over the per-event loop on the same cell: the scalar tier pulls the
/// oblivious uniform source in bursts, and the guard fails if that stops
/// paying.
const BURST_GUARD_MIN_SPEEDUP: f64 = 1.25;

/// One repetition's wall time of the same batch on three paths.
#[derive(Clone, Copy)]
struct PathSecs {
    /// The lane tier.
    lanes: f64,
    /// The scalar tier: the engine pulls oblivious sources in bursts.
    scalar: f64,
    /// The scalar tier with every source behind
    /// [`doda_sim::test_support::PerEvent`]: one virtual `next_event` per
    /// interaction.
    per_event: f64,
}

/// Times one knowledge-free batch shape on the lane tier, the scalar tier
/// and the per-event loop, interleaved over `reps` repetitions,
/// cross-checking per-trial byte-equality of the three on every rep.
///
/// Returns one [`PathSecs`] per rep and the total interactions of one
/// batch. The three measurements of a rep are taken back to back, so a
/// per-rep ratio cancels the common-mode machine drift (frequency
/// scaling, noisy co-tenants) that independent per-path minima cannot.
fn time_paths(
    spec: AlgorithmSpec,
    scenario: Scenario,
    n: usize,
    trials: usize,
    reps: usize,
) -> Result<(Vec<PathSecs>, u64), String> {
    const SEED: u64 = 0xD0DA;
    let sweep = |tier| {
        Sweep::scenario(spec, scenario)
            .n(n)
            .trials(trials)
            .seed(SEED)
            .parallel(true)
            .tier(tier)
    };
    // Warm-up to populate thread pools and page caches fairly.
    let _ = sweep(ExecutionTier::Lanes).trials(8).run();

    // Interleave the paths so drift (frequency scaling, page cache) hits
    // all equally, rotating which path goes first to cancel any ordering
    // bias.
    let mut timings = Vec::with_capacity(reps);
    let mut interactions = 0u64;
    for rep in 0..reps {
        let mut secs = [0.0; 3];
        let mut results: [Vec<TrialResult>; 3] = Default::default();
        for k in 0..3 {
            let path = (rep + k) % 3;
            let t0 = Instant::now();
            results[path] = match path {
                0 => sweep(ExecutionTier::Lanes).run(),
                1 => sweep(ExecutionTier::Scalar).run(),
                _ => per_event_sweep(spec, scenario, n, trials, SEED, true),
            };
            secs[path] = t0.elapsed().as_secs_f64();
        }
        let [lanes, scalar, per_event] = &results;
        if lanes != scalar {
            return Err("lane and scalar tiers diverged on identical input".to_string());
        }
        if scalar != per_event {
            return Err(
                "the scalar tier and the per-event loop diverged on identical input".to_string(),
            );
        }
        interactions = lanes.iter().map(|r| r.interactions_processed).sum();
        timings.push(PathSecs {
            lanes: secs[0],
            scalar: secs[1],
            per_event: secs[2],
        });
    }
    Ok((timings, interactions))
}

/// Per-path minima over the reps: the usual low-noise estimator for
/// throughput reporting.
fn min_secs(timings: &[PathSecs]) -> PathSecs {
    let min = |f: fn(&PathSecs) -> f64| timings.iter().map(f).fold(f64::INFINITY, f64::min);
    PathSecs {
        lanes: min(|t| t.lanes),
        scalar: min(|t| t.scalar),
        per_event: min(|t| t.per_event),
    }
}

/// The quartiles of the per-rep `slow/fast` speedup ratios — each ratio
/// compares two back-to-back measurements, so sustained machine-wide slow
/// phases (which skew independent per-path minima) divide out.
#[derive(Clone, Copy)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    fn of(timings: &[PathSecs], slow: fn(&PathSecs) -> f64, fast: fn(&PathSecs) -> f64) -> Self {
        let mut ratios: Vec<f64> = timings
            .iter()
            .map(|t| slow(t) / fast(t).max(1e-9))
            .collect();
        ratios.sort_by(|a, b| a.total_cmp(b));
        let quartile = |q: usize| ratios[(ratios.len() - 1) * q / 4];
        Spread {
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
        }
    }
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2}x (quartiles {:.2}–{:.2}x)",
            self.median, self.q1, self.q3
        )
    }
}

/// The per-rep speedups the lane guard reports: lanes over the per-event
/// loop, the scalar tier over the per-event loop, and lanes over the
/// scalar tier.
fn speedups(timings: &[PathSecs]) -> (Spread, Spread, Spread) {
    (
        Spread::of(timings, |t| t.per_event, |t| t.lanes),
        Spread::of(timings, |t| t.per_event, |t| t.scalar),
        Spread::of(timings, |t| t.scalar, |t| t.lanes),
    )
}

/// Measures the lockstep lane tier, the scalar tier and the per-event
/// loop on identical parallel batches, and cross-checks that all three
/// produce byte-identical per-trial results.
///
/// Two batch shapes are timed: one dominated by per-trial overhead (many
/// small trials — where lane batching amortises source setup and engine
/// dispatch hardest) and one dominated by in-trial work (fewer large
/// trials at the n = 512 scale the perf grids track).
fn compare_runners() -> Result<(), String> {
    const REPS: usize = 7;
    let shapes = [
        ("overhead-bound", 64usize, 1_024usize),
        ("work-bound", 512, 64),
    ];
    let spec = AlgorithmSpec::Gathering;
    for (label, n, trials) in shapes {
        let (timings, interactions) = time_paths(spec, Scenario::Uniform, n, trials, REPS)?;
        let best = min_secs(&timings);
        let (lanes_x, scalar_x, lanes_over_scalar) = speedups(&timings);
        println!("{label} batch ({spec} vs uniform, n = {n}, trials = {trials}, best of {REPS}):");
        for (path, secs) in [
            ("lane tier  ", best.lanes),
            ("scalar tier", best.scalar),
            ("per-event  ", best.per_event),
        ] {
            println!(
                "  {path} : {secs:.3} s ({:.0} i/s)",
                interactions as f64 / secs.max(1e-9)
            );
        }
        println!(
            "  speedup     : lanes {:.2}x and scalar {:.2}x over per-event, \
             lanes {:.2}x over scalar (median per-rep)",
            lanes_x.median, scalar_x.median, lanes_over_scalar.median
        );
    }
    Ok(())
}

/// The CI gate on the lane tier's reason to exist and on the scalar
/// tier's burst pulls: on the knowledge-free n = 512 uniform Gathering
/// cell, the lockstep lane path must beat the per-event loop by at least
/// [`LANE_GUARD_MIN_SPEEDUP`]x, and the scalar tier must beat it by at
/// least [`BURST_GUARD_MIN_SPEEDUP`]x — while all three produce
/// byte-identical per-trial results (cross-checked every rep). The lanes'
/// speedup over the scalar tier is printed, not gated.
fn lane_guard() -> Result<String, String> {
    // On a shared 2-vCPU Xeon host the per-rep lanes-over-per-event ratio
    // had quartiles 1.42–1.66x (135 reps), median 1.55x. Resampling those
    // reps, a median 0.05x above the floor fails one run in eight at 9
    // reps and one in sixty at 31.
    const REPS: usize = 31;
    const N: usize = 512;
    const TRIALS: usize = 64;
    let (timings, interactions) =
        time_paths(AlgorithmSpec::Gathering, Scenario::Uniform, N, TRIALS, REPS)?;
    let best = min_secs(&timings);
    let (lanes_x, scalar_x, lanes_over_scalar) = speedups(&timings);
    let rate = |secs: f64| interactions as f64 / secs.max(1e-9);
    println!(
        "lane-guard: Gathering vs uniform, n = {N}, {TRIALS} trials, {REPS} reps: \
         lanes {:.3} s ({:.0} i/s), scalar {:.3} s ({:.0} i/s), per-event {:.3} s ({:.0} i/s); \
         median per-rep speedups over per-event: lanes {lanes_x} (floor \
         {LANE_GUARD_MIN_SPEEDUP}x), scalar {scalar_x} (floor {BURST_GUARD_MIN_SPEEDUP}x); \
         lanes over scalar {lanes_over_scalar} (not gated)",
        best.lanes,
        rate(best.lanes),
        best.scalar,
        rate(best.scalar),
        best.per_event,
        rate(best.per_event),
    );
    if lanes_x.median < LANE_GUARD_MIN_SPEEDUP {
        return Err(format!(
            "lane tier speedup {lanes_x} over the per-event loop is below the \
             {LANE_GUARD_MIN_SPEEDUP}x floor"
        ));
    }
    if scalar_x.median < BURST_GUARD_MIN_SPEEDUP {
        return Err(format!(
            "scalar tier speedup {scalar_x} over the per-event loop is below the \
             {BURST_GUARD_MIN_SPEEDUP}x floor"
        ));
    }
    Ok(format!(
        "median speedups over the per-event loop: lanes {lanes_x} (floor \
         {LANE_GUARD_MIN_SPEEDUP}x), scalar {scalar_x} (floor {BURST_GUARD_MIN_SPEEDUP}x); \
         lanes over scalar {lanes_over_scalar}; byte-identical results every rep"
    ))
}

/// Guards the streaming path's `O(n)`-memory claim with two long-horizon
/// runs at `horizon = 10^7` (a horizon whose materialised sequence would
/// occupy ~160 MB per worker — the buffer the streamed path never
/// allocates):
///
/// 1. `Waiting` vs the adaptive isolator at `n = 128`: the adversary
///    starves the sink, so the engine genuinely processes all 10^7
///    streamed interactions;
/// 2. `Gathering` vs the uniform scenario at the same horizon: terminates
///    after ~n² interactions without the horizon-sized buffer fill the
///    materialised path would have paid up front;
/// 3. `Waiting Greedy` vs uniform at `n = 16,384` and the default `8n²`
///    horizon (2.1·10⁹ interactions, 32 GiB if filled): its `meetTime`
///    lookahead must let the trial terminate with at most
///    [`STREAM_GUARD_MAX_LOOKAHEAD_BYTES`] of peak heap growth.
fn stream_guard() -> Result<String, String> {
    const HORIZON: usize = 10_000_000;
    const N: usize = 128;

    let config = BatchConfig {
        n: N,
        trials: 1,
        horizon: Some(HORIZON),
        seed: 0xD0DA,
        parallel: false,
    };

    let t0 = Instant::now();
    let starved = Sweep::scenario(AlgorithmSpec::Waiting, Scenario::AdaptiveIsolator)
        .config(&config)
        .run();
    let starved_secs = t0.elapsed().as_secs_f64();
    let starved = &starved[0];
    if starved.terminated() || starved.interactions_processed != HORIZON as u64 {
        return Err(format!(
            "adaptive starvation run should process exactly {HORIZON} interactions \
             without terminating, got {} (terminated: {})",
            starved.interactions_processed,
            starved.terminated()
        ));
    }
    println!(
        "stream-guard: Waiting vs adaptive-isolator, n = {N}, horizon = {HORIZON}: \
         processed {} interactions in {starved_secs:.2} s ({:.0} i/s), O(n) memory",
        starved.interactions_processed,
        starved.interactions_processed as f64 / starved_secs.max(1e-9),
    );

    let t1 = Instant::now();
    let gathered = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
        .config(&config)
        .run();
    let gathered_secs = t1.elapsed().as_secs_f64();
    let gathered = &gathered[0];
    if !gathered.terminated() {
        return Err("Gathering should terminate well within a 10^7 uniform horizon".to_string());
    }
    println!(
        "stream-guard: Gathering vs uniform, n = {N}, horizon = {HORIZON}: terminated \
         after {} interactions in {gathered_secs:.2} s — no horizon-sized buffer allocated",
        gathered.interactions_processed,
    );

    const GREEDY_N: usize = 16_384;
    if !doda_bench::memory::tracking() {
        return Err("the tracking allocator is not installed".to_string());
    }
    let floor = doda_bench::memory::reset_peak();
    let t2 = Instant::now();
    let greedy = Sweep::scenario(
        AlgorithmSpec::WaitingGreedy { tau: None },
        Scenario::Uniform,
    )
    .n(GREEDY_N)
    .trials(1)
    .seed(0xD0DA)
    .run();
    let greedy_secs = t2.elapsed().as_secs_f64();
    let greedy_peak = doda_bench::memory::peak_bytes().saturating_sub(floor);
    let greedy = &greedy[0];
    let greedy_mib = greedy_peak as f64 / (1 << 20) as f64;
    println!(
        "stream-guard: WaitingGreedy vs uniform, n = {GREEDY_N}, horizon = 8n^2: \
         terminated: {} after {} interactions in {greedy_secs:.2} s, peak {greedy_mib:.1} MiB \
         (ceiling {} MiB)",
        greedy.terminated(),
        greedy.interactions_processed,
        STREAM_GUARD_MAX_LOOKAHEAD_BYTES >> 20,
    );
    if !greedy.terminated() {
        return Err(format!(
            "Waiting Greedy at n = {GREEDY_N} should terminate within its 8n^2 horizon"
        ));
    }
    if greedy_peak > STREAM_GUARD_MAX_LOOKAHEAD_BYTES {
        return Err(format!(
            "Waiting Greedy at n = {GREEDY_N} grew the heap by {greedy_mib:.1} MiB — a \
             horizon-sized buffer on the meetTime path (ceiling {} MiB)",
            STREAM_GUARD_MAX_LOOKAHEAD_BYTES >> 20
        ));
    }
    Ok(format!(
        "two 10^7-horizon streamed runs at n = {N}, O(n) memory: starved run {:.0} i/s, \
         Gathering terminated after {} interactions; Waiting Greedy at n = {GREEDY_N} \
         terminated in {greedy_secs:.1} s, peak {greedy_mib:.1} MiB",
        starved.interactions_processed as f64 / starved_secs.max(1e-9),
        gathered.interactions_processed,
    ))
}

/// Guards the fault layer's streaming and survivor-completion claims with
/// two long-horizon faulted runs at `horizon = 10^6`:
///
/// 1. `Waiting` vs the crash-aware isolator under a lossy plan at
///    `n = 128`: the adversary never releases anyone to the sink, so the
///    engine processes the full faulted horizon streamed — proving the
///    fault adapter adds no horizon-sized buffer (`O(n)` memory);
/// 2. `Gathering` vs `uniform+crash` at the same `n`: every trial must
///    terminate, with a nonzero number of survivor-only completions
///    (crashes genuinely cost data) and data conservation intact.
fn fault_guard() -> Result<String, String> {
    const HORIZON: usize = 1_000_000;
    const N: usize = 128;

    let starvation = Scenario::CrashAwareIsolator.with_faults(FaultProfile::lossy(0.25));
    let config = BatchConfig {
        n: N,
        trials: 1,
        horizon: Some(HORIZON),
        seed: 0xD0DA,
        parallel: false,
    };
    let t0 = Instant::now();
    let starved = Sweep::scenario(AlgorithmSpec::Waiting, starvation)
        .config(&config)
        .run();
    let starved_secs = t0.elapsed().as_secs_f64();
    let starved = &starved[0];
    if starved.terminated() || starved.interactions_processed != HORIZON as u64 {
        return Err(format!(
            "faulted starvation run should process exactly {HORIZON} steps without \
             terminating, got {} (terminated: {})",
            starved.interactions_processed,
            starved.terminated()
        ));
    }
    if starved.faults.lost_interactions == 0 {
        return Err("a 25% loss plan must drop interactions over 10^6 steps".to_string());
    }
    println!(
        "fault-guard: Waiting vs crash-aware-isolator+loss(0.25), n = {N}, horizon = \
         {HORIZON}: processed {} steps ({} lost) in {starved_secs:.2} s ({:.0} i/s), O(n) memory",
        starved.interactions_processed,
        starved.faults.lost_interactions,
        starved.interactions_processed as f64 / starved_secs.max(1e-9),
    );

    let crashing = Scenario::Uniform.with_faults(FaultProfile::crash(0.001));
    let config = BatchConfig {
        n: N,
        trials: 8,
        horizon: None,
        seed: 0xD0DA,
        parallel: false,
    };
    let t1 = Instant::now();
    let trials = Sweep::scenario(AlgorithmSpec::Gathering, crashing)
        .config(&config)
        .run();
    let crash_secs = t1.elapsed().as_secs_f64();
    if !trials.iter().all(|r| r.terminated() && r.data_conserved) {
        return Err(
            "every uniform+crash Gathering trial must terminate with data conserved".to_string(),
        );
    }
    let survivors = trials.iter().filter(|r| !r.fully_aggregated()).count();
    if survivors == 0 {
        return Err(
            "a 0.1% crash plan over n = 128 must produce survivor-only completions".to_string(),
        );
    }
    let crashes: u64 = trials.iter().map(|r| r.faults.crashes).sum();
    println!(
        "fault-guard: Gathering vs uniform+crash(0.001), n = {N}, {} trials: all terminated \
         and conserved data, {survivors} survivor-only completions, {crashes} crashes, \
         {crash_secs:.2} s",
        trials.len(),
    );
    Ok(format!(
        "faulted 10^6-step horizon streamed with {} losses, O(n) memory; {survivors} \
         survivor-only completions and {crashes} crashes over {} crash trials, data conserved",
        starved.faults.lost_interactions,
        trials.len(),
    ))
}

/// The most heap `--round-guard`'s starved round run may grow by. The run
/// grows the heap by 7.6 KiB (the same in every run on an x86-64 Linux
/// host); a buffer sized to its 10^6-interaction budget would take 16 MB.
const ROUND_GUARD_MAX_HEAP_BYTES: usize = 64 << 10;

/// Guards the flattened round path with long-horizon round sweeps at
/// `n = 128`:
///
/// 1. `Waiting` vs the sink-unmatched round trap at a 10^6-interaction
///    budget: every round is a 63-pair matching that never touches the
///    sink, so ~16k rounds are pulled in bursts of flattened matchings
///    without terminating, and the heap may grow by at most
///    [`ROUND_GUARD_MAX_HEAP_BYTES`] — no horizon-sized buffer;
/// 2. `Gathering` vs random matchings at the same `n`: every trial must
///    terminate (a near-perfect random matching reaches the sink fast)
///    with data conserved.
fn round_guard() -> Result<String, String> {
    const HORIZON: usize = 1_000_000;
    const N: usize = 128;

    if !doda_bench::memory::tracking() {
        return Err("the tracking allocator is not installed".to_string());
    }
    let starved =
        Sweep::scenario(AlgorithmSpec::Waiting, Scenario::RoundIsolator).config(&BatchConfig {
            n: N,
            trials: 1,
            horizon: Some(HORIZON),
            seed: 0xD0DA,
            parallel: false,
        });
    let tier = starved.path_label();
    let floor = doda_bench::memory::reset_peak();
    let t0 = Instant::now();
    let starved = starved.run();
    let starved_secs = t0.elapsed().as_secs_f64();
    let starved_peak = doda_bench::memory::peak_bytes().saturating_sub(floor);
    let starved = &starved[0];
    let rounds = starved.interactions_processed / ((N as u64 - 1) / 2);
    let starved_kib = starved_peak as f64 / 1024.0;
    println!(
        "round-guard: Waiting vs round-isolator, n = {N}, budget = {HORIZON}, {tier} tier: \
         processed {} matched interactions (~{rounds} rounds) in {starved_secs:.2} s \
         ({:.0} i/s), peak {starved_kib:.1} KiB (ceiling {} KiB)",
        starved.interactions_processed,
        starved.interactions_processed as f64 / starved_secs.max(1e-9),
        ROUND_GUARD_MAX_HEAP_BYTES >> 10,
    );
    if starved.terminated() || starved.interactions_processed != HORIZON as u64 {
        return Err(format!(
            "the round trap should process exactly {HORIZON} interactions without \
             terminating, got {} (terminated: {})",
            starved.interactions_processed,
            starved.terminated()
        ));
    }
    if starved_peak > ROUND_GUARD_MAX_HEAP_BYTES {
        return Err(format!(
            "the starved round run grew the heap by {starved_kib:.1} KiB — a buffer \
             that grows with the horizon (ceiling {} KiB)",
            ROUND_GUARD_MAX_HEAP_BYTES >> 10
        ));
    }

    let config = BatchConfig {
        n: N,
        trials: 8,
        horizon: None,
        seed: 0xD0DA,
        parallel: false,
    };
    let t1 = Instant::now();
    let trials = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::RandomMatching)
        .config(&config)
        .run();
    let gather_secs = t1.elapsed().as_secs_f64();
    if !trials.iter().all(|r| r.terminated() && r.data_conserved) {
        return Err(
            "every random-matching Gathering trial must terminate with data conserved".to_string(),
        );
    }
    println!(
        "round-guard: Gathering vs random-matching, n = {N}, {} trials: all terminated \
         and conserved data in {gather_secs:.2} s",
        trials.len(),
    );
    Ok(format!(
        "~{rounds} flattened rounds pulled in bursts without termination, peak \
         {starved_kib:.1} KiB; {} random-matching trials terminated with data conserved",
        trials.len(),
    ))
}

/// The throughput floor `--service-guard` enforces on the multi-tenant
/// fleet: engine interactions per wall-clock second across the whole
/// service (wire codec + scheduler + engine). Conservative for shared CI
/// runners; the release-mode service sustains well over 10x this.
const SERVICE_GUARD_MIN_IPS: f64 = 100_000.0;

/// Sessions of `--service-guard`'s fleet.
const SERVICE_GUARD_SESSIONS: u64 = 1_000;
/// Population of every session of `--service-guard`'s fleet.
const SERVICE_GUARD_N: usize = 64;

/// Runs `--service-guard`'s fleet to completion on `manager`: 1000
/// scenario sessions opened through a [`ServiceClient`] over the
/// in-memory loopback and scheduled in budgeted slices. Returns every
/// reply frame in arrival order and the seconds from the first open to
/// the last reply drained.
fn service_fleet(manager: SessionManager) -> Result<(Vec<Vec<u8>>, f64), String> {
    let err = |e: ServiceError| e.to_string();
    let (client_end, service_end) = Loopback::pair();
    let mut client = ServiceClient::new(client_end);
    let mut service = ServiceEndpoint::new(manager, service_end);
    let config = SessionConfig {
        slice_budget: 512,
        ..SessionConfig::default()
    };

    let t0 = Instant::now();
    for tenant in 0..SERVICE_GUARD_SESSIONS {
        client
            .open_scenario(
                SessionId(tenant),
                AlgorithmSpec::Gathering,
                Scenario::Uniform,
                SERVICE_GUARD_N,
                tenant,
                &config,
            )
            .map_err(err)?;
    }
    service.run_until_idle().map_err(err)?;
    let mut replies = FrameBuf::new();
    client.into_transport().recv_into(&mut replies);
    let frames = std::iter::from_fn(|| replies.pop().map(<[u8]>::to_vec)).collect();
    let secs = t0.elapsed().as_secs_f64();

    if !service.manager().is_empty() {
        return Err(format!(
            "{} finished sessions were not retired — the O(sessions + n) memory claim is broken",
            service.manager().len()
        ));
    }
    Ok((frames, secs))
}

/// Guards the multi-tenant service's claims end-to-end over the wire:
///
/// 1. **Scale** — the [`service_fleet`] on a worker pool the size of the
///    machine's parallelism, with every result streaming back as a wire
///    frame. Aggregate engine throughput must clear
///    [`SERVICE_GUARD_MIN_IPS`].
/// 2. **Fidelity** — the same fleet on one worker must return
///    byte-identical result frames in the same order, and a sample of
///    the results is cross-checked byte-for-byte against the equivalent
///    standalone single-trial [`Sweep`] runs.
/// 3. **Memory** — finished sessions must be retired (the manager ends
///    empty: `O(live sessions + n)`, not `O(all sessions ever)`), and a
///    deliberately overfed external session's bounded inbox must shed
///    instead of grow: its high-water mark never exceeds its capacity.
fn service_guard() -> Result<String, String> {
    const SESSIONS: u64 = SERVICE_GUARD_SESSIONS;
    const N: usize = SERVICE_GUARD_N;
    const SPOT_CHECK_EVERY: u64 = 83;
    let err = |e: ServiceError| e.to_string();

    let manager = SessionManager::new();
    let workers = manager.workers();
    let (frames, secs) = service_fleet(manager)?;
    let mut results = Vec::new();
    for frame in &frames {
        match decode_result(frame).map_err(|e| e.to_string())? {
            WireResult::Result { session, result } => results.push((session, result)),
            WireResult::Error { session, message } => {
                return Err(format!("session {session} failed: {message}"))
            }
        }
    }
    if results.len() as u64 != SESSIONS {
        return Err(format!(
            "expected {SESSIONS} result frames, got {}",
            results.len()
        ));
    }
    let interactions: u64 = results.iter().map(|(_, r)| r.interactions_processed).sum();
    let throughput = interactions as f64 / secs.max(1e-9);
    println!(
        "service-guard: {SESSIONS} sessions (Gathering vs uniform, n = {N}) over loopback: \
         {interactions} interactions in {secs:.2} s ({throughput:.0} i/s, {workers} workers), \
         all sessions retired",
    );
    if throughput < SERVICE_GUARD_MIN_IPS {
        return Err(format!(
            "service throughput {throughput:.0} i/s is below the {SERVICE_GUARD_MIN_IPS:.0} i/s floor"
        ));
    }

    let (serial_frames, serial_secs) = service_fleet(SessionManager::with_workers(1))?;
    if let Some(index) =
        (0..frames.len().max(serial_frames.len())).find(|&i| frames.get(i) != serial_frames.get(i))
    {
        return Err(format!(
            "result frame {index} differs between {workers} workers and 1 worker"
        ));
    }
    println!(
        "service-guard: on 1 worker ({serial_secs:.2} s) the fleet's {} result frames are \
         byte-identical and in the same order",
        frames.len()
    );

    let mut spot_checked = 0;
    for (session, result) in &results {
        if session.0 % SPOT_CHECK_EVERY != 0 {
            continue;
        }
        let reference = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(N)
            .trials(1)
            .seed(session.0)
            .run()
            .remove(0);
        if result != &reference {
            return Err(format!(
                "session {session} diverged from its standalone sweep"
            ));
        }
        spot_checked += 1;
    }
    println!(
        "service-guard: {spot_checked} sessions spot-checked byte-identical to standalone sweeps"
    );

    // Backpressure leg: overfeed one bounded external session without
    // letting the scheduler keep up — interactions never touch the sink,
    // so the session cannot finish early and free its inbox.
    let (client_end, service_end) = Loopback::pair();
    let mut client = ServiceClient::new(client_end);
    let mut service = ServiceEndpoint::new(SessionManager::new(), service_end);
    const CAPACITY: usize = 64;
    let id = SessionId(SESSIONS + 1);
    let bp_config = SessionConfig {
        inbox_capacity: CAPACITY,
        overflow: OverflowPolicy::Shed,
        ..SessionConfig::default()
    };
    client
        .open_external(id, AlgorithmSpec::Gathering, N, &bp_config)
        .map_err(err)?;
    for k in 0..5_000usize {
        let a = NodeId(1 + (k % 31));
        let b = NodeId(33 + (k % 31));
        client
            .send_event(id, StepEvent::Interaction(Interaction::new(a, b)))
            .map_err(err)?;
        if k % 512 == 0 {
            service.pump().map_err(err)?;
        }
    }
    service.pump().map_err(err)?;
    let high_water = service.manager().inbox_high_water(id).unwrap_or(0);
    if high_water > CAPACITY {
        return Err(format!(
            "inbox high-water {high_water} exceeded its capacity {CAPACITY}"
        ));
    }
    client.close(id).map_err(err)?;
    service.run_until_idle().map_err(err)?;
    let shed = service.manager().shed_count();
    if shed == 0 {
        return Err("overfeeding a bounded inbox must shed events".to_string());
    }
    println!(
        "service-guard: overfed inbox stayed bounded (high-water {high_water}/{CAPACITY}, \
         {shed} events shed)"
    );
    Ok(format!(
        "{SESSIONS} sessions at {throughput:.0} i/s (floor {SERVICE_GUARD_MIN_IPS:.0}), \
         result frames identical on 1 worker, {spot_checked} spot-checked byte-identical, \
         overfed inbox stayed bounded"
    ))
}

/// The peak heap growth `--stream-guard` allows its `n = 16,384` Waiting
/// Greedy trial: `O(n)` state plus the sink meetings read ahead. Filling
/// its horizon would take 32 GiB.
const STREAM_GUARD_MAX_LOOKAHEAD_BYTES: usize = 64 << 20;

/// The memory-scaling ceiling `--scale-guard` enforces: growing the node
/// count 10x (10^5 → 10^6) may grow the peak heap by at most this factor.
/// An `O(n)` engine lands near 10x; any super-linear structure on the
/// trial path (a per-node `Vec<Vec<_>>`, a materialised horizon buffer)
/// blows far past it.
const SCALE_GUARD_MAX_MEM_RATIO: f64 = 12.0;

/// The throughput floor on the n = 10^6 streamed run, in interactions per
/// second. At a million nodes the engine is cache-miss bound near 10^6
/// i/s; the floor sits 4x under that — low enough for noisy shared CI
/// runners, high enough that any accidental per-interaction `O(n)` work
/// (a scan, a clone, a rebuild) fails it by orders of magnitude.
const SCALE_GUARD_MIN_IPS: f64 = 250_000.0;

/// Runs one budgeted streamed Gathering-vs-uniform trial at `n` and
/// returns `(peak heap growth in bytes, interactions, seconds)`.
fn scale_run(n: usize, budget: usize) -> Result<(u64, u64, f64), String> {
    let floor = doda_bench::memory::reset_peak();
    let t0 = Instant::now();
    let trials = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
        .n(n)
        .trials(1)
        .seed(0xD0DA)
        .horizon(Some(budget))
        .parallel(false)
        .tier(ExecutionTier::Scalar)
        .run();
    let secs = t0.elapsed().as_secs_f64();
    let peak = doda_bench::memory::peak_bytes().saturating_sub(floor) as u64;
    let trial = &trials[0];
    if trial.terminated() || trial.interactions_processed != budget as u64 {
        return Err(format!(
            "the n = {n} streamed run should exhaust its {budget}-interaction budget \
             (flat completion needs ~n^2), got {} (terminated: {})",
            trial.interactions_processed,
            trial.terminated()
        ));
    }
    Ok((peak, trial.interactions_processed, secs))
}

/// Guards the million-node regime end to end:
///
/// 1. **Memory** — a streamed Gathering-vs-uniform trial at n = 10^6 may
///    use at most [`SCALE_GUARD_MAX_MEM_RATIO`]x the peak heap of the
///    identical n = 10^5 trial (both budgeted to the same horizon, so
///    any `O(horizon)` buffer cancels out and the ratio isolates the
///    per-node structures).
/// 2. **Throughput** — the n = 10^6 run must clear
///    [`SCALE_GUARD_MIN_IPS`]: a million-node state that thrashes is as
///    broken as one that bloats.
/// 3. **Hierarchical completion** — a clustered sweep at n = 10^5 must
///    actually finish with every origin at the sink: `O(n^{3/2})`
///    interactions make completion feasible where flat aggregation
///    starves at any practical budget.
fn scale_guard() -> Result<String, String> {
    const REFERENCE_N: usize = 100_000;
    const TARGET_N: usize = 1_000_000;
    const BUDGET: usize = 2_000_000;
    const HIER_N: usize = 100_000;
    const HIER_BUDGET: usize = 80_000_000;

    if !doda_bench::memory::tracking() {
        return Err("the tracking allocator is not installed".to_string());
    }
    let (ref_peak, _, ref_secs) = scale_run(REFERENCE_N, BUDGET)?;
    let (big_peak, big_interactions, big_secs) = scale_run(TARGET_N, BUDGET)?;
    let ratio = big_peak as f64 / (ref_peak as f64).max(1.0);
    let throughput = big_interactions as f64 / big_secs.max(1e-9);
    println!(
        "scale-guard: streamed Gathering vs uniform, budget = {BUDGET}: \
         n = {REFERENCE_N}: peak {:.1} MiB in {ref_secs:.2} s; \
         n = {TARGET_N}: peak {:.1} MiB in {big_secs:.2} s ({throughput:.0} i/s)",
        ref_peak as f64 / (1 << 20) as f64,
        big_peak as f64 / (1 << 20) as f64,
    );
    println!(
        "scale-guard: 10x nodes grew peak memory {ratio:.1}x \
         (ceiling {SCALE_GUARD_MAX_MEM_RATIO}x)"
    );
    if ratio > SCALE_GUARD_MAX_MEM_RATIO {
        return Err(format!(
            "peak memory grew {ratio:.1}x for 10x nodes — super-linear state on the \
             trial path (ceiling {SCALE_GUARD_MAX_MEM_RATIO}x)"
        ));
    }
    if throughput < SCALE_GUARD_MIN_IPS {
        return Err(format!(
            "n = {TARGET_N} throughput {throughput:.0} i/s is below the \
             {SCALE_GUARD_MIN_IPS:.0} i/s floor"
        ));
    }

    let floor = doda_bench::memory::reset_peak();
    let t0 = Instant::now();
    let trials = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
        .n(HIER_N)
        .trials(1)
        .seed(0xD0DA)
        .horizon(Some(HIER_BUDGET))
        .parallel(false)
        .tier(ExecutionTier::Hierarchical)
        .run();
    let hier_secs = t0.elapsed().as_secs_f64();
    let hier_peak = doda_bench::memory::peak_bytes().saturating_sub(floor) as u64;
    let trial = &trials[0];
    if !trial.terminated() || !trial.fully_aggregated() {
        return Err(format!(
            "the hierarchical n = {HIER_N} sweep must aggregate every origin at the sink \
             within its {HIER_BUDGET}-interaction budget, got {} interactions \
             (terminated: {}, fully aggregated: {})",
            trial.interactions_processed,
            trial.terminated(),
            trial.fully_aggregated()
        ));
    }
    println!(
        "scale-guard: hierarchical Gathering vs uniform, n = {HIER_N}: fully aggregated \
         after {} interactions in {hier_secs:.2} s, peak {:.1} MiB — completion at a node \
         count where the flat tiers starve",
        trial.interactions_processed,
        hier_peak as f64 / (1 << 20) as f64,
    );
    Ok(format!(
        "10x nodes grew peak memory {ratio:.1}x (ceiling {SCALE_GUARD_MAX_MEM_RATIO}x) at \
         {throughput:.0} i/s; hierarchical n = {HIER_N} fully aggregated"
    ))
}

/// The relative-error ceiling `--algebra-guard` allows the distinct
/// sketch at n = 10^5. With 256 8-bit registers the standard error is
/// ~6.5%; the ceiling sits 3x above it so the gate only fires on a
/// broken estimator, not an unlucky seed.
const ALGEBRA_GUARD_MAX_DISTINCT_ERR: f64 = 0.20;

/// Runs one hierarchical Gathering-vs-uniform trial at `n` under the
/// given aggregate kind and returns `(peak heap growth, the trial)`.
fn algebra_run(n: usize, budget: usize, kind: AggregateKind) -> (u64, TrialResult) {
    let floor = doda_bench::memory::reset_peak();
    let trial = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
        .n(n)
        .trials(1)
        .seed(0xD0DA)
        .horizon(Some(budget))
        .parallel(false)
        .tier(ExecutionTier::Hierarchical)
        .aggregate(kind)
        .run()
        .remove(0);
    let peak = doda_bench::memory::peak_bytes().saturating_sub(floor) as u64;
    (peak, trial)
}

/// Guards the sketch aggregates' reason to exist at n = 10^5, on real
/// heap high-water marks:
///
/// 1. **Memory** — the distinct-sketch run must peak *strictly below*
///    the `IdSet` reference on the identical hierarchical sweep: the
///    sketch carries `O(1)` state per node where the exact origin set
///    pays `O(n)` at the sink.
/// 2. **Accuracy** — the estimate it buys with that memory must land
///    within [`ALGEBRA_GUARD_MAX_DISTINCT_ERR`] of the true cardinality.
/// 3. **Trajectory invariance** — both runs process identical
///    interaction counts: the aggregate changes what the sink knows,
///    never how the run unfolds.
fn algebra_guard() -> Result<String, String> {
    const N: usize = 100_000;
    const BUDGET: usize = 80_000_000;

    if !doda_bench::memory::tracking() {
        return Err("the tracking allocator is not installed".to_string());
    }
    let (exact_peak, exact) = algebra_run(N, BUDGET, AggregateKind::IdSet);
    if !exact.terminated() || !exact.fully_aggregated() {
        return Err(format!(
            "the IdSet reference must aggregate every origin within its budget, got {} \
             interactions (terminated: {})",
            exact.interactions_processed,
            exact.terminated()
        ));
    }
    let (sketch_peak, sketch) = algebra_run(N, BUDGET, AggregateKind::Distinct);
    if !sketch.terminated() || !sketch.data_conserved {
        return Err("the distinct-sketch run must terminate with data conserved".to_string());
    }
    if sketch.interactions_processed != exact.interactions_processed {
        return Err(format!(
            "the aggregate kind changed the trajectory: {} interactions under the sketch \
             vs {} under IdSet",
            sketch.interactions_processed, exact.interactions_processed
        ));
    }
    let estimate = match sketch.aggregate {
        Some(AggregateSummary::Distinct { estimate }) => estimate,
        other => return Err(format!("expected a distinct estimate, got {other:?}")),
    };
    let error = (estimate - N as f64).abs() / N as f64;
    println!(
        "algebra-guard: hierarchical Gathering vs uniform, n = {N}: id-set peak {:.1} MiB, \
         distinct-sketch peak {:.1} MiB, estimate {estimate:.0} ({:.2}% error, ceiling \
         {:.0}%), {} interactions either way",
        exact_peak as f64 / (1 << 20) as f64,
        sketch_peak as f64 / (1 << 20) as f64,
        error * 100.0,
        ALGEBRA_GUARD_MAX_DISTINCT_ERR * 100.0,
        exact.interactions_processed,
    );
    if sketch_peak >= exact_peak {
        return Err(format!(
            "the distinct sketch peaked at {sketch_peak} bytes, not strictly below the \
             IdSet reference's {exact_peak} — the O(1)-per-node claim is broken"
        ));
    }
    if error > ALGEBRA_GUARD_MAX_DISTINCT_ERR {
        return Err(format!(
            "distinct estimate {estimate:.0} is off the true {N} by {:.2}% \
             (ceiling {:.0}%)",
            error * 100.0,
            ALGEBRA_GUARD_MAX_DISTINCT_ERR * 100.0,
        ));
    }
    Ok(format!(
        "distinct sketch peaked {:.1} MiB below the id-set reference with {:.2}% estimate \
         error (ceiling {:.0}%), identical trajectories",
        (exact_peak - sketch_peak) as f64 / (1 << 20) as f64,
        error * 100.0,
        ALGEBRA_GUARD_MAX_DISTINCT_ERR * 100.0,
    ))
}

/// The fraction of lying nodes `--byzantine-guard` plants: 10% forgers,
/// the canonical working point of the detect/tolerate matrix.
const BYZANTINE_GUARD_FRACTION: f64 = 0.1;

/// The relative-error ceiling on the distinct estimate under forging.
/// Forged origins are drawn inside the population's id space, so the
/// sketch's estimate must stay near the true n; the ceiling matches the
/// honest sketch's [`ALGEBRA_GUARD_MAX_DISTINCT_ERR`].
const BYZANTINE_GUARD_MAX_DISTINCT_ERR: f64 = 0.20;

/// The throughput floor on the audited path, in engine interactions per
/// wall-clock second. Auditing pays a per-transfer receipt on top of the
/// engine; the floor is conservative for shared CI runners while still
/// failing an accidentally quadratic tally loudly.
const BYZANTINE_GUARD_MIN_IPS: f64 = 50_000.0;

/// The CI gate on the Byzantine data plane's verdicts: with 10% forgers
/// planted over uniform Gathering,
///
/// 1. **Detection** — under the exact `Count` aggregate every trial must
///    classify as `Detected`, with the evidence naming the forge
///    strategy: exact conservation exposes every forged transfer.
/// 2. **Tolerance** — under the duplicate-insensitive `Distinct` sketch
///    every trial must classify as `Tolerated`, and the estimate must
///    still land within [`BYZANTINE_GUARD_MAX_DISTINCT_ERR`] of the true
///    population (forged origins stay inside the id space).
/// 3. **Throughput** — the audited path must clear
///    [`BYZANTINE_GUARD_MIN_IPS`] across both sweeps.
fn byzantine_guard() -> Result<String, String> {
    const N: usize = 256;
    const TRIALS: usize = 16;

    let sweep = |kind| {
        Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .byzantine(ByzantineProfile::forge(BYZANTINE_GUARD_FRACTION))
            .n(N)
            .trials(TRIALS)
            .seed(0xD0DA)
            .parallel(false)
            .aggregate(kind)
            .run()
    };

    let t0 = Instant::now();
    let counted = sweep(AggregateKind::Count);
    let sketched = sweep(AggregateKind::Distinct);
    let secs = t0.elapsed().as_secs_f64();

    let mut detected = 0usize;
    for trial in &counted {
        match trial.verdict {
            Some(Verdict::Detected { evidence }) => {
                if evidence.strategy.label() != "forge" {
                    return Err(format!(
                        "a Count trial detected the wrong strategy: {}",
                        evidence.strategy.label()
                    ));
                }
                detected += 1;
            }
            other => {
                return Err(format!(
                    "every Count trial must detect the forgers, got verdict {other:?}"
                ))
            }
        }
    }
    println!(
        "byzantine-guard: Gathering vs uniform+forge({BYZANTINE_GUARD_FRACTION}), n = {N}: \
         {detected}/{TRIALS} trials Detected under Count, every evidence a forgery"
    );

    let mut tolerated = 0usize;
    let mut worst_error = 0.0f64;
    for trial in &sketched {
        match trial.verdict {
            Some(Verdict::Tolerated) => tolerated += 1,
            other => {
                return Err(format!(
                    "every Distinct trial must tolerate the forgers, got verdict {other:?}"
                ))
            }
        }
        let estimate = match trial.aggregate {
            Some(AggregateSummary::Distinct { estimate }) => estimate,
            other => return Err(format!("expected a distinct estimate, got {other:?}")),
        };
        worst_error = worst_error.max((estimate - N as f64).abs() / N as f64);
    }
    println!(
        "byzantine-guard: {tolerated}/{TRIALS} trials Tolerated under Distinct, worst \
         estimate error {:.2}% (ceiling {:.0}%)",
        worst_error * 100.0,
        BYZANTINE_GUARD_MAX_DISTINCT_ERR * 100.0,
    );
    if worst_error > BYZANTINE_GUARD_MAX_DISTINCT_ERR {
        return Err(format!(
            "a forged distinct estimate drifted {:.2}% off the true {N} \
             (ceiling {:.0}%)",
            worst_error * 100.0,
            BYZANTINE_GUARD_MAX_DISTINCT_ERR * 100.0,
        ));
    }

    let interactions: u64 = counted
        .iter()
        .chain(&sketched)
        .map(|r| r.interactions_processed)
        .sum();
    let throughput = interactions as f64 / secs.max(1e-9);
    println!(
        "byzantine-guard: audited {interactions} interactions in {secs:.2} s \
         ({throughput:.0} i/s, floor {BYZANTINE_GUARD_MIN_IPS:.0})"
    );
    if throughput < BYZANTINE_GUARD_MIN_IPS {
        return Err(format!(
            "audited throughput {throughput:.0} i/s is below the \
             {BYZANTINE_GUARD_MIN_IPS:.0} i/s floor"
        ));
    }
    Ok(format!(
        "10% forgers over {TRIALS} trials: {detected}/{TRIALS} Detected under Count, \
         {tolerated}/{TRIALS} Tolerated under Distinct (worst error {:.2}%), \
         {throughput:.0} i/s audited",
        worst_error * 100.0,
    ))
}

/// Writes a guard's `BENCH_guard_<name>.json` record into `out_dir`, the
/// machine-readable row behind the `--guard-summary` table and the CI
/// guard artifact.
fn write_guard_artifact(
    out_dir: &std::path::Path,
    name: &str,
    passed: bool,
    summary: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let doc = Json::Object(vec![
        ("guard".to_string(), Json::str(name)),
        ("passed".to_string(), Json::Bool(passed)),
        ("summary".to_string(), Json::str(summary)),
    ]);
    let path = out_dir.join(format!("BENCH_guard_{name}.json"));
    std::fs::write(&path, doda_bench::json::pretty(&doc))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// A guard entry point: `Ok` carries the one-line pass summary, `Err`
/// the failure reason.
type GuardFn = fn() -> Result<String, String>;

/// Runs one guard to completion: detail lines stream as the guard runs,
/// the one-line summary (pass or fail) prints last, and the
/// `BENCH_guard_<name>.json` record lands in `out_dir`.
fn run_guard(name: &str, out_dir: &std::path::Path, guard: GuardFn) -> ExitCode {
    let (passed, summary) = match guard() {
        Ok(summary) => (true, summary),
        Err(e) => (false, e),
    };
    if passed {
        println!("{name}-guard summary: {summary}");
    } else {
        eprintln!("doda-bench: {name} guard failed: {summary}");
    }
    if let Err(e) = write_guard_artifact(out_dir, name, passed, &summary) {
        eprintln!("doda-bench: cannot record the {name} guard: {e}");
        return ExitCode::FAILURE;
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders the one-line-per-guard table over every `BENCH_guard_*.json`
/// in `dir` — the CI step that condenses a perf-smoke run into one
/// readable block. Fails if the directory holds no guard records or any
/// record reports a failure.
fn guard_summary_table(dir: &std::path::Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rows: Vec<(String, bool, String)> = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
            continue;
        };
        if !file.starts_with("BENCH_guard_") || !file.ends_with(".json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("{}: missing field: {key}", path.display()))
        };
        let name = field("guard")?
            .as_str()
            .ok_or_else(|| format!("{}: guard must be a string", path.display()))?
            .to_string();
        let passed = match field("passed")? {
            Json::Bool(b) => *b,
            _ => return Err(format!("{}: passed must be a bool", path.display())),
        };
        let summary = field("summary")?
            .as_str()
            .ok_or_else(|| format!("{}: summary must be a string", path.display()))?
            .to_string();
        rows.push((name, passed, summary));
    }
    if rows.is_empty() {
        return Err(format!(
            "{}: no BENCH_guard_*.json records found",
            dir.display()
        ));
    }
    rows.sort();
    let width = rows.iter().map(|(name, ..)| name.len()).max().unwrap_or(0);
    let mut failed = 0usize;
    for (name, passed, summary) in &rows {
        println!(
            "  {:<width$}  {}  {summary}",
            name,
            if *passed { "PASS" } else { "FAIL" },
        );
        failed += usize::from(!passed);
    }
    if failed > 0 {
        return Err(format!("{failed} guard(s) report failure"));
    }
    println!("all {} guards passed", rows.len());
    Ok(())
}

fn main() -> ExitCode {
    doda_bench::memory::mark_installed();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("doda-bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.experiments {
        print!("{}", experiments_markdown());
        return ExitCode::SUCCESS;
    }

    if !args.validate.is_empty() {
        return match validate_files(&args.validate) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("doda-bench: validation failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some((run, baseline)) = &args.compare {
        let tolerance = args.tolerance.unwrap_or(DEFAULT_TOLERANCE_PCT);
        return match compare_files(run, baseline, tolerance) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("doda-bench: perf gate failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.compare_runners {
        return match compare_runners() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("doda-bench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(dir) = &args.guard_summary {
        return match guard_summary_table(dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("doda-bench: guard summary failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let guards: [(&str, bool, GuardFn); 8] = [
        ("lane", args.lane_guard, lane_guard),
        ("stream", args.stream_guard, stream_guard),
        ("fault", args.fault_guard, fault_guard),
        ("round", args.round_guard, round_guard),
        ("service", args.service_guard, service_guard),
        ("scale", args.scale_guard, scale_guard),
        ("algebra", args.algebra_guard, algebra_guard),
        ("byzantine", args.byzantine_guard, byzantine_guard),
    ];
    for (name, requested, guard) in guards {
        if requested {
            return run_guard(name, &args.out_dir, guard);
        }
    }

    println!(
        "running grid '{}' ({} algorithms x {} scenarios x {} node counts, {} trials/cell, \
         {} runnable cells)",
        args.grid.name,
        args.grid.algorithms.len(),
        args.grid.scenarios.len(),
        args.grid.ns.len(),
        args.grid.trials,
        args.grid.cell_count(),
    );
    let report = run_grid(&args.grid);
    for cell in &report.results {
        println!(
            "  {:<14} {:<17} {:<12} n={:<4} completed {}/{} mean {:>10} throughput {:>12.0} i/s",
            cell.algorithm,
            cell.workload,
            cell.mode,
            cell.n,
            cell.completed,
            cell.trials,
            cell.mean_interactions
                .map_or_else(|| "-".to_string(), |m| format!("{m:.0}")),
            cell.throughput_ips,
        );
    }

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("doda-bench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let path = args.out_dir.join(report.file_name());
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("doda-bench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} cells, {:.1} s wall clock, rev {})",
        path.display(),
        report.results.len(),
        report.wall_clock_secs,
        report.git_rev,
    );
    ExitCode::SUCCESS
}
