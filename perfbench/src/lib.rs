//! End-to-end and per-layer benchmark of the doda workspace.
//!
//! Three workloads, built from the workspace's public API:
//!
//! * `sweep-lanes` — knowledge-free batch sweeps that run on the lane
//!   tier, so the time goes to the sources' RNG and the lane kernel;
//! * `sweep-scalar` — scalar batch sweeps: materialized knowledge, the
//!   fault wrapper, the audited engine and the vehicular source;
//! * `service-mixed` — tenants through the service's client, loopback
//!   transport and endpoint: an open loop for latency, closed loops for
//!   capacity.
//!
//! An untraced run measures the end-to-end metrics and checks the
//! outputs. A traced run replays the named workload layer by layer, with
//! spans around the calls into each layer's public functions, plus a
//! smaller probe of the other two workloads, so that every per-layer
//! metric is measured; it checks that the replay reproduces the untraced
//! results. See `README.md` in this directory.

pub mod metrics;
pub mod service;
pub mod sweeps;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;

use doda_stats::rng::seeded_rng;
use rand::RngCore;

use crate::metrics::{
    lookup, median, tail, windowed_tail, MetricDef, Tail, Value, END_TO_END, PER_LAYER, TAIL_BEYOND,
};
use crate::sweeps::SweepWorkload;
use crate::trace::{span, LayerTime, Trace, Tracer};

/// How large a run's inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's workloads as defined.
    Full,
    /// Fewer trials and a shorter open loop, at full node counts: how a
    /// traced run covers the layers its named workload does not use.
    Probe,
    /// Small node counts and few trials, for the benchmark's own tests.
    Tiny,
}

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A batch-sweep workload.
    Sweep(SweepWorkload),
    /// The service workload.
    Service,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::Sweep(SweepWorkload::Lanes),
        Workload::Sweep(SweepWorkload::Scalar),
        Workload::Service,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep(w) => w.name(),
            Workload::Service => "service-mixed",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measurement runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Where a traced run writes its spans and report; `None` writes
    /// nothing.
    pub out_dir: Option<PathBuf>,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output checked was correct.
    pub correct: bool,
    /// Results, sessions and identities checked.
    pub attempted: u64,
    /// How many of them were wrong, failed or lost.
    pub failed: u64,
    /// The metrics, in the order `BENCHMARK.json` declares them.
    pub values: Vec<Value>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// The result line: the JSON object the run prints last.
    ///
    /// # Errors
    ///
    /// A metric that is not finite.
    pub fn result_line(&self) -> Result<String, String> {
        metrics::result_line(self.correct, self.attempted, self.failed, &self.values)
    }
}

/// Worker threads for sweeps and the service scheduler: the machine's
/// parallelism.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Runs the benchmark.
///
/// # Errors
///
/// A failure to measure at all: the service loop broke, peak memory is
/// unreadable, or the traced run could not write its files.
pub fn run(options: &Options) -> Result<Outcome, String> {
    if options.trace {
        run_traced(options)
    } else {
        run_untraced(options)
    }
}

fn value(name: &str, value: f64) -> Value {
    Value {
        def: lookup(name).unwrap_or_else(|| panic!("undeclared metric {name}")),
        value,
    }
}

/// Checks that `values` are exactly the declared metrics, in their order.
fn declared(defs: &[MetricDef], values: Vec<Value>) -> Vec<Value> {
    let names: Vec<_> = values.iter().map(|v| v.def.name).collect();
    let expected: Vec<_> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, expected, "a run reports every declared metric once");
    values
}

fn outcome(gate: Gate, values: Vec<Value>, mut lines: Vec<String>) -> Outcome {
    let failed = gate.failures.len() as u64;
    let attempted = gate.checked.max(1);
    lines.push(format!(
        "failed_frac = {} ratio ({failed} of {attempted} checks failed)",
        failed as f64 / attempted as f64
    ));
    lines.extend(gate.failures.iter().map(|f| format!("FAILED: {f}")));
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
        lines,
    }
}

/// What an untraced run measured.
struct EndToEnd {
    gate: Gate,
    setup_s: f64,
    trials_per_s: f64,
    sessions_per_s: f64,
    p50_ms: f64,
    tail: Tail,
    peak_rss_mib: Option<f64>,
}

/// What a correctness gate checked and what it found wrong.
#[derive(Debug, Default)]
pub struct Gate {
    /// Results, sessions and identities checked.
    pub checked: u64,
    /// One line per mismatch.
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one check.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Adds another gate's checks and failures to this one.
    pub fn merge(&mut self, other: Gate) {
        self.checked += other.checked;
        self.failures.extend(other.failures);
    }
}

fn run_untraced(options: &Options) -> Result<Outcome, String> {
    let workers = workers();
    let mut lines = vec![format!(
        "{} seed={} seconds={} workers={workers} (untraced)",
        options.workload.name(),
        options.seed,
        options.seconds
    )];
    let e = match options.workload {
        Workload::Sweep(workload) => {
            let cells = sweeps::cells(workload, options.scale);
            let m = sweeps::measure(&cells, options.seed, options.seconds, workers);
            let mut gate =
                sweeps::gate(workload, &cells, options.seed, options.scale, &m.reference);
            gate.checked += m.repeated;
            if m.nondeterministic > 0 {
                gate.failures.push(format!(
                    "{} trials of later passes differ from the first pass",
                    m.nondeterministic
                ));
            }
            for ((cell, results), times) in cells.iter().zip(&m.reference).zip(&m.cell_s) {
                let s = sweeps::CellStats::of(results);
                lines.push(format!(
                    "  {}: median {:.3} s per pass; {} trials, {} completed, mean {:.1} \
                     interactions to completion, {} processed, verdicts {:?}",
                    cell.label(),
                    median(times),
                    results.len(),
                    s.completed,
                    s.completion_sum as f64 / s.completed.max(1) as f64,
                    s.processed,
                    s.verdicts
                ));
            }
            lines.push(format!(
                "  {} passes of {} trials (a session is one pass), seconds: {:.3?}",
                m.pass_s.len(),
                m.trials_per_pass,
                m.pass_s
            ));
            // A cell's time varies from pass to pass independently of the
            // other cells', so the typical pass is estimated cell by cell:
            // the sum of every cell's median time.
            let pass = m.cell_s.iter().map(|times| median(times)).sum::<f64>();
            let pass_ms: Vec<f64> = m.pass_s.iter().map(|s| s * 1e3).collect();
            // A run of 2 × TAIL_BEYOND passes or fewer has no percentile
            // at or above the median with ten passes beyond it, so the
            // typical pass stands in.
            let tail = if pass_ms.len() > 2 * TAIL_BEYOND {
                tail(&pass_ms)
            } else {
                Tail {
                    value: pass * 1e3,
                    percentile: 50.0,
                    samples: pass_ms.len(),
                }
            };
            EndToEnd {
                gate,
                setup_s: median(&m.setup_s),
                trials_per_s: m.trials_per_pass as f64 / pass,
                sessions_per_s: 1.0 / pass,
                p50_ms: pass * 1e3,
                tail,
                peak_rss_mib: m.peak_rss_mib,
            }
        }
        Workload::Service => {
            let m = service::measure(options.seed, options.scale, options.seconds, workers)?;
            let peak_rss_mib = metrics::peak_rss_mib();
            let mut gate = service::gate(&m.drive)?;
            for batch in m.warm_ups.iter().chain(&m.capacity) {
                gate.merge(service::gate(batch)?);
            }
            let d = m.drive;
            lines.push(format!(
                "  {} sessions offered, {} completed in {:.3} s; generator lag at most {:.3} ms",
                d.attempted,
                d.latencies_ms.len(),
                d.elapsed_s,
                d.lag_ms_max
            ));
            if !d.external_ms.is_empty() {
                let t = tail(&d.external_ms);
                lines.push(format!(
                    "  externally-fed sessions alone: p50 {:.3} ms, p{:.2} {:.3} ms of {} samples",
                    median(&d.external_ms),
                    t.percentile,
                    t.value,
                    t.samples
                ));
            }
            if d.latencies_ms.is_empty() {
                return Err("no session completed".to_string());
            }
            let pooled = tail(&d.latencies_ms);
            lines.push(format!(
                "  session tail: median over {} half-second windows of each window's tail; \
                 the pooled p{:.2} of {} samples is {:.3} ms",
                d.windows_ms.len(),
                pooled.percentile,
                pooled.samples,
                pooled.value
            ));
            lines.push(format!(
                "  capacity: {:.1?} sessions/s completed in the closed loops",
                m.capacity_per_s
            ));
            // While the service keeps up, the open loop completes sessions
            // at the rate it offers them; the closed loops measure what
            // the service can do.
            let capacity = median(&m.capacity_per_s);
            EndToEnd {
                gate,
                setup_s: median(&m.setup_s),
                trials_per_s: capacity,
                sessions_per_s: capacity,
                p50_ms: median(&d.latencies_ms),
                tail: windowed_tail(&d.windows_ms),
                peak_rss_mib,
            }
        }
    };
    let peak_rss_mib = e
        .peak_rss_mib
        .ok_or_else(|| "peak RSS (VmHWM) is unavailable".to_string())?;
    let tail = e.tail;
    let values = declared(
        END_TO_END,
        vec![
            value("setup_s", e.setup_s),
            value("trials_per_s", e.trials_per_s),
            value("sessions_per_s", e.sessions_per_s),
            value("session_p50_ms", e.p50_ms),
            value("session_tail_ms", tail.value),
            value("peak_rss_mb", peak_rss_mib),
        ],
    );
    for v in &values {
        let note = if v.def.name == "session_tail_ms" {
            format!(" (p{:.2} of {} samples)", tail.percentile, tail.samples)
        } else {
            String::new()
        };
        lines.push(format!("{} = {} {}{note}", v.def.name, v.value, v.def.unit));
    }
    Ok(outcome(e.gate, values, lines))
}

/// Draws from the workspace RNG in a span, counting the draws.
fn rng_probe(seed: u64, trace: &Trace) {
    const DRAWS: u64 = 1 << 22;
    let mut rng = seeded_rng(seed);
    span(Some(trace), "rng.next_u64", 0, || {
        for _ in 0..DRAWS {
            black_box(rng.next_u64());
        }
    });
    trace.borrow_mut().count("rng.next_u64", DRAWS);
}

/// Self-time nanoseconds per counted unit of a layer (0 if unused).
fn per_unit(layers: &BTreeMap<&'static str, LayerTime>, tracer: &Tracer, name: &str) -> f64 {
    let units = tracer.counter(name);
    let self_ns = layers.get(name).map_or(0, |l| l.self_ns);
    if units == 0 {
        0.0
    } else {
        self_ns as f64 / units as f64
    }
}

/// Self-time milliseconds per call of a layer (0 if unused).
fn ms_per_call(layers: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
    layers
        .get(name)
        .filter(|l| l.calls > 0)
        .map_or(0.0, |l| l.self_ns as f64 / 1e6 / l.calls as f64)
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Spans that only group others: their self time is the replay's glue.
const CONTAINERS: &[&str] = &["sweep.cell", "trial", "lane.batch"];

fn run_traced(options: &Options) -> Result<Outcome, String> {
    let workers = workers();
    let seed = options.seed;
    let trace = Trace::default();
    let mut next_id = 1;
    let mut gate = Gate::default();
    let mut lines = vec![format!(
        "{} seed={seed} seconds={} workers={workers} (traced; the other workloads run at probe size)",
        options.workload.name(),
        options.seconds
    )];
    let scale_of = |w: Workload| match (options.scale, w == options.workload) {
        (Scale::Tiny, _) => Scale::Tiny,
        (scale, true) => scale,
        (_, false) => Scale::Probe,
    };

    let mut swept = Vec::new();
    for workload in [SweepWorkload::Lanes, SweepWorkload::Scalar] {
        let scale = scale_of(Workload::Sweep(workload));
        let cells = sweeps::cells(workload, scale);
        let traced = sweeps::trace(workload, &cells, seed, workers, &trace, &mut next_id);
        gate.merge(sweeps::gate(
            workload,
            &cells,
            seed,
            scale,
            &traced.reference,
        ));
        gate.checked += traced.replayed;
        gate.failures.extend(traced.mismatches.iter().cloned());
        swept.push(traced);
    }
    let scale = scale_of(Workload::Service);
    let served = service::trace(seed, scale, options.seconds, workers, &trace)?;
    gate.merge(service::gate(&served.drive)?);
    gate.checked += served.replayed + served.frames + served.pressure.sessions;
    gate.failures.extend(served.mismatches.iter().cloned());
    rng_probe(seed, &trace);

    let tracer = trace.into_inner();
    let layers = tracer.all_layer_times();
    let roots = tracer.roots();
    let self_ns = tracer.self_ns();
    let serial_s: f64 = swept.iter().map(|s| s.serial_s).sum();
    let parallel_s: f64 = swept.iter().map(|s| s.parallel_s).sum();
    let replay_s: f64 = swept.iter().map(|s| s.replay_s).sum();
    let sweep_roots: Vec<usize> = swept.iter().map(|s| s.root).collect();
    let parts_s: f64 = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|&(i, s)| {
            sweep_roots.contains(&roots[i]) && i != roots[i] && !CONTAINERS.contains(&s.name)
        })
        .map(|(i, _)| self_ns[i] as f64 / 1e9)
        .sum();
    let d = &served.drive;
    let slice_tail = if d.pump_ms.is_empty() {
        0.0
    } else {
        tail(&d.pump_ms).value
    };
    let values = declared(
        PER_LAYER,
        vec![
            value("rng.ns_per_u64", per_unit(&layers, &tracer, "rng.next_u64")),
            value(
                "workloads.uniform_ns",
                per_unit(&layers, &tracer, "workloads.uniform"),
            ),
            value(
                "workloads.zipf_ns",
                per_unit(&layers, &tracer, "workloads.zipf"),
            ),
            value(
                "workloads.vehicular_ns",
                per_unit(&layers, &tracer, "workloads.vehicular"),
            ),
            value(
                "workloads.fill_ms_per_trial",
                ms_per_call(&layers, "workloads.fill"),
            ),
            value(
                "knowledge.oracle_ms_per_trial",
                ms_per_call(&layers, "knowledge.instantiate"),
            ),
            value(
                "knowledge.useful_ratio",
                ratio(
                    tracer.counter("knowledge.processed"),
                    tracer.counter("knowledge.materialized"),
                ),
            ),
            value(
                "engine.ns_per_interaction",
                per_unit(&layers, &tracer, "engine.run"),
            ),
            value(
                "engine.audited_ns_per_interaction",
                per_unit(&layers, &tracer, "engine.run_audited"),
            ),
            value(
                "engine.step_for_ns_per_interaction",
                per_unit(&layers, &tracer, "engine.step_for"),
            ),
            value(
                "fault.ns_per_event",
                per_unit(&layers, &tracer, "fault.source"),
            ),
            value("fault.events", tracer.counter("fault.events") as f64),
            value(
                "lane.ns_per_interaction",
                per_unit(&layers, &tracer, "lane.run_lanes"),
            ),
            value(
                "lane.occupancy",
                ratio(
                    tracer.counter("lane.run_lanes"),
                    tracer.counter("lane.capacity"),
                ),
            ),
            value("sweep.parallel_speedup", serial_s / parallel_s),
            value("sweep.unattributed_frac", 1.0 - parts_s / replay_s),
            value(
                "manager.slice_ms_p50",
                if d.pump_ms.is_empty() {
                    0.0
                } else {
                    median(&d.pump_ms)
                },
            ),
            value("manager.slice_ms_tail", slice_tail),
            value(
                "manager.sessions_per_slice",
                ratio(
                    d.stepped.iter().sum::<usize>() as u64,
                    d.stepped.len() as u64,
                ),
            ),
            value(
                "session.backpressure_refusals",
                served.pressure.refusals as f64,
            ),
            value(
                "session.inbox_high_water",
                served.pressure.high_water as f64,
            ),
            value("session.events_after_finish", d.events_after_finish as f64),
            value(
                "wire.event_codec_ns",
                per_unit(&layers, &tracer, "wire.event_codec"),
            ),
            value(
                "wire.result_codec_ns",
                per_unit(&layers, &tracer, "wire.result_codec"),
            ),
            value(
                "wire.bytes_per_event",
                ratio(
                    tracer.counter("wire.event_bytes"),
                    tracer.counter("wire.event_codec"),
                ),
            ),
            value(
                "wire.bytes_per_result",
                ratio(
                    tracer.counter("wire.result_bytes"),
                    tracer.counter("wire.result_codec"),
                ),
            ),
            value("driver.lag_ms_max", d.lag_ms_max),
            value("trace.overhead_frac", replay_s / serial_s - 1.0),
        ],
    );

    let report = report(&tracer, serial_s, parallel_s, replay_s, parts_s, &values);
    if let Some(dir) = &options.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = format!("{}-seed{seed}", options.workload.name());
        let spans = dir.join(format!("{stem}.spans.jsonl"));
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        let path = dir.join(format!("{stem}.report.txt"));
        std::fs::write(&path, &report).map_err(|e| format!("{}: {e}", path.display()))?;
        lines.push(format!(
            "spans: {} ({} spans); report: {}",
            spans.display(),
            tracer.spans().len(),
            path.display()
        ));
    }
    lines.extend(report.lines().map(str::to_string));
    Ok(outcome(gate, values, lines))
}

/// The traced run's report: self time per layer under each workload's
/// root span, the reconciliation against the untraced serial sweeps, and
/// every per-layer metric.
fn report(
    tracer: &Tracer,
    serial_s: f64,
    parallel_s: f64,
    replay_s: f64,
    parts_s: f64,
    values: &[Value],
) -> String {
    let roots = tracer.roots();
    let spans = tracer.spans();
    let mut out = String::new();
    for (index, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let layers = tracer.layer_times(|i| roots[i] == index);
        let total_ms = root.duration_ns() as f64 / 1e6;
        let _ = writeln!(out, "self time under {} ({total_ms:.1} ms):", root.name);
        let mut rows: Vec<_> = layers.into_iter().collect();
        rows.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
        for (name, layer) in rows {
            let self_ms = layer.self_ns as f64 / 1e6;
            let _ = writeln!(
                out,
                "  {name:<24} {:>8} calls {self_ms:>12.3} ms self {:>6.1}%",
                layer.calls,
                100.0 * self_ms / total_ms.max(f64::MIN_POSITIVE)
            );
        }
    }
    let _ = writeln!(
        out,
        "untraced sweeps: serial {serial_s:.3} s, parallel {parallel_s:.3} s; traced replay \
         {replay_s:.3} s, of which layer self time {parts_s:.3} s ({:.1}% of the untraced \
         serial pass)",
        100.0 * parts_s / serial_s
    );
    for v in values {
        let _ = writeln!(out, "{} = {} {}", v.def.name, v.value, v.def.unit);
    }
    out
}
