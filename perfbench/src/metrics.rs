//! Metric names and units, order statistics, peak memory, and the JSON
//! result line.

/// A metric the benchmark reports: its name and unit, exactly as
/// `BENCHMARK.json` declares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics of an untraced run (`--trace 0`), in output
/// order. Every workload reports every one of them.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("trials_per_s", "trials/s"),
    def("sessions_per_s", "sessions/s"),
    def("session_p50_ms", "ms"),
    def("session_tail_ms", "ms"),
    def("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run (`--trace 1`), in output order.
pub const PER_LAYER: &[MetricDef] = &[
    def("rng.ns_per_u64", "ns"),
    def("workloads.uniform_ns", "ns"),
    def("workloads.zipf_ns", "ns"),
    def("workloads.vehicular_ns", "ns"),
    def("workloads.fill_ms_per_trial", "ms"),
    def("knowledge.oracle_ms_per_trial", "ms"),
    def("knowledge.useful_ratio", "ratio"),
    def("engine.ns_per_interaction", "ns"),
    def("engine.audited_ns_per_interaction", "ns"),
    def("engine.step_for_ns_per_interaction", "ns"),
    def("fault.ns_per_event", "ns"),
    def("fault.events", "count"),
    def("lane.ns_per_interaction", "ns"),
    def("lane.occupancy", "ratio"),
    def("sweep.parallel_speedup", "x"),
    def("sweep.unattributed_frac", "ratio"),
    def("manager.slice_ms_p50", "ms"),
    def("manager.slice_ms_tail", "ms"),
    def("manager.sessions_per_slice", "sessions"),
    def("session.backpressure_refusals", "count"),
    def("session.inbox_high_water", "events"),
    def("session.events_after_finish", "count"),
    def("wire.event_codec_ns", "ns"),
    def("wire.result_codec_ns", "ns"),
    def("wire.bytes_per_event", "bytes"),
    def("wire.bytes_per_result", "bytes"),
    def("driver.lag_ms_max", "ms"),
    def("trace.overhead_frac", "ratio"),
];

/// Looks a metric up in both tables.
pub fn lookup(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .copied()
}

/// The median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at that percentile.
    pub value: f64,
    /// The percentile (0–100).
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, never below the median: with 2 × [`TAIL_BEYOND`] samples or fewer
/// no such percentile exists and the median stands in, reported as
/// percentile 50.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    let samples = values.len();
    if samples <= 2 * TAIL_BEYOND {
        return Tail {
            value: median(values),
            percentile: 50.0,
            samples,
        };
    }
    let sorted = sorted(values);
    let index = samples - TAIL_BEYOND - 1;
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / samples as f64,
        samples,
    }
}

/// The median over windows of each window's [`tail`], with the median
/// window's percentile and the total sample count. Empty windows are
/// skipped. A stall confined to a minority of windows cannot move it,
/// where it would set the tail of the pooled sample.
///
/// # Panics
///
/// Panics if every window is empty.
pub fn windowed_tail(windows: &[Vec<f64>]) -> Tail {
    let tails: Vec<Tail> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| tail(w))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let percentiles: Vec<f64> = tails.iter().map(|t| t.percentile).collect();
    Tail {
        value: median(&values),
        percentile: median(&percentiles),
        samples: tails.iter().map(|t| t.samples).sum(),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One reported metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The metric.
    pub def: MetricDef,
    /// Its measured value.
    pub value: f64,
}

/// Formats the result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit. Values print with all their
/// digits.
///
/// # Errors
///
/// Returns the name of the first metric whose value is not finite (JSON
/// has no representation for it).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[Value],
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(values.len());
    for v in values {
        if !v.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", v.def.name, v.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            v.def.name, v.value, v.def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn tail_of_a_small_sample_is_the_median() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.percentile, t.samples), (3.0, 50.0, 3));
        // Up to twenty samples, no percentile at or above the median has
        // ten samples beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty).value, median(&twenty));
        let t = tail(&(1..=21).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.samples), (11.0, 21));
    }

    #[test]
    fn windowed_tail_ignores_a_stalled_window() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let stalled: Vec<f64> = calm.iter().map(|v| v * 10.0).collect();
        let t = windowed_tail(&[calm.clone(), stalled, calm, Vec::new()]);
        assert_eq!((t.value, t.percentile, t.samples), (90.0, 90.0, 300));
    }

    #[test]
    fn result_line_rejects_non_finite_values() {
        let v = Value {
            def: END_TO_END[0],
            value: f64::NAN,
        };
        assert!(result_line(true, 1, 0, &[v]).is_err());
    }
}
