//! Golden-file and round-trip tests for the `BENCH_*.json` schema.

use doda_bench::json::Json;
use doda_bench::perf::{run_grid, validate_report, PerfGrid, SCHEMA_VERSION};

/// The committed perf-trajectory baseline at the repository root must keep
/// parsing and satisfying the schema the validator enforces — the golden
/// file every future PR's `doda-bench --baseline` run is compared against.
#[test]
fn committed_baseline_matches_the_schema() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(path).expect("BENCH_baseline.json is committed");
    let doc = Json::parse(&text).expect("baseline parses as JSON");
    validate_report(&doc).expect("baseline passes the schema check");

    assert_eq!(
        doc.get("schema_version").and_then(Json::as_f64),
        Some(SCHEMA_VERSION as f64)
    );
    assert_eq!(doc.get("scenario").and_then(Json::as_str), Some("baseline"));
    let results = doc.get("results").and_then(Json::as_array).unwrap();
    // The pinned grid: 3 algorithms x 10 scenarios x 3 node counts, minus
    // the skipped WaitingGreedy x adaptive columns, plus the 3 large-n
    // scale cells (schema v6).
    assert_eq!(results.len(), PerfGrid::baseline().cell_count());
    let declared: Vec<f64> = PerfGrid::baseline()
        .declared_ns()
        .into_iter()
        .map(|n| n as f64)
        .collect();
    let mut modes_seen = [false; 4];
    let mut survivor_completions = 0.0;
    for cell in results {
        let n = cell.get("n").and_then(Json::as_f64).unwrap();
        assert!(declared.contains(&n), "unexpected n = {n}");
        let throughput = cell.get("throughput_ips").and_then(Json::as_f64).unwrap();
        assert!(throughput > 0.0, "throughput must be positive");
        // Schema v6: the peak-heap column must be present; the committed
        // baseline is emitted by doda-bench, whose tracking allocator
        // reports real (positive) peaks.
        let peak = cell.get("peak_mem_bytes").and_then(Json::as_f64).unwrap();
        assert!(peak > 0.0, "peak_mem_bytes must be positive, got {peak}");
        match cell.get("mode").and_then(Json::as_str).unwrap() {
            "streamed" => modes_seen[0] = true,
            "materialized" => modes_seen[1] = true,
            "lanes" => modes_seen[2] = true,
            "hierarchical" => modes_seen[3] = true,
            other => panic!("unexpected mode {other}"),
        }
        // Schema v3: the completion split must add up, and fault-free
        // cells can never report survivor-only completions.
        let completed = cell.get("completed").and_then(Json::as_f64).unwrap();
        let aggregated = cell.get("aggregated").and_then(Json::as_f64).unwrap();
        let survivors = cell
            .get("aggregated_survivors")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(aggregated + survivors, completed);
        let fault_profile = cell.get("fault_profile").and_then(Json::as_str).unwrap();
        if fault_profile == "none" {
            assert_eq!(survivors, 0.0);
        }
        survivor_completions += survivors;
    }
    assert!(
        modes_seen.iter().all(|&seen| seen),
        "the baseline must cover all four execution tiers, saw {modes_seen:?} \
         for (streamed, materialized, lanes, hierarchical)"
    );
    assert!(
        survivor_completions > 0.0,
        "the baseline's faulted cells must record AggregatedSurvivors outcomes"
    );
    // The adversarial scenarios and both pinned fault profiles must be
    // present in the trajectory.
    for scenario in ["oblivious-trap", "adaptive-isolator"] {
        assert!(
            results
                .iter()
                .any(|c| c.get("workload").and_then(Json::as_str) == Some(scenario)),
            "baseline is missing the {scenario} scenario"
        );
    }
    for profile in ["crash(0.002)", "churn(0.002,0.004)"] {
        assert!(
            results
                .iter()
                .any(|c| c.get("fault_profile").and_then(Json::as_str) == Some(profile)),
            "baseline is missing the {profile} fault profile"
        );
    }
}

/// A freshly emitted report must round-trip through the parser and pass
/// the same validation CI applies to the uploaded artifact.
#[test]
fn emitted_smoke_report_round_trips_and_validates() {
    let report = run_grid(&PerfGrid::smoke());
    let text = report.to_json();
    let doc = Json::parse(&text).expect("emitted JSON parses");
    validate_report(&doc).expect("emitted JSON validates");
    assert_eq!(
        doc.get("seed").and_then(Json::as_f64),
        Some(report.seed as f64)
    );
    assert_eq!(
        doc.get("results").and_then(Json::as_array).map(<[_]>::len),
        Some(report.results.len())
    );
}
