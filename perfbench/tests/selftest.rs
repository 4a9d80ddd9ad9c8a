//! The benchmark's own tests: metric names, the declared metric set, and
//! a tiny run of every workload, traced and untraced, on a held-out seed.

use doda_bench::json::Json;
use perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::sweeps::DEFAULT_SEED;
use perfbench::{run, Options, Scale, Workload};

/// A seed other than the pinned default: every identity the gate checks,
/// except the pinned statistics, must hold on it too.
const HELD_OUT_SEED: u64 = 0xD0DA;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entries have a {f}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn pairs(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed() {
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let name_ok = !def.name.is_empty()
            && def.name.len() <= 64
            && def
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
        assert!(
            name_ok,
            "metric name {:?} must match [A-Za-z0-9_.-]+",
            def.name
        );
        let unit_ok = !def.unit.is_empty()
            && def.unit.len() <= 16
            && def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'));
        assert!(unit_ok, "unit {:?} of {} is malformed", def.unit, def.name);
    }
    let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names are unique"
    );
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), pairs(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), pairs(PER_LAYER));
    let workloads: Vec<_> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("BENCHMARK.json has a workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect();
    let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

/// Runs one tiny workload and checks its gate and its result line.
fn tiny_run(workload: Workload, trace: bool) {
    assert_ne!(HELD_OUT_SEED, DEFAULT_SEED);
    let outcome = run(&Options {
        workload,
        seed: HELD_OUT_SEED,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        out_dir: None,
    })
    .expect("the run measures");
    assert!(
        outcome.correct && outcome.failed == 0,
        "{} (trace {trace}) failed its gate:\n{}",
        workload.name(),
        outcome.lines.join("\n")
    );
    assert!(outcome.attempted > 0);

    let line = Json::parse(&outcome.result_line().expect("finite metrics")).expect("valid JSON");
    let Json::Object(fields) = &line else {
        panic!("the result line is an object")
    };
    let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Json::Object(metrics)) = line.get("metrics") else {
        panic!("metrics is an object")
    };
    let emitted: Vec<_> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("a unit")
                    .to_string(),
            )
        })
        .collect();
    let defs = if trace { PER_LAYER } else { END_TO_END };
    assert_eq!(emitted, pairs(defs));
}

#[test]
fn tiny_sweep_lanes_passes_its_gate() {
    tiny_run(Workload::by_name("sweep-lanes").expect("known"), false);
}

#[test]
fn tiny_sweep_scalar_passes_its_gate() {
    tiny_run(Workload::by_name("sweep-scalar").expect("known"), false);
}

#[test]
fn tiny_service_mixed_passes_its_gate() {
    tiny_run(Workload::by_name("service-mixed").expect("known"), false);
}

#[test]
fn tiny_traced_run_reproduces_every_workload() {
    tiny_run(Workload::by_name("sweep-scalar").expect("known"), true);
}
