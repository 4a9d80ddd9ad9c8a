//! Adversarial showdown: the impossibility constructions of Theorems 1–3,
//! plus the sweepable adversaries of the unified scenario registry.
//!
//! Runs the knowledge-free algorithms (and the spanning-tree algorithm,
//! where applicable) against the paper's adversarial constructions and
//! shows that none of them can finish, even though an offline optimal
//! schedule keeps existing (unbounded cost). All adversaries are streamed:
//! the engine pulls one interaction at a time, and the adaptive ones react
//! to the ownership state the algorithm leaves behind.
//!
//! ```text
//! cargo run --release --example adversarial_showdown
//! ```

use doda::adversary::{AdaptiveTrap, CycleTrap};
use doda::core::convergecast;
use doda::graph::NodeId;
use doda::prelude::*;
use doda::sim::table::Table;

fn run_once<S: InteractionSource + ?Sized>(
    source: &mut S,
    mut algorithm: Box<dyn DodaAlgorithm>,
    sink: NodeId,
    horizon: u64,
) -> (String, bool) {
    let outcome = engine::run_with_id_sets(
        algorithm.as_mut(),
        source,
        sink,
        EngineConfig::sweep(horizon),
    )
    .expect("valid decisions");
    (algorithm.name().to_string(), outcome.terminated())
}

fn main() {
    let horizon = 50_000;
    let mut table = Table::new([
        "adversary (theorem)",
        "algorithm",
        "terminated within horizon",
    ]);

    // Theorem 1 — 3-node adaptive trap, defeats every algorithm.
    for algo in [
        Box::new(Waiting::new()) as Box<dyn DodaAlgorithm>,
        Box::new(Gathering::new()) as Box<dyn DodaAlgorithm>,
    ] {
        let mut trap = AdaptiveTrap::new();
        let (name, terminated) = run_once(&mut trap, algo, AdaptiveTrap::SINK, horizon);
        table.push_row([
            "adaptive trap (Thm 1)".to_string(),
            name,
            terminated.to_string(),
        ]);
    }

    // Theorem 2 — oblivious star + ring trap, from the scenario registry.
    for algo in [
        Box::new(Waiting::new()) as Box<dyn DodaAlgorithm>,
        Box::new(Gathering::new()) as Box<dyn DodaAlgorithm>,
    ] {
        let mut adversary = Scenario::ObliviousTrap.source(16, 0);
        let (name, terminated) = run_once(adversary.as_mut(), algo, NodeId(0), horizon);
        table.push_row([
            "oblivious trap (Thm 2)".to_string(),
            name,
            terminated.to_string(),
        ]);
    }

    // Theorem 3 — 4-cycle adaptive trap vs the underlying-graph algorithm.
    let underlying = CycleTrap::underlying_graph();
    let spanning = SpanningTreeAggregation::from_underlying_graph(&underlying, CycleTrap::SINK)
        .expect("the 4-cycle is connected");
    for algo in [
        Box::new(spanning) as Box<dyn DodaAlgorithm>,
        Box::new(Gathering::new()) as Box<dyn DodaAlgorithm>,
    ] {
        let mut trap = CycleTrap::new();
        let (name, terminated) = run_once(&mut trap, algo, CycleTrap::SINK, horizon);
        table.push_row([
            "4-cycle trap (Thm 3)".to_string(),
            name,
            terminated.to_string(),
        ]);
    }

    // The sweepable adaptive isolator (any n): starves Waiting forever,
    // but lets an aggregating strategy push through.
    for algo in [
        Box::new(Waiting::new()) as Box<dyn DodaAlgorithm>,
        Box::new(Gathering::new()) as Box<dyn DodaAlgorithm>,
    ] {
        let mut adversary = Scenario::AdaptiveIsolator.source(16, 0);
        let (name, terminated) = run_once(adversary.as_mut(), algo, NodeId(0), horizon);
        table.push_row([
            "adaptive isolator (sweepable)".to_string(),
            name,
            terminated.to_string(),
        ]);
    }

    println!("Adversarial constructions, horizon = {horizon} interactions\n");
    println!("{}", table.to_markdown());

    // Adaptive adversaries are first-class sweep scenarios: Monte-Carlo
    // batches run streamed through the sharded runner.
    let (n, trials) = (64, 16);
    let raw = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::AdaptiveIsolator)
        .n(n)
        .trials(trials)
        .horizon(Some(100_000))
        .seed(7)
        .parallel(true)
        .run();
    let completed = raw.iter().filter(|r| r.terminated()).count();
    println!("\nSweeping the adaptive isolator (n = {n}, {trials} trials, sharded + streamed):");
    println!(
        "Gathering completed {completed}/{trials} trials, each with exactly n-1 = {} transmissions.",
        raw.first().map(|r| r.transmissions).unwrap_or(0),
    );

    // The traps are not vacuous: convergecasts keep existing on what they play.
    let seq = Scenario::ObliviousTrap
        .materialize(16, 10_000, 0)
        .expect("oblivious scenarios materialise");
    let possible = convergecast::successive_convergecast_times(&seq, NodeId(0), 100);
    println!(
        "\nOn the first 10,000 interactions of the Theorem 2 trap, {} successive optimal",
        possible.len()
    );
    println!("convergecasts fit — the algorithms above fail although aggregation stays possible,");
    println!("which is exactly the paper's notion of unbounded cost.");
}
