//! Scaling study: the headline comparison of the paper's Section 4, on a
//! small sweep (use `--full` for the benchmark-sized sweep, `--large` for
//! the million-node streamed regime).
//!
//! Reproduces the shapes of Theorems 7–11 against the uniform randomized
//! adversary: the offline optimum grows like `n log n`, Waiting Greedy like
//! `n^{3/2}√log n`, Gathering like `n²` and Waiting like `n² log n`, with
//! the ordering offline < WaitingGreedy < Gathering < Waiting at every `n`.
//!
//! `--large` skips the curve fits and instead demonstrates the large-n
//! regime directly: streamed Gathering trials at n = 10^5 and 10^6 under a
//! fixed interaction budget (peak state is O(n), so both fit comfortably in
//! memory).
//!
//! ```text
//! cargo run --release --example scaling_study [-- --full | -- --large]
//! ```

use doda::analysis::report::{exponents_to_markdown, scaling_to_markdown};
use doda::analysis::ScalingStudy;
use doda::prelude::*;
use doda::stats::harmonic;

/// One streamed Gathering trial at `n` under a fixed interaction budget:
/// prints wall-clock throughput and returns the interactions processed.
/// The tier is forced to `Scalar`, as in `doda-bench --scale-guard`:
/// `Auto` would put fault-free Gathering on the lane tier, and the printed
/// rate would not be the streamed scalar engine's.
fn streamed_point(n: usize, budget: usize) -> u64 {
    let t0 = std::time::Instant::now();
    let trials = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
        .n(n)
        .trials(1)
        .seed(0xD0DA)
        .horizon(Some(budget))
        .parallel(false)
        .tier(ExecutionTier::Scalar)
        .run();
    let secs = t0.elapsed().as_secs_f64();
    let processed = trials[0].interactions_processed;
    println!(
        "  n = {n:>9}: {processed} interactions streamed in {secs:5.2} s \
         ({:.0} i/s), terminated: {}",
        processed as f64 / secs.max(1e-9),
        trials[0].terminated(),
    );
    processed
}

/// The `--large` mode: the million-node streamed regime.
fn large_regime() {
    const BUDGET: usize = 2_000_000;

    println!("Large-n regime: streamed Gathering vs the uniform adversary, budget = {BUDGET}\n");
    for n in [100_000, 1_000_000] {
        streamed_point(n, BUDGET);
    }
    println!(
        "\nFlat completion at these n needs ~(n-1)^2 interactions \
         (10^10 at n = 10^5), so both runs starve: the point is that the \
         streamed engine sustains them in O(n) memory."
    );
}

fn main() {
    if std::env::args().any(|a| a == "--large") {
        large_regime();
        return;
    }
    let full = std::env::args().any(|a| a == "--full");
    let study = if full {
        ScalingStudy::benchmark()
    } else {
        ScalingStudy::quick()
    };
    println!(
        "Scaling study against the uniform randomized adversary: n ∈ {:?}, {} trials per point\n",
        study.ns, study.trials
    );

    let results = study.run_all(&AlgorithmSpec::randomized_comparison());

    println!("{}", scaling_to_markdown(&results));
    println!("{}", exponents_to_markdown(&results));

    println!("Closed-form expectations from the paper's proofs, for comparison:");
    for &n in &study.ns {
        println!(
            "  n = {n:4}: offline (n-1)H(n-1) = {:8.0}   Gathering (n-1)^2 = {:8.0}   Waiting n(n-1)H(n-1)/2 = {:9.0}   WG τ = {:8}",
            harmonic::expected_full_knowledge_interactions(n),
            harmonic::expected_gathering_interactions(n),
            harmonic::expected_waiting_interactions(n),
            harmonic::waiting_greedy_tau(n),
        );
    }
    println!(
        "\nExpected ordering at every n: OfflineOptimal < WaitingGreedy < Gathering < Waiting."
    );
}
