//! Empirical "with high probability" checks.
//!
//! The paper's w.h.p. statements assert that an event holds with
//! probability `> 1 − o(1/log n)`. On finite `n` we measure the fraction of
//! independent trials in which the event holds and compare it against
//! `1 − 1/log n` (the budget from the paper's definition, see
//! `whp_failure_budget`).

use doda_sim::{AlgorithmSpec, Scenario, Sweep};

/// Result of a w.h.p. check for one node count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhpPoint {
    /// Node count.
    pub n: usize,
    /// The bound (in interactions) the trials are checked against.
    pub bound: f64,
    /// Fraction of trials that completed within the bound.
    pub fraction_within: f64,
    /// The failure budget `1 / log n` allowed by the paper's definition.
    pub allowed_failure: f64,
}

impl WhpPoint {
    /// Returns `true` if the empirical failure rate is within the allowed
    /// budget (i.e. the w.h.p. claim is consistent with the measurements).
    pub fn holds(&self) -> bool {
        1.0 - self.fraction_within <= self.allowed_failure + 1e-9
    }
}

/// The paper's notion of "with high probability": an event `A_n` holds
/// w.h.p. if `P(A_n) > 1 − o(1/log n)` as `n → ∞` (footnote 1 of the
/// paper). This returns the failure-probability budget `1/log n` that
/// empirical failure rates are compared against, and 1.0 for `n ≤ 2`
/// where the budget is vacuous.
fn whp_failure_budget(n: usize) -> f64 {
    if n <= 2 {
        return 1.0;
    }
    1.0 / (n as f64).ln()
}

/// Measures, for each `n`, the fraction of trials in which `spec`
/// terminates within `bound(n)` interactions against the randomized
/// adversary.
pub fn check_within_bound<F>(
    spec: AlgorithmSpec,
    ns: &[usize],
    trials: usize,
    seed: u64,
    mut bound: F,
) -> Vec<WhpPoint>
where
    F: FnMut(usize) -> f64,
{
    ns.iter()
        .map(|&n| {
            let b = bound(n);
            let horizon =
                (b.ceil() as usize).max(doda_adversary::RandomizedAdversary::default_horizon(n));
            let raw = Sweep::scenario(spec, Scenario::Uniform)
                .n(n)
                .trials(trials)
                .horizon(Some(horizon))
                .seed(seed ^ ((n as u64) << 20))
                .run();
            let within = raw
                .iter()
                .filter(|r| {
                    r.interactions_to_completion()
                        .map(|x| x <= b)
                        .unwrap_or(false)
                })
                .count();
            WhpPoint {
                n,
                bound: b,
                fraction_within: within as f64 / trials.max(1) as f64,
                allowed_failure: whp_failure_budget(n),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_stats::harmonic;

    #[test]
    fn waiting_greedy_terminates_within_tau_whp() {
        // Theorem 10 / Corollary 3: WG with τ = n^{3/2}√log n finishes
        // within τ interactions w.h.p.
        let points = check_within_bound(
            AlgorithmSpec::WaitingGreedy { tau: None },
            &[16, 32, 64],
            10,
            7,
            |n| harmonic::waiting_greedy_tau(n) as f64,
        );
        for p in &points {
            assert!(
                p.fraction_within >= 0.8,
                "n={}: only {:.0}% of trials within τ={}",
                p.n,
                p.fraction_within * 100.0,
                p.bound
            );
        }
    }

    #[test]
    fn gathering_rarely_beats_the_nlogn_offline_bound() {
        // Gathering needs Θ(n²) interactions, so almost no trial finishes
        // within the offline-optimal n·H(n−1) bound once n is non-trivial.
        let points = check_within_bound(AlgorithmSpec::Gathering, &[32], 10, 3, |n| {
            harmonic::expected_full_knowledge_interactions(n)
        });
        assert!(points[0].fraction_within <= 0.2);
        assert!(points[0].allowed_failure > 0.0);
    }

    #[test]
    fn whp_budget_decreases() {
        assert_eq!(whp_failure_budget(2), 1.0);
        let b10 = whp_failure_budget(10);
        let b1000 = whp_failure_budget(1000);
        assert!(b1000 < b10);
        assert!((b1000 - 1.0 / 1000f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn holds_logic() {
        let p = WhpPoint {
            n: 100,
            bound: 1.0,
            fraction_within: 1.0,
            allowed_failure: 0.2,
        };
        assert!(p.holds());
        let q = WhpPoint {
            fraction_within: 0.5,
            ..p
        };
        assert!(!q.holds());
    }
}
