//! Harmonic numbers and the closed-form expectations used by the paper.
//!
//! The proofs of Theorems 8 and 9 express expected interaction counts as
//! partial sums of harmonic-like series:
//!
//! * broadcast / convergecast with full knowledge (Thm 8):
//!   `E[X] = (n-1) · H(n-1)`;
//! * Waiting (Thm 9): `E[X_W] = n(n-1)/2 · H(n-1)`;
//! * Gathering (Thm 9): `E[X_G] = n(n-1) · Σ_{i=1}^{n-1} 1/(i(i+1))
//!   = n(n-1) · (1 - 1/n) = (n-1)²`.
//!
//! These exact values are what the experiment harness compares measured
//! averages against (the *shape* check of EXPERIMENTS.md).

/// The `n`-th harmonic number `H(n) = Σ_{i=1}^{n} 1/i` (with `H(0) = 0`).
pub fn harmonic(n: usize) -> f64 {
    (1..=n).map(|i| 1.0 / i as f64).sum()
}

/// Expected number of uniformly random interactions for a full-knowledge
/// broadcast/convergecast over `n` nodes (Theorem 8):
/// `(n-1) · H(n-1)`.
pub fn expected_full_knowledge_interactions(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    (n as f64 - 1.0) * harmonic(n - 1)
}

/// Expected number of interactions for the Waiting algorithm (Theorem 9):
/// `n(n-1)/2 · H(n-1)`.
pub fn expected_waiting_interactions(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    nf * (nf - 1.0) / 2.0 * harmonic(n - 1)
}

/// Expected number of interactions for the Gathering algorithm (Theorem 9):
/// `n(n-1) · Σ_{i=1}^{n-1} 1/(i(i+1)) = (n-1)²`.
pub fn expected_gathering_interactions(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    (nf - 1.0) * (nf - 1.0)
}

/// The recommended Waiting Greedy horizon `τ = n^{3/2} · sqrt(log n)`
/// (Corollary 3). Returns at least 1 for small `n`.
pub fn waiting_greedy_tau(n: usize) -> u64 {
    if n < 2 {
        return 1;
    }
    let nf = n as f64;
    let tau = nf.powf(1.5) * nf.ln().max(1.0).sqrt();
    tau.ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_small_values() {
        assert_eq!(harmonic(0), 0.0);
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn harmonic_grows_like_log() {
        let h = harmonic(100_000);
        let approx = (100_000f64).ln() + 0.577_215_664_9;
        assert!((h - approx).abs() < 1e-4);
    }

    #[test]
    fn closed_forms_match_direct_sums() {
        for n in [2usize, 3, 10, 50] {
            let nf = n as f64;
            // Thm 8 derivation: Σ n(n-1) / (2 i (n-i)) = (n-1) H(n-1).
            let broadcast: f64 = (1..n)
                .map(|i| nf * (nf - 1.0) / (2.0 * i as f64 * (nf - i as f64)))
                .sum();
            assert!(
                (broadcast - expected_full_knowledge_interactions(n)).abs() < 1e-9,
                "n={n}"
            );
            // Thm 9 Waiting: Σ n(n-1) / (2 (n-i)).
            let waiting: f64 = (1..n)
                .map(|i| nf * (nf - 1.0) / (2.0 * (nf - i as f64)))
                .sum();
            assert!(
                (waiting - expected_waiting_interactions(n)).abs() < 1e-9,
                "n={n}"
            );
            // Thm 9 Gathering: Σ n(n-1) / ((n-i+1)(n-i)) = (n-1)^2.
            let gathering: f64 = (1..n)
                .map(|i| nf * (nf - 1.0) / ((nf - i as f64 + 1.0) * (nf - i as f64)))
                .sum();
            assert!(
                (gathering - expected_gathering_interactions(n)).abs() < 1e-9,
                "n={n}"
            );
        }
    }

    #[test]
    fn tiny_n_edge_cases() {
        assert_eq!(expected_full_knowledge_interactions(1), 0.0);
        assert_eq!(expected_waiting_interactions(0), 0.0);
        assert_eq!(expected_gathering_interactions(1), 0.0);
        assert_eq!(waiting_greedy_tau(1), 1);
    }

    #[test]
    fn waiting_greedy_tau_is_between_nlogn_and_n2() {
        for n in [16usize, 64, 256, 1024] {
            let tau = waiting_greedy_tau(n) as f64;
            let nf = n as f64;
            assert!(tau > nf * nf.ln(), "tau should exceed n log n for n={n}");
            assert!(tau < nf * nf, "tau should be below n^2 for n={n}");
        }
    }

    #[test]
    fn expected_orderings_match_the_paper() {
        // offline < gathering < waiting for reasonable n.
        for n in [8usize, 32, 128] {
            let offline = expected_full_knowledge_interactions(n);
            let gath = expected_gathering_interactions(n);
            let wait = expected_waiting_interactions(n);
            assert!(offline < gath && gath < wait, "ordering violated for n={n}");
        }
    }
}
