//! Generic online adaptive adversaries.
//!
//! The online adaptive adversary "can use the past execution of the
//! algorithm to construct the next interaction" (Section 2.2). The engine
//! exposes exactly that power through the ownership view passed to
//! [`InteractionSource::next_interaction`]; [`IsolatorAdversary`] is the
//! *sweepable* adaptive strategy (any node count, `O(1)` amortised per
//! step), and the named constructions of the paper live in
//! [`crate::constructions`].

use doda_core::sequence::{AdversaryView, InteractionSource};
use doda_core::{Interaction, Time};
use doda_graph::NodeId;

/// The sweepable online adaptive adversary: it *isolates* the sink.
///
/// While at least two non-sink nodes still own data, the adversary pairs
/// the two smallest-id such owners — the sink never appears in an
/// interaction, so "meet the sink" strategies ([`Waiting`]) can make no
/// progress whatsoever. Only once a single non-sink owner remains (an
/// aggregating strategy such as [`Gathering`] drains everyone into one
/// node) is that owner finally granted a meeting with the sink.
///
/// This generalises the Theorem 1 trap's starvation idea to any node count
/// with a completion path, which makes adaptive adversaries *sweepable*:
/// Gathering terminates in exactly `n − 1` transmissions, Waiting runs to
/// the horizon. The strategy is deterministic and seed-independent.
///
/// Cost per step is `O(1)` amortised: the previously issued pair is
/// revalidated against the ownership view in constant time, and a linear
/// rescan happens only after a transmission changed ownership — at most
/// `n − 1` times per execution.
///
/// [`Waiting`]: doda_core::algorithms::Waiting
/// [`Gathering`]: doda_core::algorithms::Gathering
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsolatorAdversary {
    n: usize,
    cached: Option<(NodeId, NodeId)>,
}

impl IsolatorAdversary {
    /// Creates the adversary over `n ≥ 2` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (no pair of distinct nodes exists).
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2,
            "the isolator adversary needs at least 2 nodes, got {n}"
        );
        IsolatorAdversary { n, cached: None }
    }
}

impl InteractionSource for IsolatorAdversary {
    fn node_count(&self) -> usize {
        self.n
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        if t == 0 {
            // A fresh execution: a pair cached by a previous run (possibly
            // the sink-release pair) must not leak into this one.
            self.cached = None;
        }
        // Fast path: the pair issued last step is still jointly owning —
        // reissue it (no transmission happened, the picture is unchanged).
        if let Some((a, b)) = self.cached {
            if view.owns(a) && view.owns(b) {
                return Some(Interaction::new(a, b));
            }
        }
        // Slow path: ownership changed (or first step) — rescan for the
        // two smallest-id non-sink owners.
        let mut first = None;
        for i in 0..self.n {
            let v = NodeId(i);
            if v == view.sink || !view.owns(v) {
                continue;
            }
            match first {
                None => first = Some(v),
                Some(a) => {
                    self.cached = Some((a, v));
                    return Some(Interaction::new(a, v));
                }
            }
        }
        // A single non-sink owner remains: release it to the sink. (If
        // none remains the aggregation is already complete and the engine
        // never asks for another interaction — returning the sink pair is
        // unreachable but harmless.)
        let last = first?;
        self.cached = Some((last, view.sink));
        Some(Interaction::new(last, view.sink))
    }
}

/// The crash-aware online adaptive adversary: it targets the **current
/// owner set** and never lets anyone reach the sink.
///
/// Like [`IsolatorAdversary`] it pairs the two smallest-id non-sink
/// owners while at least two exist (same `O(1)` amortised cached-pair
/// revalidation), but it has no endgame release: once a single non-sink
/// owner remains, it pairs that owner with the smallest-id non-owner
/// non-sink node — a wasted contact — forever. Against a fault-free
/// execution this starves *every* knowledge-free algorithm (Gathering
/// included, unlike the plain isolator). Layered under a crash fault
/// plan it is the worst case the fault model opens up: the adversary
/// keeps data away from the sink so that crashes, not transmissions,
/// decide each datum's fate — exactly the regime where survivor-only
/// completion appears.
///
/// The ownership view already reflects crashes and churn (dead nodes own
/// nothing), so the cached-pair revalidation reacts to fault events for
/// free: an isolation pair is reissued only while both endpoints still
/// own data, a wasted pair only while its owner endpoint still owns and
/// its dud still does not — so the endgame stays `O(1)` amortised too,
/// rescanning only when ownership actually changes.
///
/// Deterministic and seed-independent; needs `n ≥ 3` so a wasted pair
/// avoiding the sink always exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashAwareIsolator {
    n: usize,
    cached: Option<(NodeId, NodeId)>,
    /// `true` when `cached` is an owner + dud wasted pair (validated as
    /// owner-still-owns / dud-still-does-not) rather than an isolation
    /// pair of two owners.
    cached_wasted: bool,
}

impl CrashAwareIsolator {
    /// Creates the adversary over `n ≥ 3` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (with only the sink and one other node, every
    /// pair would touch the sink).
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 3,
            "the crash-aware isolator needs at least 3 nodes, got {n}"
        );
        CrashAwareIsolator {
            n,
            cached: None,
            cached_wasted: false,
        }
    }
}

impl InteractionSource for CrashAwareIsolator {
    fn node_count(&self) -> usize {
        self.n
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        if t == 0 {
            self.cached = None;
            self.cached_wasted = false;
        }
        // Fast path: the issued pair is unchanged while the ownership
        // picture it was built on still holds — both endpoints owning for
        // an isolation pair; owner-still-owns and dud-still-does-not for
        // a wasted pair (an arrival giving the dud fresh data, or a fault
        // taking the owner, forces a rescan).
        if let Some((a, b)) = self.cached {
            let still_valid = if self.cached_wasted {
                view.owns(a) && !view.owns(b)
            } else {
                view.owns(a) && view.owns(b)
            };
            if still_valid {
                return Some(Interaction::new(a, b));
            }
        }
        // Rescan: the two smallest-id non-sink owners, or owner + dud.
        let mut first_owner = None;
        let mut first_dud = None;
        for i in 0..self.n {
            let v = NodeId(i);
            if v == view.sink {
                continue;
            }
            if view.owns(v) {
                match first_owner {
                    None => first_owner = Some(v),
                    Some(a) => {
                        self.cached = Some((a, v));
                        self.cached_wasted = false;
                        return Some(Interaction::new(a, v));
                    }
                }
            } else if first_dud.is_none() {
                first_dud = Some(v);
            }
        }
        // At most one non-sink owner left: waste the step on a pair that
        // never touches the sink. (With n ≥ 3 a dud always exists here.)
        let last = first_owner?;
        let dud = first_dud?;
        self.cached = Some((last, dud));
        self.cached_wasted = true;
        Some(Interaction::new(last, dud))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_core::prelude::*;

    #[test]
    fn isolator_starves_waiting_for_the_whole_horizon() {
        let mut adversary = IsolatorAdversary::new(16);
        let mut algo = Waiting::new();
        let outcome = engine::run_with_id_sets(
            &mut algo,
            &mut adversary,
            NodeId(0),
            EngineConfig::sweep(10_000),
        )
        .unwrap();
        assert!(!outcome.terminated());
        assert_eq!(outcome.interactions_processed, 10_000);
        assert_eq!(outcome.transmission_count(), 0);
    }

    #[test]
    fn isolator_lets_gathering_terminate_in_n_minus_1_transmissions() {
        for n in [2usize, 3, 8, 33] {
            let mut adversary = IsolatorAdversary::new(n);
            let mut algo = Gathering::new();
            let outcome = engine::run_with_id_sets(
                &mut algo,
                &mut adversary,
                NodeId(0),
                EngineConfig::with_max_interactions(10_000),
            )
            .unwrap();
            assert!(outcome.terminated(), "n = {n}");
            assert_eq!(outcome.transmission_count(), n - 1, "n = {n}");
            assert!(outcome.sink_data.as_ref().unwrap().covers_all(n));
        }
    }

    #[test]
    fn isolator_respects_a_non_zero_sink() {
        let mut adversary = IsolatorAdversary::new(6);
        let mut algo = Gathering::new();
        let outcome = engine::run_with_id_sets(
            &mut algo,
            &mut adversary,
            NodeId(3),
            EngineConfig::sweep(10_000),
        )
        .unwrap();
        assert!(outcome.terminated());
        assert!(outcome.sink_data.as_ref().unwrap().covers_all(6));
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn isolator_rejects_tiny_graphs() {
        let _ = IsolatorAdversary::new(1);
    }

    #[test]
    fn crash_aware_isolator_starves_even_gathering() {
        for n in [3usize, 8, 16] {
            for spec_name in ["waiting", "gathering"] {
                let mut adversary = CrashAwareIsolator::new(n);
                let outcome = if spec_name == "waiting" {
                    engine::run_with_id_sets(
                        &mut Waiting::new(),
                        &mut adversary,
                        NodeId(0),
                        EngineConfig::sweep(5_000),
                    )
                } else {
                    engine::run_with_id_sets(
                        &mut Gathering::new(),
                        &mut adversary,
                        NodeId(0),
                        EngineConfig::sweep(5_000),
                    )
                }
                .unwrap();
                assert!(
                    !outcome.terminated(),
                    "{spec_name} must starve forever at n = {n}"
                );
                assert_eq!(outcome.interactions_processed, 5_000);
                // No transmission ever reaches the sink.
                assert_eq!(outcome.sink_data.as_ref().unwrap().len(), 1);
            }
        }
    }

    #[test]
    fn crash_aware_isolator_never_touches_the_sink() {
        // Drive the adversary against Gathering by hand and record every
        // emitted pair: none may involve the sink, before or after the
        // owner set collapses to a single node.
        let n = 10;
        let sink = NodeId(3);
        let mut adversary = CrashAwareIsolator::new(n);
        let mut algo = Gathering::new();
        let mut owns = vec![true; n];
        for t in 0..2_000u64 {
            let view = AdversaryView {
                owns_data: &owns,
                sink,
            };
            let interaction = adversary.next_interaction(t, &view).expect("never dry");
            assert!(
                !interaction.involves(sink),
                "pair {interaction} touches the sink at t = {t}"
            );
            let ctx = InteractionContext {
                time: t,
                interaction,
                min_owns_data: owns[interaction.min().index()],
                max_owns_data: owns[interaction.max().index()],
                sink,
            };
            if let Decision::Transmit { sender, .. } = algo.decide(&ctx) {
                if ctx.both_own_data() && sender != sink {
                    owns[sender.index()] = false;
                }
            }
        }
        // Gathering collapsed everything into one non-sink owner.
        let owners = owns.iter().filter(|&&b| b).count();
        assert_eq!(owners, 2, "sink plus the single surviving owner");
    }

    #[test]
    fn crash_aware_isolator_reacts_to_external_ownership_loss() {
        // Simulate fault-driven ownership loss (as a crash plan would
        // produce): whenever the adversary's cached pair loses a member,
        // the rescan must still avoid the sink and target live owners.
        let n = 6;
        let mut adversary = CrashAwareIsolator::new(n);
        let mut owns = vec![true; n];
        let sink = NodeId(0);
        for t in 0..5u64 {
            let view = AdversaryView {
                owns_data: &owns,
                sink,
            };
            let interaction = adversary.next_interaction(t, &view).unwrap();
            assert!(!interaction.involves(sink));
            // Kill the smaller endpoint, as a crash fault would.
            owns[interaction.min().index()] = false;
        }
        // Everyone but the sink and one node is gone; the wasted pair
        // still avoids the sink.
        let view = AdversaryView {
            owns_data: &owns,
            sink,
        };
        let last = adversary.next_interaction(5, &view).unwrap();
        assert!(!last.involves(sink));
    }

    #[test]
    #[should_panic(expected = "at least 3 nodes")]
    fn crash_aware_isolator_rejects_tiny_graphs() {
        let _ = CrashAwareIsolator::new(2);
    }

    #[test]
    fn isolator_reuse_across_runs_resets_the_cached_pair() {
        // After a completed Gathering run the cache holds the sink-release
        // pair; a reused instance must not leak it into a fresh execution
        // (the isolation invariant starts over at t = 0).
        let mut adversary = IsolatorAdversary::new(8);
        let mut algo = Gathering::new();
        let first = engine::run_with_id_sets(
            &mut algo,
            &mut adversary,
            NodeId(0),
            EngineConfig::sweep(10_000),
        )
        .unwrap();
        assert!(first.terminated());

        // Second run, same instance: Waiting must still be starved — zero
        // transmissions, never a sink meeting while others own data.
        let mut waiting = Waiting::new();
        let second = engine::run_with_id_sets(
            &mut waiting,
            &mut adversary,
            NodeId(0),
            EngineConfig::with_max_interactions(2_000),
        )
        .unwrap();
        assert!(!second.terminated());
        assert_eq!(second.transmission_count(), 0);
    }
}
