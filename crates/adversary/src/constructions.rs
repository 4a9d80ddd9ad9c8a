//! The adversarial constructions used in the impossibility proofs.
//!
//! * [`AdaptiveTrap`] — Theorem 1: a 3-node online adaptive adversary under
//!   which **no** DODA algorithm terminates, while convergecasts remain
//!   possible forever (`cost = ∞`).
//! * [`ObliviousTrap`] — Theorem 2: an oblivious adversary defeating
//!   oblivious (randomized) algorithms w.h.p.: a star prefix that lures
//!   some node into transmitting, followed by a ring pattern in which the
//!   surviving data can never reach the sink.
//! * [`CycleTrap`] — Theorem 3: a 4-node online adaptive adversary showing
//!   that knowing the underlying graph `G̅` (here a 4-cycle) is not enough.

use doda_core::sequence::{AdversaryView, InteractionSource};
use doda_core::{Interaction, InteractionSequence, Time};
use doda_graph::NodeId;

use crate::oblivious::ObliviousAdversary;

/// The 3-node adaptive adversary of Theorem 1.
///
/// Nodes: sink `s = 0`, `a = 1`, `b = 2`. The adversary probes with the
/// interactions `{a, b}`, `{b, s}` in turn; as soon as the algorithm lets
/// any node transmit, it locks into a repeating pattern under which the
/// remaining data owner never meets the sink, so the algorithm can never
/// terminate — while a fresh convergecast remains possible in every
/// repeating pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveTrap {
    mode: TrapMode,
    /// Ownership snapshot taken when the previous interaction was issued,
    /// used to detect which node transmitted.
    prev: Option<(Interaction, Vec<bool>)>,
    /// Position inside the current repeating pattern.
    phase: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrapMode {
    /// Probing: alternate `{a, b}` and `{b, s}` until someone transmits.
    Probe,
    /// `a` transmitted to `b`: repeat `{a, s}`, `{a, b}` — `b` never meets `s`.
    LockAfterATransmitted,
    /// `b` transmitted to `a`: repeat `{b, s}`, `{a, b}` — `a` never meets `s`.
    LockAfterBTransmittedToA,
    /// `b` transmitted to `s`: repeat `{a, b}`, `{b, s}` — `a` never meets `s`.
    LockAfterBTransmittedToSink,
}

impl AdaptiveTrap {
    /// The sink used by the construction.
    pub const SINK: NodeId = NodeId(0);
    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);

    /// Creates the trap (always over exactly 3 nodes).
    pub fn new() -> Self {
        AdaptiveTrap {
            mode: TrapMode::Probe,
            prev: None,
            phase: 0,
        }
    }

    fn update_mode(&mut self, view: &AdversaryView<'_>) {
        let Some((prev_interaction, prev_owns)) = self.prev.take() else {
            return;
        };
        let lost = |v: NodeId| prev_owns[v.index()] && !view.owns(v);
        if prev_interaction == Interaction::new(Self::A, Self::B) {
            if lost(Self::A) {
                self.mode = TrapMode::LockAfterATransmitted;
                self.phase = 0;
            } else if lost(Self::B) {
                self.mode = TrapMode::LockAfterBTransmittedToA;
                self.phase = 0;
            }
        } else if prev_interaction == Interaction::new(Self::B, Self::SINK) && lost(Self::B) {
            self.mode = TrapMode::LockAfterBTransmittedToSink;
            self.phase = 0;
        }
    }
}

impl Default for AdaptiveTrap {
    fn default() -> Self {
        Self::new()
    }
}

impl InteractionSource for AdaptiveTrap {
    fn node_count(&self) -> usize {
        3
    }

    fn next_interaction(&mut self, _t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        self.update_mode(view);
        let pattern: &[Interaction] = match self.mode {
            TrapMode::Probe => &[
                Interaction::new(Self::A, Self::B),
                Interaction::new(Self::B, Self::SINK),
            ],
            TrapMode::LockAfterATransmitted => &[
                Interaction::new(Self::A, Self::SINK),
                Interaction::new(Self::A, Self::B),
            ],
            TrapMode::LockAfterBTransmittedToA => &[
                Interaction::new(Self::B, Self::SINK),
                Interaction::new(Self::A, Self::B),
            ],
            TrapMode::LockAfterBTransmittedToSink => &[
                Interaction::new(Self::A, Self::B),
                Interaction::new(Self::B, Self::SINK),
            ],
        };
        let interaction = pattern[self.phase % pattern.len()];
        self.phase += 1;
        self.prev = Some((interaction, view.owns_data.to_vec()));
        Some(interaction)
    }
}

/// The 4-node adaptive adversary of Theorem 3 (underlying graph = 4-cycle).
///
/// Nodes: sink `s = 0`, `u1 = 1`, `u2 = 2`, `u3 = 3`; the underlying graph
/// is the cycle `s–u1–u2–u3–s`. The adversary repeats the round
/// `({u1,s}, {u3,s}, {u2,u1}, {u2,u3})`; as soon as `u2` transmits towards
/// `u1` (resp. `u3`) it locks into a loop in which the receiver of `u2`'s
/// data never meets the sink. All interactions stay within the cycle, so
/// knowing `G̅` does not help, and convergecasts remain possible forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleTrap {
    mode: CycleMode,
    prev: Option<(Interaction, Vec<bool>)>,
    phase: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CycleMode {
    Round,
    /// `u2` transmitted to `u1`: repeat `({u1,u2}, {u2,u3}, {u3,s})`.
    LockedTowardU1,
    /// `u2` transmitted to `u3`: repeat `({u3,u2}, {u2,u1}, {u1,s})`.
    LockedTowardU3,
}

impl CycleTrap {
    /// The sink used by the construction.
    pub const SINK: NodeId = NodeId(0);
    const U1: NodeId = NodeId(1);
    const U2: NodeId = NodeId(2);
    const U3: NodeId = NodeId(3);

    /// Creates the trap (always over exactly 4 nodes).
    pub fn new() -> Self {
        CycleTrap {
            mode: CycleMode::Round,
            prev: None,
            phase: 0,
        }
    }

    /// The underlying graph of every sequence this adversary can produce:
    /// the 4-cycle `s–u1–u2–u3–s`.
    pub fn underlying_graph() -> doda_graph::AdjacencyGraph {
        let mut g = doda_graph::AdjacencyGraph::new(4);
        g.add_edge(Self::SINK, Self::U1);
        g.add_edge(Self::U1, Self::U2);
        g.add_edge(Self::U2, Self::U3);
        g.add_edge(Self::U3, Self::SINK);
        g
    }

    fn update_mode(&mut self, view: &AdversaryView<'_>) {
        let Some((prev_interaction, prev_owns)) = self.prev.take() else {
            return;
        };
        if self.mode != CycleMode::Round {
            return;
        }
        let u2_lost = prev_owns[Self::U2.index()] && !view.owns(Self::U2);
        if !u2_lost {
            return;
        }
        if prev_interaction == Interaction::new(Self::U2, Self::U1) {
            self.mode = CycleMode::LockedTowardU1;
            self.phase = 0;
        } else if prev_interaction == Interaction::new(Self::U2, Self::U3) {
            self.mode = CycleMode::LockedTowardU3;
            self.phase = 0;
        }
    }
}

impl Default for CycleTrap {
    fn default() -> Self {
        Self::new()
    }
}

impl InteractionSource for CycleTrap {
    fn node_count(&self) -> usize {
        4
    }

    fn next_interaction(&mut self, _t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        self.update_mode(view);
        let pattern: &[Interaction] = match self.mode {
            CycleMode::Round => &[
                Interaction::new(Self::U1, Self::SINK),
                Interaction::new(Self::U3, Self::SINK),
                Interaction::new(Self::U2, Self::U1),
                Interaction::new(Self::U2, Self::U3),
            ],
            CycleMode::LockedTowardU1 => &[
                Interaction::new(Self::U1, Self::U2),
                Interaction::new(Self::U2, Self::U3),
                Interaction::new(Self::U3, Self::SINK),
            ],
            CycleMode::LockedTowardU3 => &[
                Interaction::new(Self::U3, Self::U2),
                Interaction::new(Self::U2, Self::U1),
                Interaction::new(Self::U1, Self::SINK),
            ],
        };
        let interaction = pattern[self.phase % pattern.len()];
        self.phase += 1;
        self.prev = Some((interaction, view.owns_data.to_vec()));
        Some(interaction)
    }
}

/// The oblivious construction of Theorem 2: a star prefix `I^{l0}`
/// (interactions `{u_i, s}` in round-robin order) followed by the ring
/// pattern `I'` repeated forever, where `I'` walks the ring
/// `u_0, u_1, …, u_{n-2}` and contacts the sink only through `u_{d-1}`.
///
/// Any algorithm that transmitted during the prefix has created a "dead"
/// relay on the ring, and the data of `u_d` can then never reach the sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObliviousTrap {
    n: usize,
    l0: usize,
    d: usize,
}

impl ObliviousTrap {
    /// The sink used by the construction.
    pub const SINK: NodeId = NodeId(0);

    /// Creates the construction over `n ≥ 4` nodes: the star prefix has
    /// length `l0` and the protected node is `u_d` (`1 ≤ d ≤ n−2`,
    /// expressed as the ring index of the construction).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `d` is not a valid ring index (`0 < d < n−1`).
    pub fn new(n: usize, l0: usize, d: usize) -> Self {
        assert!(n >= 4, "the construction needs at least 4 nodes, got {n}");
        assert!(
            d > 0 && d < n - 1,
            "ring index d={d} must satisfy 0 < d < n-1"
        );
        ObliviousTrap { n, l0, d }
    }

    /// The construction tuned for the deterministic Gathering/Waiting
    /// algorithms: the very first star interaction makes Gathering transmit
    /// (`l0 = 1`), and `u_2` is a node that certainly still owns data.
    pub fn for_greedy_algorithms(n: usize) -> Self {
        ObliviousTrap::new(n, 1, 2)
    }

    /// Ring node `u_i` (ids `1..n-1` in round-robin, sink excluded).
    fn ring_node(&self, i: usize) -> NodeId {
        NodeId(1 + i % (self.n - 1))
    }

    /// The star prefix `I^{l0}`: interaction `i` is `{u_{i mod (n−1)}, s}`.
    fn star_prefix(&self) -> InteractionSequence {
        let mut seq = InteractionSequence::new(self.n);
        for i in 0..self.l0 {
            seq.push(Interaction::new(self.ring_node(i), Self::SINK));
        }
        seq
    }

    /// The repeated pattern `I'` of length `n − 1`.
    fn ring_pattern(&self) -> InteractionSequence {
        let mut seq = InteractionSequence::new(self.n);
        for i in 0..(self.n - 1) {
            if i == (self.d + self.n - 2) % (self.n - 1) {
                // Position d − 1 (mod n−1): the only contact with the sink.
                seq.push(Interaction::new(self.ring_node(i), Self::SINK));
            } else {
                seq.push(Interaction::new(self.ring_node(i), self.ring_node(i + 1)));
            }
        }
        seq
    }

    /// The full oblivious adversary: prefix followed by the ring pattern
    /// repeated forever.
    pub fn adversary(&self) -> ObliviousAdversary {
        ObliviousAdversary::with_cycle(self.star_prefix(), self.ring_pattern())
    }

    /// A finite materialisation of the first `len` interactions (useful for
    /// cost computations, which need a concrete sequence).
    pub fn materialize(&self, len: usize) -> InteractionSequence {
        self.adversary().materialize(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_core::prelude::*;

    fn run_trap<S, D>(
        source: &mut S,
        algo: &mut D,
        sink: NodeId,
        horizon: u64,
    ) -> ExecutionOutcome<IdSet>
    where
        S: InteractionSource + ?Sized,
        D: DodaAlgorithm + ?Sized,
    {
        engine::run_with_id_sets(
            algo,
            source,
            sink,
            EngineConfig::with_max_interactions(horizon),
        )
        .unwrap()
    }

    #[test]
    fn adaptive_trap_defeats_waiting_gathering_and_offline_heuristics() {
        // Theorem 1 claims *every* algorithm is defeated; check the paper's
        // concrete knowledge-free algorithms and a greedy variant.
        let horizon = 5_000;
        for algo in [
            Box::new(Waiting::new()) as Box<dyn DodaAlgorithm>,
            Box::new(Gathering::new()) as Box<dyn DodaAlgorithm>,
        ] {
            let mut algo = algo;
            let mut trap = AdaptiveTrap::new();
            let outcome = run_trap(&mut trap, algo.as_mut(), AdaptiveTrap::SINK, horizon);
            assert!(
                !outcome.terminated(),
                "{} should never terminate under the adaptive trap",
                algo.name()
            );
            assert_eq!(outcome.interactions_processed, horizon);
        }
    }

    #[test]
    fn adaptive_trap_keeps_convergecasts_possible() {
        // Materialise what the trap actually played against Gathering and
        // verify that optimal convergecasts kept being possible (cost grows
        // with the horizon — the signature of cost = ∞).
        let mut algo = Gathering::new();
        let mut trap = AdaptiveTrap::new();
        let horizon = 400;
        let _ = run_trap(&mut trap, &mut algo, AdaptiveTrap::SINK, horizon);
        // Replay the same decisions to record the sequence: the trap is
        // deterministic given the algorithm, so re-running reproduces it.
        let mut algo2 = Gathering::new();
        let mut trap2 = AdaptiveTrap::new();
        let outcome = run_trap(&mut trap2, &mut algo2, AdaptiveTrap::SINK, horizon);
        assert!(!outcome.terminated());
        // Re-materialise the trap's sequence by driving it with a fresh
        // Gathering run (ownership evolves identically).
        let mut trap3 = AdaptiveTrap::new();
        let mut algo3 = Gathering::new();
        let mut seq = InteractionSequence::new(3);
        {
            // Manual engine-like loop that also records the interactions.
            use doda_core::sequence::AdversaryView;
            let mut state_owns = vec![true, true, true];
            for t in 0..horizon {
                let view = AdversaryView {
                    owns_data: &state_owns,
                    sink: AdaptiveTrap::SINK,
                };
                let interaction = trap3.next_interaction(t, &view).unwrap();
                seq.push(interaction);
                let ctx = InteractionContext {
                    time: t,
                    interaction,
                    min_owns_data: state_owns[interaction.min().index()],
                    max_owns_data: state_owns[interaction.max().index()],
                    sink: AdaptiveTrap::SINK,
                };
                if let Decision::Transmit { sender, receiver } = algo3.decide(&ctx) {
                    if ctx.both_own_data() && sender != AdaptiveTrap::SINK {
                        state_owns[sender.index()] = false;
                        let _ = receiver;
                    }
                }
            }
        }
        let convergecasts =
            convergecast::successive_convergecast_times(&seq, AdaptiveTrap::SINK, 50);
        assert!(
            convergecasts.len() >= 50,
            "convergecasts should remain possible throughout (got {})",
            convergecasts.len()
        );
    }

    #[test]
    fn cycle_trap_defeats_graph_aware_spanning_tree() {
        // Theorem 3: even knowing G̅ (the 4-cycle), aggregation fails.
        let horizon = 5_000;
        let underlying = CycleTrap::underlying_graph();
        let mut algo =
            SpanningTreeAggregation::from_underlying_graph(&underlying, CycleTrap::SINK).unwrap();
        let mut trap = CycleTrap::new();
        let outcome = run_trap(&mut trap, &mut algo, CycleTrap::SINK, horizon);
        assert!(!outcome.terminated());

        // The knowledge-free algorithms fare no better.
        let mut gathering = Gathering::new();
        let mut trap = CycleTrap::new();
        let outcome = run_trap(&mut trap, &mut gathering, CycleTrap::SINK, horizon);
        assert!(!outcome.terminated());
    }

    #[test]
    fn cycle_trap_only_uses_cycle_edges() {
        let mut trap = CycleTrap::new();
        let mut algo = Gathering::new();
        // Drive the trap and collect the interactions it plays.
        let mut state_owns = vec![true; 4];
        let underlying = CycleTrap::underlying_graph();
        for t in 0..200 {
            let view = doda_core::sequence::AdversaryView {
                owns_data: &state_owns,
                sink: CycleTrap::SINK,
            };
            let interaction = trap.next_interaction(t, &view).unwrap();
            assert!(
                underlying.has_edge(interaction.min(), interaction.max()),
                "interaction {interaction} leaves the declared underlying graph"
            );
            let ctx = InteractionContext {
                time: t,
                interaction,
                min_owns_data: state_owns[interaction.min().index()],
                max_owns_data: state_owns[interaction.max().index()],
                sink: CycleTrap::SINK,
            };
            if let Decision::Transmit { sender, .. } = algo.decide(&ctx) {
                if ctx.both_own_data() && sender != CycleTrap::SINK {
                    state_owns[sender.index()] = false;
                }
            }
        }
    }

    #[test]
    fn oblivious_trap_sequence_structure() {
        let trap = ObliviousTrap::new(5, 3, 2);
        let prefix = trap.star_prefix();
        assert_eq!(prefix.len(), 3);
        // Every prefix interaction involves the sink.
        for ti in prefix.iter() {
            assert!(ti.interaction.involves(ObliviousTrap::SINK));
        }
        let pattern = trap.ring_pattern();
        assert_eq!(pattern.len(), 4);
        // Exactly one pattern interaction involves the sink.
        let sink_contacts = pattern
            .iter()
            .filter(|ti| ti.interaction.involves(ObliviousTrap::SINK))
            .count();
        assert_eq!(sink_contacts, 1);
    }

    #[test]
    fn oblivious_trap_defeats_gathering_and_waiting() {
        let horizon = 20_000;
        let trap = ObliviousTrap::for_greedy_algorithms(8);
        for algo in [
            Box::new(Gathering::new()) as Box<dyn DodaAlgorithm>,
            Box::new(Waiting::new()) as Box<dyn DodaAlgorithm>,
        ] {
            let mut algo = algo;
            let mut adv = trap.adversary();
            let outcome = run_trap(&mut adv, algo.as_mut(), ObliviousTrap::SINK, horizon);
            assert!(
                !outcome.terminated(),
                "{} should not terminate under the oblivious trap",
                algo.name()
            );
        }
    }

    #[test]
    fn oblivious_trap_keeps_convergecasts_possible() {
        let trap = ObliviousTrap::for_greedy_algorithms(6);
        let seq = trap.materialize(2_000);
        let convergecasts =
            convergecast::successive_convergecast_times(&seq, ObliviousTrap::SINK, 20);
        assert!(
            convergecasts.len() >= 20,
            "the trap sequence must keep admitting convergecasts, got {}",
            convergecasts.len()
        );
    }

    #[test]
    #[should_panic(expected = "at least 4 nodes")]
    fn oblivious_trap_rejects_small_n() {
        let _ = ObliviousTrap::new(3, 1, 1);
    }

    #[test]
    #[should_panic(expected = "must satisfy")]
    fn oblivious_trap_rejects_bad_d() {
        let _ = ObliviousTrap::new(5, 1, 0);
    }
}
