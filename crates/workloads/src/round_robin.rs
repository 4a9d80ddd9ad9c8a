//! Recurring-edge (round-robin) sequences.
//!
//! Theorem 4 assumes that "the interactions occurring at least once, occur
//! infinitely often". The round-robin workload realises that assumption on
//! a finite horizon: all pairs of the complete graph are replayed
//! cyclically, so every edge of the underlying graph recurs every
//! `|edges|` steps.

use doda_core::sequence::AdversaryView;
use doda_core::{Interaction, InteractionSource, Time};
use doda_graph::NodeId;

use crate::Workload;

/// Deterministic cyclic replay of a fixed edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinWorkload {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl RoundRobinWorkload {
    /// Round-robin over all pairs of `n ≥ 2` nodes (complete underlying graph).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn all_pairs(n: usize) -> Self {
        assert!(n >= 2, "need at least 2 nodes, got {n}");
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((NodeId(a), NodeId(b)));
            }
        }
        RoundRobinWorkload { n, edges }
    }

    /// The replayed edge list.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }
}

impl Workload for RoundRobinWorkload {
    fn node_count(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "round-robin"
    }

    fn source(&self, _seed: u64) -> Box<dyn InteractionSource + Send> {
        Box::new(RoundRobinSource {
            n: self.n,
            edges: self.edges.clone(),
            cursor: 0,
        })
    }
}

/// Streaming source behind [`RoundRobinWorkload`]: replays the edge list
/// cyclically forever (every edge recurs infinitely often — the Theorem 4
/// assumption).
#[derive(Debug, Clone)]
pub struct RoundRobinSource {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    cursor: usize,
}

impl InteractionSource for RoundRobinSource {
    // The stream never reads the view: the lane engine may pull it in
    // devirtualised batches.
    fn is_oblivious(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn next_interaction(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        let (a, b) = self.edges[self.cursor];
        self.cursor = (self.cursor + 1) % self.edges.len();
        Some(Interaction::new(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_pairs_cycle_covers_complete_graph() {
        let w = RoundRobinWorkload::all_pairs(5);
        assert_eq!(w.edges().len(), 10);
        let seq = w.generate(10, 0);
        assert!(seq.underlying_graph().is_complete());
    }

    #[test]
    fn every_edge_recurs() {
        let w = RoundRobinWorkload::all_pairs(4);
        let seq = w.generate(18, 0); // 3 full cycles of 6 edges
        for e in seq.underlying_graph().edges() {
            assert_eq!(seq.meeting_times(e.a, e.b).len(), 3);
        }
    }

    #[test]
    fn seed_is_irrelevant() {
        let w = RoundRobinWorkload::all_pairs(4);
        assert_eq!(w.generate(20, 1), w.generate(20, 2));
    }
}
