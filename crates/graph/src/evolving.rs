//! Evolving-graph view of an interaction sequence.
//!
//! The paper's dynamic-graph model "is a simplification of the evolving
//! graph model where each static graph has a single edge" (Section 1).
//! [`EvolvingGraph`] gives exactly that view: a sequence of single-edge
//! snapshots indexed by their time of occurrence, plus window operations
//! (the static graph formed by the interactions inside a time window) used
//! by the analysis crate to reason about temporal connectivity.

use crate::{AdjacencyGraph, Edge, NodeId};

/// A finite evolving graph: `n` nodes plus one edge per time step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolvingGraph {
    n: usize,
    snapshots: Vec<Edge>,
}

impl EvolvingGraph {
    /// Builds an evolving graph from a sequence of interaction pairs, one
    /// per time step starting at time 0.
    ///
    /// # Panics
    ///
    /// Panics if a pair has out-of-range or equal endpoints.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let snapshots = pairs
            .into_iter()
            .map(|(u, v)| {
                assert!(
                    u.index() < n && v.index() < n,
                    "interaction {u}-{v} out of range for {n} nodes"
                );
                Edge::new(u, v)
            })
            .collect();
        EvolvingGraph { n, snapshots }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of time steps (snapshots).
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Returns `true` if there are no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Iterates over `(time, edge)` for every snapshot.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Edge)> + '_ {
        self.snapshots.iter().copied().enumerate()
    }

    /// The static graph formed by all interactions in the half-open time
    /// window `[from, to)` (clamped to the sequence length).
    fn window_graph(&self, from: usize, to: usize) -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(self.n);
        let to = to.min(self.snapshots.len());
        if from >= to {
            return g;
        }
        for e in &self.snapshots[from..to] {
            g.add_edge(e.a, e.b);
        }
        g
    }

    /// The underlying graph `G̅` (union of all snapshots).
    pub fn underlying(&self) -> AdjacencyGraph {
        self.window_graph(0, self.snapshots.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EvolvingGraph {
        EvolvingGraph::from_pairs(
            4,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
                (NodeId(0), NodeId(1)),
            ],
        )
    }

    #[test]
    fn construction_and_lookup() {
        let eg = sample();
        assert_eq!(eg.len(), 4);
        assert_eq!(eg.node_count(), 4);
        assert_eq!(eg.iter().nth(1), Some((1, Edge::new(NodeId(1), NodeId(2)))));
        assert_eq!(eg.iter().count(), 4);
    }

    #[test]
    fn window_graph_respects_bounds() {
        let eg = sample();
        let w = eg.window_graph(1, 3);
        assert_eq!(w.edge_count(), 2);
        assert!(w.has_edge(NodeId(1), NodeId(2)));
        assert!(w.has_edge(NodeId(2), NodeId(3)));
        assert!(!w.has_edge(NodeId(0), NodeId(1)));
        // Degenerate / clamped windows.
        assert_eq!(eg.window_graph(3, 3).edge_count(), 0);
        assert_eq!(eg.window_graph(2, 100).edge_count(), 2);
        assert_eq!(eg.window_graph(5, 2).edge_count(), 0);
    }

    #[test]
    fn underlying_deduplicates() {
        let eg = sample();
        let g = eg.underlying();
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pair_panics() {
        let _ = EvolvingGraph::from_pairs(2, vec![(NodeId(0), NodeId(5))]);
    }
}
