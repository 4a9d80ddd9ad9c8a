//! Evolving-graph view of an interaction sequence.
//!
//! The paper's dynamic-graph model "is a simplification of the evolving
//! graph model where each static graph has a single edge" (Section 1).
//! [`EvolvingGraph`] gives exactly that view: a sequence of single-edge
//! snapshots indexed by their time of occurrence, plus window operations
//! (the static graph formed by the interactions inside a time window) used
//! by the analysis crate to reason about temporal connectivity.

use crate::{AdjacencyGraph, Edge, NodeId};

/// A finite evolving graph: `n` nodes plus one (optional) edge per time step.
///
/// A `None` snapshot models a time step where the adversary schedules no
/// interaction — the paper's sequences always have an edge at every index,
/// but the generality is convenient for trimming and splicing in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolvingGraph {
    n: usize,
    snapshots: Vec<Option<Edge>>,
}

impl EvolvingGraph {
    /// Creates an evolving graph over `n` nodes with no snapshots.
    pub fn new(n: usize) -> Self {
        EvolvingGraph {
            n,
            snapshots: Vec::new(),
        }
    }

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
                Some(Edge::new(u, v))
            })
            .collect();
        EvolvingGraph { n, snapshots }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of time steps (snapshots), including empty ones.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Returns `true` if there are no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Appends a snapshot containing the single edge `{u, v}`.
    pub fn push_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            u.index() < self.n && v.index() < self.n,
            "interaction {u}-{v} out of range for {} nodes",
            self.n
        );
        self.snapshots.push(Some(Edge::new(u, v)));
    }

    /// Appends an empty snapshot (no interaction at this time step).
    pub fn push_empty(&mut self) {
        self.snapshots.push(None);
    }

    /// The edge present at time `t`, if any (and if `t` is within range).
    pub fn edge_at(&self, t: usize) -> Option<Edge> {
        self.snapshots.get(t).copied().flatten()
    }

    /// Iterates over `(time, edge)` for the non-empty snapshots.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Edge)> + '_ {
        self.snapshots
            .iter()
            .enumerate()
            .filter_map(|(t, e)| e.map(|e| (t, e)))
    }

    /// The static graph formed by all interactions in the half-open time
    /// window `[from, to)` (clamped to the sequence length).
    fn window_graph(&self, from: usize, to: usize) -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(self.n);
        let to = to.min(self.snapshots.len());
        if from >= to {
            return g;
        }
        for e in self.snapshots[from..to].iter().flatten() {
            g.add_edge(e.a, e.b);
        }
        g
    }

    /// The underlying graph `G̅` (union of all snapshots).
    pub fn underlying(&self) -> AdjacencyGraph {
        self.window_graph(0, self.snapshots.len())
    }

    /// Times at which node `u` is involved in an interaction, in order.
    pub fn times_involving(&self, u: NodeId) -> Vec<usize> {
        self.iter()
            .filter(|(_, e)| e.contains(u))
            .map(|(t, _)| t)
            .collect()
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
        assert_eq!(eg.edge_at(1), Some(Edge::new(NodeId(1), NodeId(2))));
        assert_eq!(eg.edge_at(10), None);
    }

    #[test]
    fn empty_snapshots_are_skipped_by_iter() {
        let mut eg = EvolvingGraph::new(3);
        eg.push_edge(NodeId(0), NodeId(1));
        eg.push_empty();
        eg.push_edge(NodeId(1), NodeId(2));
        assert_eq!(eg.len(), 3);
        let times: Vec<_> = eg.iter().map(|(t, _)| t).collect();
        assert_eq!(times, vec![0, 2]);
        assert_eq!(eg.edge_at(1), None);
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
    fn times_involving_a_node() {
        let eg = sample();
        assert_eq!(eg.times_involving(NodeId(1)), vec![0, 1, 3]);
        assert_eq!(eg.times_involving(NodeId(3)), vec![2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pair_panics() {
        let _ = EvolvingGraph::from_pairs(2, vec![(NodeId(0), NodeId(5))]);
    }
}
