//! Adjacency-set graph representation.
//!
//! [`AdjacencyGraph`] is the mutable, general-purpose undirected graph used
//! throughout the reproduction: underlying graphs `G̅`, generator outputs,
//! and the graphs on which spanning trees are computed. It favours
//! simplicity and deterministic iteration order (neighbour sets are sorted)
//! over raw performance; the compact [`crate::CsrGraph`] is available for
//! large read-only graphs.

use std::collections::BTreeSet;

use crate::{Edge, NodeId};

/// A mutable undirected simple graph over dense node ids `0..n`.
///
/// Parallel edges and self-loops are rejected/ignored: adding an existing
/// edge is a no-op, adding a self-loop panics (consistent with the DODA
/// interaction model where interactions involve two distinct nodes).
///
/// # Example
///
/// ```
/// use doda_graph::{AdjacencyGraph, NodeId};
///
/// let mut g = AdjacencyGraph::new(3);
/// g.add_edge(NodeId(0), NodeId(1));
/// g.add_edge(NodeId(1), NodeId(2));
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(NodeId(1), NodeId(0)));
/// assert_eq!(g.degree(NodeId(1)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjacencyGraph {
    neighbors: Vec<BTreeSet<NodeId>>,
    edge_count: usize,
}

impl AdjacencyGraph {
    /// Creates an empty graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        AdjacencyGraph {
            neighbors: vec![BTreeSet::new(); n],
            edge_count: 0,
        }
    }

    /// Builds a graph with `n` nodes from an iterator of edges.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or if an edge is a self-loop.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = Edge>,
    {
        let mut g = AdjacencyGraph::new(n);
        for e in edges {
            g.add_edge(e.a, e.b);
        }
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edge_count == 0
    }

    /// Adds the undirected edge `{u, v}`. Returns `true` if the edge was new.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or if either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(u != v, "self-loop {u} is not allowed");
        assert!(
            u.index() < self.node_count() && v.index() < self.node_count(),
            "edge {u}-{v} out of range for {} nodes",
            self.node_count()
        );
        let inserted = self.neighbors[u.index()].insert(v);
        if inserted {
            self.neighbors[v.index()].insert(u);
            self.edge_count += 1;
        }
        inserted
    }

    /// Returns `true` if the edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors
            .get(u.index())
            .is_some_and(|s| s.contains(&v))
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors[u.index()].len()
    }

    /// Iterates over the neighbours of `u` in increasing id order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors[u.index()].iter().copied()
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + Clone {
        crate::node::node_range(self.node_count())
    }

    /// Iterates over all edges in canonical, deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.neighbors.iter().enumerate().flat_map(|(i, set)| {
            let u = NodeId(i);
            set.iter()
                .copied()
                .filter(move |v| u < *v)
                .map(move |v| Edge::new(u, v))
        })
    }

    /// Returns `true` if every pair of distinct nodes is joined by an edge.
    pub fn is_complete(&self) -> bool {
        let n = self.node_count();
        n < 2 || self.edge_count == n * (n - 1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g
    }

    #[test]
    fn add_and_query_edges() {
        let g = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut g = path3();
        assert!(!g.add_edge(NodeId(1), NodeId(0)));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path3();
        assert_eq!(g.degree(NodeId(1)), 2);
        let nbrs: Vec<_> = g.neighbors(NodeId(1)).collect();
        assert_eq!(nbrs, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn edges_iteration_is_canonical_and_complete() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                Edge::new(NodeId(0), NodeId(1)),
                Edge::new(NodeId(1), NodeId(2))
            ]
        );
    }

    #[test]
    fn from_edges_builder() {
        let g = AdjacencyGraph::from_edges(
            4,
            [
                Edge::new(NodeId(0), NodeId(3)),
                Edge::new(NodeId(1), NodeId(2)),
            ],
        );
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(3), NodeId(0)));
    }

    #[test]
    fn completeness_check() {
        let mut g = AdjacencyGraph::new(3);
        assert!(!g.is_complete());
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        assert!(g.is_complete());
        assert!(AdjacencyGraph::new(1).is_complete());
        assert!(AdjacencyGraph::new(0).is_complete());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = AdjacencyGraph::new(2);
        g.add_edge(NodeId(0), NodeId(5));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = AdjacencyGraph::new(2);
        g.add_edge(NodeId(1), NodeId(1));
    }

    #[test]
    fn empty_graph_properties() {
        let g = AdjacencyGraph::new(0);
        assert_eq!(g.node_count(), 0);
        assert!(g.is_empty());
        assert_eq!(g.edges().count(), 0);
    }
}
