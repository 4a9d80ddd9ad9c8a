//! Graph substrate for the DODA (Distributed Online Data Aggregation)
//! reproduction.
//!
//! The paper "Distributed Online Data Aggregation in Dynamic Graphs"
//! (Bramas, Masuzawa, Tixeuil, ICDCS 2016) models a dynamic graph as a set
//! of nodes together with a sequence of pairwise interactions. Several of
//! its results refer to *static* graph notions derived from that sequence:
//!
//! * the **underlying graph** `G̅`, whose edges are the pairs of nodes that
//!   interact at least once (Section 3.2 of the paper);
//! * **spanning trees** of `G̅`, used by the algorithm of Theorems 4 and 5.
//!
//! This crate provides those notions from scratch (no external graph
//! library): adjacency-set and CSR graph representations, traversals,
//! connectivity, union-find, deterministic spanning trees, rooted-tree
//! utilities and a family of graph generators used by tests, examples and
//! benchmarks.
//!
//! # Example
//!
//! ```
//! use doda_graph::{AdjacencyGraph, NodeId, spanning_tree::deterministic_spanning_tree};
//!
//! let mut g = AdjacencyGraph::new(4);
//! g.add_edge(NodeId(0), NodeId(1));
//! g.add_edge(NodeId(1), NodeId(2));
//! g.add_edge(NodeId(2), NodeId(3));
//! g.add_edge(NodeId(3), NodeId(0));
//!
//! let tree = deterministic_spanning_tree(&g, NodeId(0)).expect("graph is connected");
//! assert_eq!(tree.len(), 4);
//! assert_eq!(tree.root(), NodeId(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adjacency;
pub mod csr;
pub mod generators;
pub mod node;
pub mod spanning_tree;
pub mod traversal;
pub mod tree;
pub mod underlying;
pub mod union_find;

pub use adjacency::AdjacencyGraph;
pub use csr::CsrGraph;
pub use node::NodeId;
pub use tree::RootedTree;
pub use underlying::underlying_graph;
pub use union_find::UnionFind;

/// An undirected edge between two nodes, stored in canonical (min, max) order.
///
/// Self-loops are not representable through [`Edge::new`], which panics on
/// equal endpoints; the DODA model never produces them (an interaction is a
/// pair of *distinct* nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// The smaller endpoint.
    pub a: NodeId,
    /// The larger endpoint.
    pub b: NodeId,
}

impl Edge {
    /// Creates a canonical edge from two distinct endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops are not part of the interaction model).
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert!(u != v, "self-loop edge {u:?} is not allowed");
        if u < v {
            Edge { a: u, b: v }
        } else {
            Edge { a: v, b: u }
        }
    }

    /// Returns the endpoint opposite to `x`, or `None` if `x` is not an endpoint.
    pub fn other(&self, x: NodeId) -> Option<NodeId> {
        if x == self.a {
            Some(self.b)
        } else if x == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Returns `true` if `x` is one of the endpoints.
    pub fn contains(&self, x: NodeId) -> bool {
        x == self.a || x == self.b
    }
}

impl From<(NodeId, NodeId)> for Edge {
    fn from((u, v): (NodeId, NodeId)) -> Self {
        Edge::new(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_is_canonical() {
        let e1 = Edge::new(NodeId(3), NodeId(1));
        let e2 = Edge::new(NodeId(1), NodeId(3));
        assert_eq!(e1, e2);
        assert_eq!(e1.a, NodeId(1));
        assert_eq!(e1.b, NodeId(3));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(NodeId(2), NodeId(2));
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(NodeId(0), NodeId(5));
        assert_eq!(e.other(NodeId(0)), Some(NodeId(5)));
        assert_eq!(e.other(NodeId(5)), Some(NodeId(0)));
        assert_eq!(e.other(NodeId(3)), None);
        assert!(e.contains(NodeId(0)));
        assert!(!e.contains(NodeId(1)));
    }

    #[test]
    fn edge_from_tuple() {
        let e: Edge = (NodeId(7), NodeId(2)).into();
        assert_eq!(e, Edge::new(NodeId(2), NodeId(7)));
    }
}
