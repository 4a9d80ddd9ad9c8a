//! Underlying graph extraction.
//!
//! Section 3.2 of the paper defines the underlying graph `G̅ = (V, E)` of a
//! dynamic graph as the static graph whose edges are the pairs of nodes
//! that interact at least once: `E = {(u, v) | ∃t, I_t = {u, v}}`.
//!
//! The functions here work on plain `(NodeId, NodeId)` pairs so that the
//! graph substrate stays independent of the interaction model defined in
//! `doda-core` (which depends on this crate).

use crate::{AdjacencyGraph, NodeId};

/// Builds the underlying graph `G̅` over `n` nodes from an iterator of
/// interaction pairs.
///
/// Repeated interactions contribute a single edge; self-pairs are rejected.
///
/// # Panics
///
/// Panics if a pair contains an out-of-range node or equal endpoints.
pub fn underlying_graph<I>(n: usize, interactions: I) -> AdjacencyGraph
where
    I: IntoIterator<Item = (NodeId, NodeId)>,
{
    let mut g = AdjacencyGraph::new(n);
    for (u, v) in interactions {
        g.add_edge(u, v);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn underlying_graph_deduplicates() {
        let pairs = vec![
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(0)),
            (NodeId(1), NodeId(2)),
        ];
        let g = underlying_graph(3, pairs);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(2)));
    }
}
