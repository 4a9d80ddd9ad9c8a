//! The spanning-tree aggregation algorithm (underlying-graph knowledge).
//!
//! Theorem 4: when every node knows the underlying graph `G̅` and every
//! interaction that occurs at least once occurs infinitely often, the
//! following algorithm has finite (but unbounded) cost — "nodes can compute
//! a spanning tree `T` rooted at `s` (they compute the same tree, using
//! node identifiers); then, each node waits to receive the data from its
//! children and then transmits to its parent as soon as possible".
//! Theorem 5: when `G̅` is itself a tree, the same algorithm is optimal.

use doda_graph::{spanning_tree::deterministic_spanning_tree, AdjacencyGraph, NodeId, RootedTree};

use crate::algorithm::{Decision, DodaAlgorithm, InteractionContext};
use crate::interaction::Time;

/// Spanning-tree aggregation over a deterministically chosen spanning tree
/// of the underlying graph, rooted at the sink.
///
/// The node-level rule needs each node to know *which of its children have
/// already delivered their data*; this implementation keeps that memory
/// inside the algorithm (one counter per node), so
/// [`DodaAlgorithm::is_oblivious`] reports `false`. (The paper files the
/// algorithm under `D∅ODA(G̅)`, implicitly treating "what I have already
/// aggregated" as part of the node's data rather than as memory.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningTreeAggregation {
    tree: RootedTree,
    /// Number of children that have delivered their data, per node.
    received: Vec<usize>,
}

impl SpanningTreeAggregation {
    /// Builds the algorithm from the underlying graph `G̅` and the sink.
    ///
    /// Returns `None` if `G̅` is not connected (no spanning tree rooted at
    /// the sink exists, so the algorithm — and in fact any data
    /// aggregation — is impossible on such a dynamic graph).
    ///
    /// # Panics
    ///
    /// Panics if `sink` is out of range for the graph.
    pub fn from_underlying_graph(underlying: &AdjacencyGraph, sink: NodeId) -> Option<Self> {
        let tree = deterministic_spanning_tree(underlying, sink)?;
        let received = vec![0; underlying.node_count()];
        Some(SpanningTreeAggregation { tree, received })
    }

    /// The spanning tree the algorithm follows.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// Returns `true` if `v` has received data from all of its children and
    /// is therefore ready to forward to its parent.
    fn is_ready(&self, v: NodeId) -> bool {
        self.received
            .get(v.index())
            .is_some_and(|&r| r == self.tree.children(v).len())
    }
}

impl DodaAlgorithm for SpanningTreeAggregation {
    fn name(&self) -> &str {
        "SpanningTree"
    }

    fn decide(&mut self, ctx: &InteractionContext) -> Decision {
        if !ctx.both_own_data() {
            return Decision::Idle;
        }
        let (a, b) = ctx.interaction.pair();
        // A child that has gathered its whole subtree forwards to its parent.
        if self.tree.parent(a) == Some(b) && self.is_ready(a) {
            return Decision::Transmit {
                sender: a,
                receiver: b,
            };
        }
        if self.tree.parent(b) == Some(a) && self.is_ready(b) {
            return Decision::Transmit {
                sender: b,
                receiver: a,
            };
        }
        Decision::Idle
    }

    fn on_transmission(&mut self, _time: Time, _sender: NodeId, receiver: NodeId) {
        if let Some(slot) = self.received.get_mut(receiver.index()) {
            *slot += 1;
        }
    }

    fn reset(&mut self) {
        self.received.iter_mut().for_each(|r| *r = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::IdSet;
    use crate::engine::{run_with_id_sets, EngineConfig};
    use crate::sequence::InteractionSequence;
    use doda_graph::generators;

    #[test]
    fn construction_requires_connected_underlying_graph() {
        let mut g = AdjacencyGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        assert!(SpanningTreeAggregation::from_underlying_graph(&g, NodeId(0)).is_none());
        let path = generators::path_graph(4);
        let algo = SpanningTreeAggregation::from_underlying_graph(&path, NodeId(0)).unwrap();
        assert_eq!(algo.tree().root(), NodeId(0));
        assert_eq!(algo.name(), "SpanningTree");
        assert!(!algo.is_oblivious());
    }

    #[test]
    fn aggregates_along_a_path_tree() {
        // Underlying graph is the path 0-1-2-3 (a tree): Theorem 5 says the
        // algorithm is optimal. Give it a sequence where the path edges recur.
        let seq = InteractionSequence::from_pairs(
            4,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (0, 1),
                (1, 2),
                (2, 3),
                (0, 1),
                (1, 2),
                (0, 1),
            ],
        );
        let underlying = seq.underlying_graph();
        let mut algo =
            SpanningTreeAggregation::from_underlying_graph(&underlying, NodeId(0)).unwrap();
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(outcome.terminated());
        assert!(outcome.sink_data.as_ref().unwrap().covers_all(4));
        // Leaf 3 transmits first, then 2, then 1 — order respects the tree.
        let senders: Vec<_> = outcome.transmissions.iter().map(|t| t.sender).collect();
        assert_eq!(senders, vec![NodeId(3), NodeId(2), NodeId(1)]);
    }

    #[test]
    fn waits_for_children_before_forwarding() {
        // Node 1 is an internal node with child 2; the sequence offers 1 the
        // chance to transmit to the sink before it has heard from 2 — the
        // algorithm must decline that first opportunity.
        let seq = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2), (0, 1)]);
        let underlying = seq.underlying_graph();
        let mut algo =
            SpanningTreeAggregation::from_underlying_graph(&underlying, NodeId(0)).unwrap();
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(outcome.terminated());
        assert_eq!(outcome.termination_time, Some(2));
        assert_eq!(outcome.transmissions[0].sender, NodeId(2));
        assert_eq!(outcome.transmissions[1].sender, NodeId(1));
    }

    #[test]
    fn reset_clears_progress() {
        let seq = InteractionSequence::from_pairs(3, vec![(1, 2), (0, 1)]);
        let underlying = seq.underlying_graph();
        let mut algo =
            SpanningTreeAggregation::from_underlying_graph(&underlying, NodeId(0)).unwrap();
        let first = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(first.terminated());
        algo.reset();
        let second: crate::outcome::ExecutionOutcome<IdSet> = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(second.terminated());
        assert_eq!(first.termination_time, second.termination_time);
    }

    #[test]
    fn readiness_tracking() {
        let underlying = generators::star_graph(4); // 0 centre, leaves 1..3
        let algo = SpanningTreeAggregation::from_underlying_graph(&underlying, NodeId(0)).unwrap();
        // Leaves have no children, so they are immediately ready.
        assert!(algo.is_ready(NodeId(1)));
        // The sink/root has three children and has received nothing.
        assert!(!algo.is_ready(NodeId(0)));
    }
}
