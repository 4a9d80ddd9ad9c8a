//! Tree-restricted sequences.
//!
//! Theorem 5 states that the spanning-tree algorithm is *optimal* when the
//! underlying graph is a tree. This workload produces sequences whose
//! interactions are confined to the edges of a tree randomly generated
//! from the seed, each edge recurring throughout the sequence in
//! a random order.

use doda_core::sequence::AdversaryView;
use doda_core::{Interaction, InteractionSource, Time};
use doda_graph::{generators, AdjacencyGraph, NodeId};
use doda_stats::rng::{seeded_rng, DodaRng};
use rand::Rng;

use crate::Workload;

/// Interactions restricted to the edges of a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeRestrictedWorkload {
    n: usize,
}

impl TreeRestrictedWorkload {
    /// Sequences over a random tree derived from the generation seed.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn random_tree(n: usize) -> Self {
        assert!(n >= 2, "need at least 2 nodes, got {n}");
        TreeRestrictedWorkload { n }
    }

    /// The random tree a given seed derives.
    fn tree_for_seed(&self, seed: u64) -> AdjacencyGraph {
        let mut rng = seeded_rng(seed ^ TREE_SEED_MARKER);
        generators::random_tree_graph(self.n, &mut rng)
    }
}

/// A fixed marker mixed into the seed so the tree shape and the interaction
/// order are driven by independent random streams.
const TREE_SEED_MARKER: u64 = 0x5EED_7AEE_0000_0001;

impl Workload for TreeRestrictedWorkload {
    fn node_count(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "tree-restricted"
    }

    fn source(&self, seed: u64) -> Box<dyn InteractionSource + Send> {
        let tree = self.tree_for_seed(seed);
        Box::new(TreeRestrictedSource {
            n: self.n,
            edges: tree.edges().map(|e| (e.a, e.b)).collect(),
            rng: seeded_rng(seed),
        })
    }
}

/// Streaming source behind [`TreeRestrictedWorkload`]: a uniformly random
/// tree edge per step.
#[derive(Debug, Clone)]
pub struct TreeRestrictedSource {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    rng: DodaRng,
}

impl InteractionSource for TreeRestrictedSource {
    // The stream never reads the view: the lane engine may pull it in
    // devirtualised batches.
    fn is_oblivious(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn next_interaction(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        let (a, b) = self.edges[self.rng.gen_range(0..self.edges.len())];
        Some(Interaction::new(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interactions_stay_on_the_tree() {
        let w = TreeRestrictedWorkload::random_tree(12);
        let seed = 9;
        let tree = w.tree_for_seed(seed);
        let seq = w.generate(2_000, seed);
        for ti in seq.iter() {
            assert!(tree.has_edge(ti.interaction.min(), ti.interaction.max()));
        }
        // Underlying graph is (a subgraph of) the tree and, with 2000 draws
        // over at most 11 edges, almost surely the whole tree.
        assert_eq!(seq.underlying_graph().edge_count(), 11);
    }

    #[test]
    fn different_seeds_give_different_trees() {
        let w = TreeRestrictedWorkload::random_tree(10);
        let t1 = w.tree_for_seed(1);
        let t2 = w.tree_for_seed(2);
        assert_ne!(t1, t2);
    }
}
