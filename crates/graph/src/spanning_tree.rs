//! Spanning-tree construction.
//!
//! Theorem 4 of the paper relies on every node deterministically computing
//! *the same* spanning tree of the underlying graph `G̅` from the node
//! identifiers alone. [`deterministic_spanning_tree`] provides exactly that
//! (a Kruskal-style scan of edges in canonical id order).

use crate::{traversal::bfs, tree::RootedTree, AdjacencyGraph, NodeId, UnionFind};

/// Builds a deterministic spanning tree of `g` rooted at `root` using a
/// Kruskal-style scan of the edges in canonical (id-sorted) order.
///
/// All nodes that share the same view of `G̅` compute the same tree — this
/// is the property required by the algorithm of Theorem 4 of the paper.
/// Returns `None` if `g` is not connected.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn deterministic_spanning_tree(g: &AdjacencyGraph, root: NodeId) -> Option<RootedTree> {
    let n = g.node_count();
    assert!(root.index() < n, "root {root} out of range for {n} nodes");
    let mut uf = UnionFind::new(n);
    let mut forest = AdjacencyGraph::new(n);
    for e in g.edges() {
        if uf.union(e.a, e.b) {
            forest.add_edge(e.a, e.b);
        }
    }
    if !uf.all_connected() && n > 1 {
        return None;
    }
    // Root the forest (now a tree) at `root` via BFS over tree edges only.
    let res = bfs(&forest, root);
    Some(RootedTree::from_parents(root, &res.parent))
}

/// Returns `true` if `tree` is a spanning tree of `g`: it contains every
/// node of `g` and every tree edge is an edge of `g`.
pub fn is_spanning_tree_of(tree: &RootedTree, g: &AdjacencyGraph) -> bool {
    if tree.len() != g.node_count() {
        return false;
    }
    tree.parent_edges().all(|(c, p)| g.has_edge(c, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_tree_fails_on_disconnected() {
        let mut g = AdjacencyGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        assert!(deterministic_spanning_tree(&g, NodeId(0)).is_none());
    }

    #[test]
    fn deterministic_tree_is_identical_for_all_roots_edgewise() {
        let g = generators::complete_graph(6);
        let t0 = deterministic_spanning_tree(&g, NodeId(0)).unwrap();
        let t3 = deterministic_spanning_tree(&g, NodeId(3)).unwrap();
        // The *edge set* is identical regardless of the root used to orient it.
        let mut e0 = t0.edges();
        let mut e3 = t3.edges();
        e0.sort();
        e3.sort();
        assert_eq!(e0, e3);
        assert!(is_spanning_tree_of(&t0, &g));
        assert!(is_spanning_tree_of(&t3, &g));
    }

    #[test]
    fn deterministic_tree_has_n_minus_1_edges() {
        for n in [2usize, 3, 5, 9, 17] {
            let g = generators::complete_graph(n);
            let t = deterministic_spanning_tree(&g, NodeId(0)).unwrap();
            assert_eq!(t.edges().len(), n - 1);
            assert_eq!(t.len(), n);
        }
    }

    #[test]
    fn tree_input_is_returned_unchanged_edgewise() {
        let g = generators::path_graph(5);
        let t = deterministic_spanning_tree(&g, NodeId(2)).unwrap();
        let mut edges = t.edges();
        edges.sort();
        let mut expected: Vec<_> = g.edges().collect();
        expected.sort();
        assert_eq!(edges, expected);
        assert_eq!(t.root(), NodeId(2));
    }

    #[test]
    fn single_node_graph() {
        let g = AdjacencyGraph::new(1);
        let t = deterministic_spanning_tree(&g, NodeId(0)).unwrap();
        assert_eq!(t.len(), 1);
        assert!(is_spanning_tree_of(&t, &g));
    }

    #[test]
    fn spanning_tree_check_rejects_foreign_edges() {
        let g = generators::path_graph(4);
        // Star tree rooted at 0 uses the edge 0-2 and 0-3 which path_graph lacks.
        let mut t = RootedTree::new(4, NodeId(0));
        t.attach(NodeId(1), NodeId(0));
        t.attach(NodeId(2), NodeId(0));
        t.attach(NodeId(3), NodeId(0));
        assert!(!is_spanning_tree_of(&t, &g));
    }
}
