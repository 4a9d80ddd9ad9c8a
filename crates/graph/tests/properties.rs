//! Property-based tests for the graph substrate.

use doda_graph::{
    generators, spanning_tree, traversal, underlying::underlying_graph, AdjacencyGraph, Edge,
    NodeId, UnionFind,
};
use proptest::prelude::*;

/// Strategy producing a random edge list over `n` nodes.
fn edge_list(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |pairs| {
        pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .collect::<Vec<_>>()
    })
}

proptest! {
    #[test]
    fn adjacency_edge_count_matches_distinct_edges(pairs in edge_list(12, 64)) {
        let mut g = AdjacencyGraph::new(12);
        let mut distinct = std::collections::HashSet::new();
        for &(a, b) in &pairs {
            g.add_edge(NodeId(a), NodeId(b));
            distinct.insert(Edge::new(NodeId(a), NodeId(b)));
        }
        prop_assert_eq!(g.edge_count(), distinct.len());
        // Every inserted edge is queryable in both directions.
        for e in &distinct {
            prop_assert!(g.has_edge(e.a, e.b));
            prop_assert!(g.has_edge(e.b, e.a));
        }
        // Handshake lemma.
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn csr_agrees_with_adjacency(pairs in edge_list(10, 40)) {
        let g = underlying_graph(10, pairs.iter().map(|&(a, b)| (NodeId(a), NodeId(b))));
        let csr = doda_graph::CsrGraph::from(&g);
        prop_assert_eq!(csr.node_count(), g.node_count());
        prop_assert_eq!(csr.edge_count(), g.edge_count());
        for u in g.nodes() {
            let a: Vec<_> = g.neighbors(u).collect();
            prop_assert_eq!(csr.neighbors(u), a.as_slice());
        }
    }

    #[test]
    fn bfs_distance_is_a_metric_on_connected_graphs(n in 2usize..20, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_tree_graph(n, &mut rng);
        let res = traversal::bfs(&g, NodeId(0));
        // All nodes reachable in a tree; distance bounded by n - 1; parent
        // distance is exactly one less.
        for v in g.nodes() {
            let d = res.distance[v.index()];
            prop_assert!(d.is_some());
            prop_assert!(d.unwrap() < n);
            if let Some(p) = res.parent[v.index()] {
                prop_assert_eq!(res.distance[p.index()].unwrap() + 1, d.unwrap());
            }
        }
    }

    #[test]
    fn union_find_set_count_matches_components(pairs in edge_list(14, 30)) {
        let g = underlying_graph(14, pairs.iter().map(|&(a, b)| (NodeId(a), NodeId(b))));
        let mut uf = UnionFind::new(14);
        for e in g.edges() {
            uf.union(e.a, e.b);
        }
        let comps = traversal::connected_components(&g);
        prop_assert_eq!(uf.set_count(), comps.len());
    }

    #[test]
    fn spanning_tree_of_connected_gnp_is_valid(n in 2usize..16, seed in 0u64..500) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        // Dense enough to usually be connected; skip the disconnected draws.
        let g = generators::gnp_graph(n, 0.6, &mut rng);
        if !traversal::is_connected(&g) {
            return Ok(());
        }
        let t = spanning_tree::deterministic_spanning_tree(&g, NodeId(0)).unwrap();
        prop_assert_eq!(t.len(), n);
        prop_assert!(spanning_tree::is_spanning_tree_of(&t, &g));
        prop_assert_eq!(t.edges().len(), n - 1);
        // Postorder puts every child before its parent.
        let order = t.postorder();
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for (c, p) in t.parent_edges() {
            prop_assert!(pos[&c] < pos[&p]);
        }
    }
}
