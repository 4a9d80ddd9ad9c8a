//! Static graph generators.
//!
//! These generators produce the underlying graphs used by the adversarial
//! constructions of the paper (paths, cycles, stars — Theorems 1–5), by the
//! tests, and by the workload generators in `doda-workloads`.

use crate::{AdjacencyGraph, NodeId};

/// Path graph `0 - 1 - 2 - … - (n-1)`.
pub fn path_graph(n: usize) -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new(n);
    for i in 1..n {
        g.add_edge(NodeId(i - 1), NodeId(i));
    }
    g
}

/// Cycle graph over `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3` (a cycle needs at least three nodes).
pub fn cycle_graph(n: usize) -> AdjacencyGraph {
    assert!(n >= 3, "a cycle requires at least 3 nodes, got {n}");
    let mut g = path_graph(n);
    g.add_edge(NodeId(n - 1), NodeId(0));
    g
}

/// Star graph with centre `0` and `n - 1` leaves.
pub fn star_graph(n: usize) -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new(n);
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId(i));
    }
    g
}

/// Complete graph over `n` nodes.
pub fn complete_graph(n: usize) -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(NodeId(i), NodeId(j));
        }
    }
    g
}

/// Random tree over `n` nodes built with a random-attachment process: node
/// `i` attaches to a uniformly chosen earlier node. Deterministic given the
/// caller's RNG.
pub fn random_tree_graph<R: rand::Rng>(n: usize, rng: &mut R) -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_edge(NodeId(parent), NodeId(i));
    }
    g
}

/// Erdős–Rényi `G(n, p)` random graph. Deterministic given the caller's RNG.
pub fn gnp_graph<R: rand::Rng>(n: usize, p: f64, rng: &mut R) -> AdjacencyGraph {
    assert!(
        (0.0..=1.0).contains(&p),
        "probability p={p} must be in [0, 1]"
    );
    let mut g = AdjacencyGraph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn path_counts() {
        let g = path_graph(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(2)), 2);
        assert!(is_connected(&g));
    }

    #[test]
    fn path_degenerate_sizes() {
        assert_eq!(path_graph(0).node_count(), 0);
        assert_eq!(path_graph(1).edge_count(), 0);
    }

    #[test]
    fn cycle_counts() {
        let g = cycle_graph(4);
        assert_eq!(g.edge_count(), 4);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn cycle_rejects_small_n() {
        let _ = cycle_graph(2);
    }

    #[test]
    fn star_counts() {
        let g = star_graph(6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(NodeId(0)), 5);
        assert_eq!(g.degree(NodeId(3)), 1);
    }

    #[test]
    fn complete_counts() {
        let g = complete_graph(5);
        assert_eq!(g.edge_count(), 10);
        assert!(g.is_complete());
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for n in [1usize, 2, 10, 50] {
            let g = random_tree_graph(n, &mut rng);
            assert_eq!(g.edge_count(), n.saturating_sub(1));
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let empty = gnp_graph(10, 0.0, &mut rng);
        assert_eq!(empty.edge_count(), 0);
        let full = gnp_graph(10, 1.0, &mut rng);
        assert!(full.is_complete());
    }

    #[test]
    fn gnp_is_deterministic_for_a_seed() {
        let g1 = gnp_graph(20, 0.3, &mut ChaCha8Rng::seed_from_u64(42));
        let g2 = gnp_graph(20, 0.3, &mut ChaCha8Rng::seed_from_u64(42));
        assert_eq!(g1, g2);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn gnp_rejects_bad_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = gnp_graph(5, 1.5, &mut rng);
    }
}
