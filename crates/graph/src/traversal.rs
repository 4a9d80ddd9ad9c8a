//! Graph traversals: BFS, distances, connectivity and connected components.

use std::collections::VecDeque;

use crate::{AdjacencyGraph, NodeId};

/// Result of a breadth-first search from a single source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// `distance[v] = Some(d)` iff `v` is reachable from the source at hop
    /// distance `d`.
    pub distance: Vec<Option<usize>>,
    /// `parent[v] = Some(u)` iff `u` is the BFS predecessor of `v`;
    /// `None` for the source and for unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
    /// Nodes in the order they were visited (starting with the source).
    pub order: Vec<NodeId>,
}

/// Runs a breadth-first search over `g` from `source`.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs(g: &AdjacencyGraph, source: NodeId) -> BfsResult {
    let n = g.node_count();
    assert!(source.index() < n, "BFS source {source} out of range");
    let mut distance = vec![None; n];
    let mut parent = vec![None; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    distance[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        let du = distance[u.index()].expect("queued nodes have a distance");
        for v in g.neighbors(u) {
            if distance[v.index()].is_none() {
                distance[v.index()] = Some(du + 1);
                parent[v.index()] = Some(u);
                queue.push_back(v);
            }
        }
    }
    BfsResult {
        distance,
        parent,
        order,
    }
}

/// Returns `true` if `g` is connected (vacuously true for 0 or 1 nodes).
pub fn is_connected(g: &AdjacencyGraph) -> bool {
    let n = g.node_count();
    if n <= 1 {
        return true;
    }
    bfs(g, NodeId(0)).order.len() == n
}

/// Returns the connected components of `g`, each sorted by node id, and the
/// list of components sorted by their smallest node id.
pub fn connected_components(g: &AdjacencyGraph) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    let mut component = vec![usize::MAX; n];
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    for start in g.nodes() {
        if component[start.index()] != usize::MAX {
            continue;
        }
        let id = components.len();
        let res = bfs(g, start);
        let mut members = Vec::new();
        for v in res.order {
            component[v.index()] = id;
            members.push(v);
        }
        members.sort();
        components.push(members);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path_graph(5);
        let res = bfs(&g, NodeId(0));
        assert_eq!(res.distance[4], Some(4));
        assert_eq!(res.parent[4], Some(NodeId(3)));
        assert_eq!(
            res.order,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn bfs_unreachable_nodes() {
        let mut g = AdjacencyGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        let res = bfs(&g, NodeId(0));
        assert_eq!(res.distance[2], None);
        assert_eq!(res.parent[3], None);
        assert_eq!(res.distance[1], Some(1));
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&generators::cycle_graph(6)));
        assert!(is_connected(&AdjacencyGraph::new(1)));
        assert!(is_connected(&AdjacencyGraph::new(0)));
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        assert!(!is_connected(&g));
    }

    #[test]
    fn components_partition_nodes() {
        let mut g = AdjacencyGraph::new(6);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(2), NodeId(3));
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 4);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[1], vec![NodeId(2), NodeId(3)]);
        assert_eq!(comps[2], vec![NodeId(4)]);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, 6);
    }
}
