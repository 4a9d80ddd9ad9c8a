//! Disjoint-set forest (union–find).
//!
//! Used to build spanning trees Kruskal-style in interaction-time order,
//! detecting connectivity incrementally while scanning the edges.

use crate::NodeId;

/// A disjoint-set forest over nodes `0..n` with path compression and
/// union by rank.
///
/// # Example
///
/// ```
/// use doda_graph::{NodeId, UnionFind};
///
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(NodeId(0), NodeId(1)));
/// assert!(uf.union(NodeId(2), NodeId(3)));
/// assert_ne!(uf.find(NodeId(0)), uf.find(NodeId(3)));
/// assert!(uf.union(NodeId(1), NodeId(3)));
/// assert_eq!(uf.find(NodeId(0)), uf.find(NodeId(2)));
/// assert_eq!(uf.set_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    sets: usize,
}

impl UnionFind {
    /// Creates a forest of `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the forest has no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently in the forest.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Finds the representative of the set containing `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: NodeId) -> NodeId {
        let mut root = x.index();
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x.index();
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        NodeId(root)
    }

    /// Merges the sets of `a` and `b`. Returns `true` if they were distinct.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: NodeId, b: NodeId) -> bool {
        let ra = self.find(a).index();
        let rb = self.find(b).index();
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.sets -= 1;
        true
    }

    /// Returns `true` if all elements are in a single set (vacuously true
    /// for 0 or 1 elements).
    pub fn all_connected(&self) -> bool {
        self.sets <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.set_count(), 3);
        assert_eq!(uf.len(), 3);
        assert!(!uf.is_empty());
        assert_ne!(uf.find(NodeId(0)), uf.find(NodeId(1)));
        assert_eq!(uf.find(NodeId(2)), NodeId(2));
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(NodeId(0), NodeId(1)));
        assert!(uf.union(NodeId(1), NodeId(2)));
        assert!(!uf.union(NodeId(0), NodeId(2)));
        assert_eq!(uf.set_count(), 3);
        assert_eq!(uf.find(NodeId(0)), uf.find(NodeId(2)));
        assert!(!uf.all_connected());
    }

    #[test]
    fn all_connected_after_spanning_unions() {
        let mut uf = UnionFind::new(4);
        uf.union(NodeId(0), NodeId(1));
        uf.union(NodeId(1), NodeId(2));
        uf.union(NodeId(2), NodeId(3));
        assert!(uf.all_connected());
        assert_eq!(uf.set_count(), 1);
    }

    #[test]
    fn empty_and_single_are_connected() {
        assert!(UnionFind::new(0).all_connected());
        assert!(UnionFind::new(1).all_connected());
        assert!(UnionFind::new(0).is_empty());
    }

    #[test]
    fn path_compression_keeps_results_consistent() {
        let mut uf = UnionFind::new(64);
        for i in 0..63 {
            uf.union(NodeId(i), NodeId(i + 1));
        }
        for i in 0..64 {
            assert_eq!(uf.find(NodeId(0)), uf.find(NodeId(i)));
        }
        assert_eq!(uf.set_count(), 1);
    }
}
