//! Rooted trees.
//!
//! The spanning-tree DODA algorithm of Theorems 4 and 5 of the paper makes
//! every node wait for the data of its children in a rooted spanning tree
//! of the underlying graph and then forward towards the root (the sink).
//! [`RootedTree`] stores the parent/children structure needed by that
//! algorithm, plus utilities (depth, leaves, post-order) used by tests
//! and by the offline convergecast schedule validation.

use crate::{Edge, NodeId};

/// A rooted tree over a subset of the dense node ids `0..n`.
///
/// Nodes that are not part of the tree have no parent and are not children
/// of anyone; [`RootedTree::contains`] reports membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    root: NodeId,
    /// `parent[v] = Some(u)` iff `u` is the parent of `v`. The root has no parent.
    parent: Vec<Option<NodeId>>,
    /// Children lists, sorted by id.
    children: Vec<Vec<NodeId>>,
    /// Membership flags.
    member: Vec<bool>,
    size: usize,
}

impl RootedTree {
    /// Creates a tree containing only `root`, over an id space of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn new(n: usize, root: NodeId) -> Self {
        assert!(root.index() < n, "root {root} out of range for {n} nodes");
        let mut member = vec![false; n];
        member[root.index()] = true;
        RootedTree {
            root,
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            member,
            size: 1,
        }
    }

    /// Builds a rooted tree from a parent vector (as produced by BFS).
    ///
    /// `parent[v] = Some(u)` makes `u` the parent of `v`; nodes with no
    /// parent other than `root` are left out of the tree.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range, if a parent edge refers to an
    /// out-of-range node, or if the parent structure contains a cycle.
    pub fn from_parents(root: NodeId, parent: &[Option<NodeId>]) -> Self {
        let n = parent.len();
        let mut tree = RootedTree::new(n, root);
        // Attach nodes in an order that guarantees parents are attached first:
        // repeatedly scan for attachable nodes. O(n^2) worst case but n is
        // small in tests; BFS parents are attachable in one or two passes.
        let mut remaining: Vec<NodeId> = (0..n)
            .map(NodeId)
            .filter(|&v| v != root && parent[v.index()].is_some())
            .collect();
        let mut progress = true;
        while progress && !remaining.is_empty() {
            progress = false;
            remaining.retain(|&v| {
                let p = parent[v.index()].expect("retained nodes have parents");
                if tree.contains(p) {
                    tree.attach(v, p);
                    progress = true;
                    false
                } else {
                    true
                }
            });
        }
        assert!(
            remaining.is_empty(),
            "parent structure contains a cycle or dangling parents: {remaining:?}"
        );
        tree
    }

    /// The root of the tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes currently in the tree.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Returns `true` if the tree contains only its root.
    pub fn is_empty(&self) -> bool {
        self.size == 1
    }

    /// Returns `true` if `v` is part of the tree.
    pub fn contains(&self, v: NodeId) -> bool {
        self.member.get(v.index()).copied().unwrap_or(false)
    }

    /// Attaches `child` under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not in the tree, if `child` already is, or if
    /// either id is out of range.
    pub fn attach(&mut self, child: NodeId, parent: NodeId) {
        assert!(self.contains(parent), "parent {parent} not in tree");
        assert!(!self.contains(child), "child {child} already in tree");
        self.member[child.index()] = true;
        self.parent[child.index()] = Some(parent);
        let children = &mut self.children[parent.index()];
        let pos = children.partition_point(|&c| c < child);
        children.insert(pos, child);
        self.size += 1;
    }

    /// The parent of `v`, or `None` for the root or non-members.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent.get(v.index()).copied().flatten()
    }

    /// The children of `v`, sorted by id (empty for non-members and leaves).
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        self.children
            .get(v.index())
            .map(|c| c.as_slice())
            .unwrap_or(&[])
    }

    /// Depth of `v` (root has depth 0), or `None` for non-members.
    pub fn depth(&self, v: NodeId) -> Option<usize> {
        if !self.contains(v) {
            return None;
        }
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        Some(d)
    }

    /// Height of the tree (maximum depth over members).
    pub fn height(&self) -> usize {
        self.members()
            .filter_map(|v| self.depth(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterates over tree members in increasing id order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.member
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| NodeId(i))
    }

    /// Iterates over the leaves (members with no children).
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members().filter(move |&v| self.children(v).is_empty())
    }

    /// Iterates over tree edges as (child, parent) pairs.
    pub fn parent_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.members()
            .filter_map(move |v| self.parent(v).map(|p| (v, p)))
    }

    /// Returns the tree edges as canonical undirected [`Edge`]s.
    pub fn edges(&self) -> Vec<Edge> {
        self.parent_edges().map(|(c, p)| Edge::new(c, p)).collect()
    }

    /// Members in post-order (children before parents); the root is last.
    ///
    /// This is exactly the order in which the spanning-tree DODA algorithm
    /// can possibly transmit data.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.size);
        // Iterative post-order to avoid recursion depth limits on long paths.
        let mut stack = vec![(self.root, false)];
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                order.push(v);
            } else {
                stack.push((v, true));
                for &c in self.children(v).iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the tree
    /// ```text
    ///        0
    ///       / \
    ///      1   2
    ///     / \
    ///    3   4
    /// ```
    fn sample_tree() -> RootedTree {
        let mut t = RootedTree::new(5, NodeId(0));
        t.attach(NodeId(1), NodeId(0));
        t.attach(NodeId(2), NodeId(0));
        t.attach(NodeId(3), NodeId(1));
        t.attach(NodeId(4), NodeId(1));
        t
    }

    #[test]
    fn basic_structure() {
        let t = sample_tree();
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(1)));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.children(NodeId(1)), &[NodeId(3), NodeId(4)]);
        assert_eq!(t.children(NodeId(2)), &[] as &[NodeId]);
    }

    #[test]
    fn depth_height_and_paths() {
        let t = sample_tree();
        assert_eq!(t.depth(NodeId(0)), Some(0));
        assert_eq!(t.depth(NodeId(4)), Some(2));
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn leaves_are_childless_members() {
        let t = sample_tree();
        let leaves: Vec<_> = t.leaves().collect();
        assert_eq!(leaves, vec![NodeId(2), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn postorder_children_before_parents() {
        let t = sample_tree();
        let order = t.postorder();
        assert_eq!(order.len(), 5);
        assert_eq!(*order.last().unwrap(), NodeId(0));
        let pos = |v: NodeId| order.iter().position(|&x| x == v).unwrap();
        for (child, parent) in t.parent_edges() {
            assert!(pos(child) < pos(parent), "{child} must precede {parent}");
        }
    }

    #[test]
    fn non_members_are_handled() {
        let mut t = RootedTree::new(6, NodeId(0));
        t.attach(NodeId(1), NodeId(0));
        assert!(!t.contains(NodeId(5)));
        assert_eq!(t.depth(NodeId(5)), None);
        assert_eq!(t.children(NodeId(5)), &[] as &[NodeId]);
    }

    #[test]
    fn from_parents_builds_bfs_tree() {
        let parent = vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(1))];
        let t = RootedTree::from_parents(NodeId(0), &parent);
        assert_eq!(t.len(), 4);
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(1)));
        assert_eq!(t.children(NodeId(1)), &[NodeId(2), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn from_parents_rejects_cycles() {
        // 1 -> 2 -> 1 cycle, disconnected from the root 0.
        let parent = vec![None, Some(NodeId(2)), Some(NodeId(1))];
        let _ = RootedTree::from_parents(NodeId(0), &parent);
    }

    #[test]
    #[should_panic(expected = "already in tree")]
    fn attach_rejects_duplicates() {
        let mut t = sample_tree();
        t.attach(NodeId(3), NodeId(2));
    }

    #[test]
    fn edges_are_canonical() {
        let t = sample_tree();
        let mut edges = t.edges();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                Edge::new(NodeId(0), NodeId(1)),
                Edge::new(NodeId(0), NodeId(2)),
                Edge::new(NodeId(1), NodeId(3)),
                Edge::new(NodeId(1), NodeId(4)),
            ]
        );
    }
}
