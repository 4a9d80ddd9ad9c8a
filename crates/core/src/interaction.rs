//! Pairwise interactions.
//!
//! The paper models a dynamic graph as a couple `(V, I)` where `I =
//! (I_t)_{t∈ℕ}` is a sequence of *pairwise interactions*: at each time step
//! exactly one unordered pair of distinct nodes interacts. The index of an
//! interaction in the sequence is its time of occurrence.

use std::fmt;

use doda_graph::{Edge, NodeId};

/// Discrete time: the index of an interaction in the sequence.
pub type Time = u64;

/// An unordered pair of distinct interacting nodes, stored in canonical
/// `(min, max)` order.
///
/// # Example
///
/// ```
/// use doda_core::Interaction;
/// use doda_graph::NodeId;
///
/// let i = Interaction::new(NodeId(4), NodeId(1));
/// assert_eq!(i.min(), NodeId(1));
/// assert_eq!(i.max(), NodeId(4));
/// assert!(i.involves(NodeId(4)));
/// assert_eq!(i.partner_of(NodeId(1)), Some(NodeId(4)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interaction {
    min: NodeId,
    max: NodeId,
}

impl Interaction {
    /// Creates an interaction between two distinct nodes.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`: the model only allows interactions between
    /// distinct nodes.
    #[inline]
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert!(
            u != v,
            "an interaction requires two distinct nodes, got {u} twice"
        );
        if u < v {
            Interaction { min: u, max: v }
        } else {
            Interaction { min: v, max: u }
        }
    }

    /// The smaller-id endpoint.
    ///
    /// Takes `self` by value (the type is `Copy`) so that this inherent
    /// method is preferred over `Ord::min` during method resolution.
    pub fn min(self) -> NodeId {
        self.min
    }

    /// The larger-id endpoint.
    ///
    /// Takes `self` by value (the type is `Copy`) so that this inherent
    /// method is preferred over `Ord::max` during method resolution.
    pub fn max(self) -> NodeId {
        self.max
    }

    /// Both endpoints, ordered by id (the paper's convention: "the nodes
    /// that interact are given as input ordered by their identifiers").
    pub fn pair(&self) -> (NodeId, NodeId) {
        (self.min, self.max)
    }

    /// Returns `true` if `x` is one of the endpoints.
    pub fn involves(&self, x: NodeId) -> bool {
        x == self.min || x == self.max
    }

    /// The endpoint opposite to `x`, or `None` if `x` is not involved.
    pub fn partner_of(&self, x: NodeId) -> Option<NodeId> {
        if x == self.min {
            Some(self.max)
        } else if x == self.max {
            Some(self.min)
        } else {
            None
        }
    }

    /// Converts to the canonical undirected edge of the underlying graph.
    fn to_edge(self) -> Edge {
        Edge::new(self.min, self.max)
    }
}

impl fmt::Display for Interaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.min, self.max)
    }
}

impl From<(NodeId, NodeId)> for Interaction {
    fn from((u, v): (NodeId, NodeId)) -> Self {
        Interaction::new(u, v)
    }
}

impl From<Interaction> for Edge {
    fn from(i: Interaction) -> Self {
        i.to_edge()
    }
}

/// An interaction together with its time of occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimedInteraction {
    /// Time of occurrence (index in the sequence).
    pub time: Time,
    /// The interacting pair.
    pub interaction: Interaction,
}

impl TimedInteraction {
    /// Creates a timed interaction.
    pub fn new(time: Time, interaction: Interaction) -> Self {
        TimedInteraction { time, interaction }
    }
}

impl fmt::Display for TimedInteraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}: {}", self.time, self.interaction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order() {
        let a = Interaction::new(NodeId(5), NodeId(2));
        let b = Interaction::new(NodeId(2), NodeId(5));
        assert_eq!(a, b);
        assert_eq!(a.pair(), (NodeId(2), NodeId(5)));
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn rejects_self_interaction() {
        let _ = Interaction::new(NodeId(1), NodeId(1));
    }

    #[test]
    fn involvement_and_partner() {
        let i = Interaction::new(NodeId(0), NodeId(3));
        assert!(i.involves(NodeId(0)));
        assert!(i.involves(NodeId(3)));
        assert!(!i.involves(NodeId(1)));
        assert_eq!(i.partner_of(NodeId(0)), Some(NodeId(3)));
        assert_eq!(i.partner_of(NodeId(3)), Some(NodeId(0)));
        assert_eq!(i.partner_of(NodeId(7)), None);
    }

    #[test]
    fn edge_conversion() {
        let i = Interaction::new(NodeId(4), NodeId(1));
        let e: Edge = i.into();
        assert_eq!(e, Edge::new(NodeId(1), NodeId(4)));
    }

    #[test]
    fn display_formats() {
        let t = TimedInteraction::new(9, Interaction::new(NodeId(2), NodeId(0)));
        assert_eq!(t.to_string(), "t=9: {v0, v2}");
    }

    #[test]
    fn from_tuple() {
        let i: Interaction = (NodeId(8), NodeId(3)).into();
        assert_eq!(i.min(), NodeId(3));
    }
}
