//! The distributed online data aggregation (DODA) algorithm interface.
//!
//! A DODA algorithm "takes as input an interaction `I_t = {u, v}` and its
//! time of occurrence `t ∈ ℕ`, and outputs either `u`, `v` or `⊥`"; the
//! output node is the *receiver* of the other node's data (Section 2.1).
//! [`Decision`] mirrors that contract, and [`DodaAlgorithm::decide`] is the
//! per-interaction callback invoked by the execution engine.

use doda_graph::NodeId;

use crate::interaction::{Interaction, Time};

/// The decision of a DODA algorithm for one interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// `⊥`: nobody transmits.
    Idle,
    /// One node transmits its data to the other. `receiver` corresponds to
    /// the node output by the algorithm in the paper's formulation.
    Transmit {
        /// The node that sends (and thereby retires from the protocol).
        sender: NodeId,
        /// The node that receives and aggregates.
        receiver: NodeId,
    },
}

impl Decision {
    /// Convenience constructor: the other endpoint of `interaction`
    /// transmits its data to `receiver`.
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is not part of `interaction`.
    pub fn transmit_to(receiver: NodeId, interaction: Interaction) -> Self {
        let sender = interaction
            .partner_of(receiver)
            .unwrap_or_else(|| panic!("receiver {receiver} is not part of {interaction}"));
        Decision::Transmit { sender, receiver }
    }

    /// Returns `true` for `Idle`.
    pub fn is_idle(&self) -> bool {
        matches!(self, Decision::Idle)
    }
}

/// The per-interaction context presented to an algorithm.
///
/// It contains exactly the information the paper makes available "for
/// free" during an interaction: the two node identities (ordered by id),
/// whether each is the sink, and whether each still owns data (nodes
/// "exchange control information before deciding whether they transmit").
/// Any further knowledge (meetTime, futures, the underlying graph) must be
/// held by the algorithm itself, reflecting the knowledge model it is
/// analysed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InteractionContext {
    /// The current time (index of the interaction).
    pub time: Time,
    /// The interacting pair, in id order.
    pub interaction: Interaction,
    /// Whether the smaller-id endpoint owns data.
    pub min_owns_data: bool,
    /// Whether the larger-id endpoint owns data.
    pub max_owns_data: bool,
    /// The sink node (every node knows `isSink` of itself and, during an
    /// interaction, of its peer).
    pub sink: NodeId,
}

impl InteractionContext {
    /// Returns `true` if both interacting nodes currently own data — the
    /// precondition for any transmission.
    pub fn both_own_data(&self) -> bool {
        self.min_owns_data && self.max_owns_data
    }

    /// Returns `true` if `v` owns data, for `v` one of the two endpoints.
    pub fn owns_data(&self, v: NodeId) -> bool {
        if v == self.interaction.min() {
            self.min_owns_data
        } else if v == self.interaction.max() {
            self.max_owns_data
        } else {
            false
        }
    }

    /// Returns `true` if one of the interacting nodes is the sink.
    pub fn involves_sink(&self) -> bool {
        self.interaction.involves(self.sink)
    }
}

/// A distributed online data aggregation algorithm.
///
/// Implementations may keep internal per-node memory (the model grants
/// nodes unlimited memory); *oblivious* algorithms (the set `D∅ODA` of the
/// paper) simply keep none and should report it via
/// [`DodaAlgorithm::is_oblivious`].
pub trait DodaAlgorithm {
    /// Human-readable name used in reports and benchmark labels.
    fn name(&self) -> &str;

    /// Decides what happens for the interaction described by `ctx`.
    ///
    /// The engine ignores `Transmit` decisions when the two nodes do not
    /// both own data (the paper: "the output is ignored if the interacting
    /// nodes do not both have data"), but rejects decisions naming nodes
    /// outside the interaction.
    fn decide(&mut self, ctx: &InteractionContext) -> Decision;

    /// Whether the algorithm uses only oblivious nodes (no persistent
    /// memory between interactions).
    fn is_oblivious(&self) -> bool {
        false
    }

    /// Callback invoked by the engine after a transmission it ordered was
    /// actually applied. Algorithms that track per-node progress (e.g. the
    /// spanning-tree algorithm waiting for its children) use this to update
    /// their internal memory.
    fn on_transmission(&mut self, _time: Time, _sender: NodeId, _receiver: NodeId) {}

    /// Resets any internal memory so the same instance can be reused for a
    /// fresh execution.
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_to_picks_the_partner_as_sender() {
        let i = Interaction::new(NodeId(2), NodeId(5));
        let d = Decision::transmit_to(NodeId(5), i);
        assert_eq!(
            d,
            Decision::Transmit {
                sender: NodeId(2),
                receiver: NodeId(5)
            }
        );
        assert!(!d.is_idle());
        assert!(Decision::Idle.is_idle());
    }

    #[test]
    #[should_panic(expected = "not part of")]
    fn transmit_to_rejects_foreign_receiver() {
        let i = Interaction::new(NodeId(2), NodeId(5));
        let _ = Decision::transmit_to(NodeId(1), i);
    }

    #[test]
    fn context_helpers() {
        let ctx = InteractionContext {
            time: 3,
            interaction: Interaction::new(NodeId(1), NodeId(4)),
            min_owns_data: true,
            max_owns_data: false,
            sink: NodeId(4),
        };
        assert!(!ctx.both_own_data());
        assert!(ctx.owns_data(NodeId(1)));
        assert!(!ctx.owns_data(NodeId(4)));
        assert!(!ctx.owns_data(NodeId(9)));
        assert!(ctx.involves_sink());

        let ctx2 = InteractionContext {
            sink: NodeId(0),
            ..ctx
        };
        assert!(!ctx2.involves_sink());
    }
}
