//! Network state: per-node data ownership and the one-transmission rule.
//!
//! The central constraint of the model is that **a node may transmit its
//! data at most once**, and that a node that has transmitted no longer owns
//! data and can never receive again. [`NetworkState`] owns that bookkeeping
//! and refuses invalid transfers, so no algorithm or adversary can violate
//! the model even by accident.

use doda_graph::NodeId;

use crate::data::Aggregate;
use crate::error::TransmissionError;

/// The state of a single node during an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeState<A> {
    /// The data currently owned, if any.
    pub data: Option<A>,
    /// Whether this node has already used its single transmission.
    pub has_transmitted: bool,
}

/// The global state of an execution: one [`NodeState`] per node, plus the
/// identity of the sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkState<A> {
    nodes: Vec<NodeState<A>>,
    sink: NodeId,
    /// Aggregate of every datum destroyed by a crash or departure — the
    /// accounting bin that makes data conservation checkable under faults
    /// (sink data ⊎ lost ⊎ recovered ⊎ live owners = everything
    /// introduced).
    lost: Option<A>,
    /// Aggregate of every datum salvaged from a recoverable crash.
    recovered: Option<A>,
    /// Aggregate of every datum a Byzantine sender withheld from the
    /// protocol ([`NetworkState::transmit_voided`] /
    /// [`NetworkState::transmit_equivocated`]). Deliberately **not**
    /// part of the conservation identity: a corrupting transfer is
    /// supposed to break `data_conserved` visibly.
    voided: Option<A>,
}

impl<A: Aggregate> NetworkState<A> {
    /// Creates the initial state: every node owns the datum produced by
    /// `initial_data(v)` and nobody has transmitted.
    ///
    /// # Panics
    ///
    /// Panics if `sink.index() >= n` or `n == 0`.
    pub fn new<F>(n: usize, sink: NodeId, initial_data: F) -> Self
    where
        F: FnMut(NodeId) -> A,
    {
        let mut state = NetworkState::empty();
        state.reset(n, sink, initial_data);
        state
    }

    /// An empty placeholder state owning no nodes; it must be [`reset`]
    /// before use. Used by the engine as reusable scratch so that a single
    /// allocation serves many executions.
    ///
    /// [`reset`]: NetworkState::reset
    pub(crate) fn empty() -> Self {
        NetworkState {
            nodes: Vec::new(),
            sink: NodeId(0),
            lost: None,
            recovered: None,
            voided: None,
        }
    }

    /// Re-initialises the state for a fresh execution over `n` nodes,
    /// reusing the node-vector allocation: every node owns the datum
    /// produced by `initial_data(v)` and nobody has transmitted.
    ///
    /// # Panics
    ///
    /// Panics if `sink.index() >= n` or `n == 0`.
    pub fn reset<F>(&mut self, n: usize, sink: NodeId, mut initial_data: F)
    where
        F: FnMut(NodeId) -> A,
    {
        assert!(n > 0, "a dynamic graph needs at least one node");
        assert!(sink.index() < n, "sink {sink} out of range for {n} nodes");
        self.nodes.clear();
        self.nodes.extend((0..n).map(|i| NodeState {
            data: Some(initial_data(NodeId(i))),
            has_transmitted: false,
        }));
        self.sink = sink;
        self.lost = None;
        self.recovered = None;
        self.voided = None;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The sink node.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Returns `true` if node `v` currently owns data.
    pub fn owns_data(&self, v: NodeId) -> bool {
        self.nodes.get(v.index()).is_some_and(|s| s.data.is_some())
    }

    /// A reference to the data currently owned by `v`, if any.
    pub fn data_of(&self, v: NodeId) -> Option<&A> {
        self.nodes.get(v.index()).and_then(|s| s.data.as_ref())
    }

    /// Number of nodes currently owning data.
    pub fn owner_count(&self) -> usize {
        self.nodes.iter().filter(|s| s.data.is_some()).count()
    }

    /// Ids of the nodes currently owning data, in increasing order.
    pub fn owners(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.data.is_some())
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Ownership bitmap, indexed by node id (used to build the
    /// [`crate::sequence::AdversaryView`]).
    pub fn ownership_bitmap(&self) -> Vec<bool> {
        self.nodes.iter().map(|s| s.data.is_some()).collect()
    }

    /// Returns `true` if the aggregation is complete: the sink is the only
    /// node that owns data.
    pub fn is_complete(&self) -> bool {
        self.owner_count() == 1 && self.owns_data(self.sink)
    }

    /// Performs the transmission `sender → receiver`: the receiver
    /// aggregates the sender's data with its own, the sender loses its data
    /// and is marked as having transmitted.
    ///
    /// # Errors
    ///
    /// Returns an error (leaving the state untouched) if the transfer would
    /// violate the model: sender and receiver are the same node, the sink
    /// would transmit, either node is out of range, either node does not
    /// own data, or the sender already transmitted.
    pub fn transmit(&mut self, sender: NodeId, receiver: NodeId) -> Result<(), TransmissionError> {
        self.check_transfer(sender, receiver)?;
        let sent = self.take_sent(sender);
        self.deliver(receiver, sent);
        Ok(())
    }

    /// A [`transmit`](NetworkState::transmit) where the (Byzantine)
    /// sender first merges `forged` — a datum that was never introduced
    /// into the population — into its carried aggregate.
    ///
    /// # Errors
    ///
    /// Exactly as [`transmit`](NetworkState::transmit): the corruption
    /// changes the payload, never the model rules.
    pub fn transmit_forged(
        &mut self,
        sender: NodeId,
        receiver: NodeId,
        forged: A,
    ) -> Result<(), TransmissionError> {
        self.check_transfer(sender, receiver)?;
        let mut sent = self.take_sent(sender);
        sent.merge(forged);
        self.deliver(receiver, sent);
        Ok(())
    }

    /// A [`transmit`](NetworkState::transmit) where the (Byzantine)
    /// sender delivers its carried aggregate **twice** — the receiver
    /// merges the same payload two times, which double-counts it for
    /// every duplicate-sensitive aggregate.
    ///
    /// # Errors
    ///
    /// Exactly as [`transmit`](NetworkState::transmit).
    pub fn transmit_duplicated(
        &mut self,
        sender: NodeId,
        receiver: NodeId,
    ) -> Result<(), TransmissionError> {
        self.check_transfer(sender, receiver)?;
        let sent = self.take_sent(sender);
        self.deliver(receiver, sent.clone());
        self.deliver(receiver, sent);
        Ok(())
    }

    /// A [`transmit`](NetworkState::transmit) where the (Byzantine)
    /// sender delivers **nothing**: it is marked as having transmitted,
    /// but its carried aggregate moves to the [`voided`] accounting bin
    /// instead of reaching the receiver.
    ///
    /// [`voided`]: NetworkState::voided_data
    ///
    /// # Errors
    ///
    /// Exactly as [`transmit`](NetworkState::transmit).
    pub fn transmit_voided(
        &mut self,
        sender: NodeId,
        receiver: NodeId,
    ) -> Result<(), TransmissionError> {
        self.check_transfer(sender, receiver)?;
        let sent = self.take_sent(sender);
        merge_into(&mut self.voided, sent);
        Ok(())
    }

    /// A [`transmit`](NetworkState::transmit) where the (Byzantine)
    /// sender sheds everything it aggregated — the carried aggregate
    /// moves to the [`voided`] bin — and delivers `fresh` (a fresh
    /// self-datum) in its place.
    ///
    /// [`voided`]: NetworkState::voided_data
    ///
    /// # Errors
    ///
    /// Exactly as [`transmit`](NetworkState::transmit).
    pub fn transmit_equivocated(
        &mut self,
        sender: NodeId,
        receiver: NodeId,
        fresh: A,
    ) -> Result<(), TransmissionError> {
        self.check_transfer(sender, receiver)?;
        let sent = self.take_sent(sender);
        merge_into(&mut self.voided, sent);
        self.deliver(receiver, fresh);
        Ok(())
    }

    /// The shared transfer validation: every transmit variant refuses
    /// the same invalid transfers in the same order, leaving the state
    /// untouched on error.
    fn check_transfer(&self, sender: NodeId, receiver: NodeId) -> Result<(), TransmissionError> {
        if sender == receiver {
            return Err(TransmissionError::SelfTransmission { node: sender });
        }
        if sender == self.sink {
            return Err(TransmissionError::SinkMustNotTransmit);
        }
        let n = self.nodes.len();
        if sender.index() >= n || receiver.index() >= n {
            return Err(TransmissionError::UnknownNode {
                node: if sender.index() >= n {
                    sender
                } else {
                    receiver
                },
            });
        }
        if self.nodes[sender.index()].has_transmitted {
            return Err(TransmissionError::AlreadyTransmitted { node: sender });
        }
        if self.nodes[sender.index()].data.is_none() {
            return Err(TransmissionError::NoData { node: sender });
        }
        if self.nodes[receiver.index()].data.is_none() {
            return Err(TransmissionError::NoData { node: receiver });
        }
        Ok(())
    }

    /// Takes the validated sender's datum and spends its transmission.
    fn take_sent(&mut self, sender: NodeId) -> A {
        self.nodes[sender.index()].has_transmitted = true;
        self.nodes[sender.index()]
            .data
            .take()
            .expect("validated by check_transfer")
    }

    /// Merges a payload into the validated receiver's datum.
    fn deliver(&mut self, receiver: NodeId, payload: A) {
        self.nodes[receiver.index()]
            .data
            .as_mut()
            .expect("validated by check_transfer")
            .merge(payload);
    }

    /// Destroys the datum of `v` (a crash with [`CrashPolicy::DatumLost`]
    /// or a departure), merging it into the **lost** accounting bin. The
    /// node keeps its transmission history but no longer owns data.
    ///
    /// [`CrashPolicy::DatumLost`]: crate::fault::CrashPolicy::DatumLost
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or does not own data; the engine
    /// validates fault events (returning a typed
    /// [`crate::error::FaultError`]) before calling this.
    pub fn fault_lose(&mut self, v: NodeId) {
        let datum = self.take_datum(v);
        merge_into(&mut self.lost, datum);
    }

    /// Salvages the datum of `v` (a crash with
    /// [`CrashPolicy::DatumRecoverable`]), merging it into the
    /// **recovered** accounting bin.
    ///
    /// [`CrashPolicy::DatumRecoverable`]: crate::fault::CrashPolicy::DatumRecoverable
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or does not own data (see
    /// [`NetworkState::fault_lose`]).
    pub fn fault_recover(&mut self, v: NodeId) {
        let datum = self.take_datum(v);
        merge_into(&mut self.recovered, datum);
    }

    /// Re-seats `v` with a fresh datum (a churn arrival). The arrival is
    /// a new incarnation of the slot: its single-transmission allowance
    /// starts over.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or currently owns data; the engine
    /// validates arrivals (returning a typed [`crate::error::FaultError`])
    /// before calling this.
    pub fn revive(&mut self, v: NodeId, datum: A) {
        let node = self
            .nodes
            .get_mut(v.index())
            .unwrap_or_else(|| panic!("revive of unknown node {v}"));
        assert!(node.data.is_none(), "revive of node {v}, which owns data");
        node.data = Some(datum);
        node.has_transmitted = false;
    }

    /// The aggregate of every datum destroyed by faults, if any.
    pub fn lost_data(&self) -> Option<&A> {
        self.lost.as_ref()
    }

    /// The aggregate of every datum salvaged from recoverable crashes.
    pub fn recovered_data(&self) -> Option<&A> {
        self.recovered.as_ref()
    }

    /// The aggregate of every datum a Byzantine sender withheld
    /// ([`NetworkState::transmit_voided`] /
    /// [`NetworkState::transmit_equivocated`]), if any. Not part of the
    /// conservation identity: withheld data is *supposed* to show up as
    /// a conservation violation.
    pub fn voided_data(&self) -> Option<&A> {
        self.voided.as_ref()
    }

    fn take_datum(&mut self, v: NodeId) -> A {
        self.nodes
            .get_mut(v.index())
            .unwrap_or_else(|| panic!("fault on unknown node {v}"))
            .data
            .take()
            .unwrap_or_else(|| panic!("fault takes the datum of {v}, which owns none"))
    }
}

fn merge_into<A: Aggregate>(bin: &mut Option<A>, datum: A) {
    match bin {
        Some(acc) => acc.merge(datum),
        None => *bin = Some(datum),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Count, IdSet};

    fn fresh(n: usize) -> NetworkState<IdSet> {
        NetworkState::new(n, NodeId(0), IdSet::singleton)
    }

    #[test]
    fn initial_state_everyone_owns() {
        let st = fresh(4);
        assert_eq!(st.node_count(), 4);
        assert_eq!(st.owner_count(), 4);
        assert!(!st.is_complete());
        assert!(st.owns_data(NodeId(3)));
        assert!(!st.nodes[3].has_transmitted);
        assert_eq!(
            st.owners(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn single_node_graph_is_immediately_complete() {
        let st: NetworkState<Count> = NetworkState::new(1, NodeId(0), |_| Count::unit());
        assert!(st.is_complete());
    }

    #[test]
    fn valid_transmission_moves_and_aggregates_data() {
        let mut st = fresh(3);
        st.transmit(NodeId(1), NodeId(0)).unwrap();
        assert!(!st.owns_data(NodeId(1)));
        assert!(st.nodes[1].has_transmitted);
        assert_eq!(st.data_of(NodeId(0)).unwrap().len(), 2);
        assert_eq!(st.owner_count(), 2);
        st.transmit(NodeId(2), NodeId(0)).unwrap();
        assert!(st.is_complete());
        assert!(st.data_of(NodeId(0)).unwrap().covers_all(3));
    }

    #[test]
    fn sink_never_transmits() {
        let mut st = fresh(3);
        let err = st.transmit(NodeId(0), NodeId(1)).unwrap_err();
        assert_eq!(err, TransmissionError::SinkMustNotTransmit);
    }

    #[test]
    fn double_transmission_is_rejected() {
        let mut st = fresh(3);
        st.transmit(NodeId(1), NodeId(0)).unwrap();
        let err = st.transmit(NodeId(1), NodeId(2)).unwrap_err();
        // The node no longer owns data *and* has transmitted; the
        // has-transmitted check fires first.
        assert_eq!(
            err,
            TransmissionError::AlreadyTransmitted { node: NodeId(1) }
        );
    }

    #[test]
    fn receiver_without_data_is_rejected() {
        let mut st = fresh(4);
        st.transmit(NodeId(1), NodeId(0)).unwrap();
        // Node 1 no longer owns data, so it cannot receive from node 2.
        let err = st.transmit(NodeId(2), NodeId(1)).unwrap_err();
        assert_eq!(err, TransmissionError::NoData { node: NodeId(1) });
        // State unchanged: node 2 still owns data.
        assert!(st.owns_data(NodeId(2)));
        assert!(!st.nodes[2].has_transmitted);
    }

    #[test]
    fn self_and_unknown_nodes_are_rejected() {
        let mut st = fresh(3);
        assert_eq!(
            st.transmit(NodeId(2), NodeId(2)).unwrap_err(),
            TransmissionError::SelfTransmission { node: NodeId(2) }
        );
        assert_eq!(
            st.transmit(NodeId(5), NodeId(0)).unwrap_err(),
            TransmissionError::UnknownNode { node: NodeId(5) }
        );
        assert_eq!(
            st.transmit(NodeId(1), NodeId(7)).unwrap_err(),
            TransmissionError::UnknownNode { node: NodeId(7) }
        );
    }

    #[test]
    fn ownership_bitmap_reflects_state() {
        let mut st = fresh(3);
        st.transmit(NodeId(2), NodeId(1)).unwrap();
        assert_eq!(st.ownership_bitmap(), vec![true, true, false]);
    }

    #[test]
    fn reset_reuses_the_state_for_a_fresh_execution() {
        let mut st = fresh(4);
        st.transmit(NodeId(1), NodeId(0)).unwrap();
        st.transmit(NodeId(2), NodeId(0)).unwrap();
        // Reset to a different shape: everything is fresh again.
        st.reset(3, NodeId(2), IdSet::singleton);
        assert_eq!(st.node_count(), 3);
        assert_eq!(st.sink(), NodeId(2));
        assert_eq!(st.owner_count(), 3);
        assert!(!st.nodes[1].has_transmitted);
        // The reset state enforces the model exactly like a new one.
        assert_eq!(
            st.transmit(NodeId(2), NodeId(1)).unwrap_err(),
            TransmissionError::SinkMustNotTransmit
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reset_rejects_out_of_range_sink() {
        let mut st = fresh(4);
        st.reset(2, NodeId(3), IdSet::singleton);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _: NetworkState<Count> = NetworkState::new(0, NodeId(0), |_| Count::unit());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sink_out_of_range_rejected() {
        let _: NetworkState<Count> = NetworkState::new(2, NodeId(5), |_| Count::unit());
    }

    #[test]
    fn fault_bins_account_for_lost_and_recovered_data() {
        let mut st = fresh(4);
        assert!(st.lost_data().is_none());
        st.fault_lose(NodeId(1));
        st.fault_recover(NodeId(2));
        assert!(!st.owns_data(NodeId(1)));
        assert!(!st.owns_data(NodeId(2)));
        assert_eq!(st.lost_data().unwrap(), &IdSet::singleton(NodeId(1)));
        assert_eq!(st.recovered_data().unwrap(), &IdSet::singleton(NodeId(2)));
        assert_eq!(st.owner_count(), 2);
        // A second loss merges into the same bin.
        st.fault_lose(NodeId(3));
        assert_eq!(st.lost_data().unwrap().len(), 2);
        // Reset empties both bins.
        st.reset(3, NodeId(0), IdSet::singleton);
        assert!(st.lost_data().is_none());
        assert!(st.recovered_data().is_none());
    }

    #[test]
    fn revive_reseats_a_fresh_incarnation() {
        let mut st = fresh(3);
        st.transmit(NodeId(1), NodeId(0)).unwrap();
        assert!(st.nodes[1].has_transmitted);
        st.revive(NodeId(1), IdSet::singleton(NodeId(1)));
        assert!(st.owns_data(NodeId(1)));
        // The new incarnation may transmit again.
        assert!(!st.nodes[1].has_transmitted);
        st.transmit(NodeId(1), NodeId(0)).unwrap();
    }

    #[test]
    #[should_panic(expected = "owns data")]
    fn revive_of_a_live_owner_is_rejected() {
        let mut st = fresh(3);
        st.revive(NodeId(1), IdSet::singleton(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "owns none")]
    fn fault_lose_requires_a_datum() {
        let mut st = fresh(3);
        st.transmit(NodeId(1), NodeId(0)).unwrap();
        st.fault_lose(NodeId(1));
    }

    #[test]
    fn forged_transfer_delivers_an_extra_origin() {
        let mut st = fresh(4);
        st.transmit_forged(NodeId(1), NodeId(0), IdSet::singleton(NodeId(3)))
            .unwrap();
        assert!(st.nodes[1].has_transmitted);
        assert_eq!(st.data_of(NodeId(0)).unwrap().len(), 3);
        assert!(st.voided_data().is_none());
    }

    #[test]
    fn duplicated_transfer_double_counts_for_sensitive_aggregates() {
        let mut st: NetworkState<Count> = NetworkState::new(3, NodeId(0), |_| Count::unit());
        st.transmit(NodeId(2), NodeId(1)).unwrap();
        st.transmit_duplicated(NodeId(1), NodeId(0)).unwrap();
        // The sink's own unit plus the carried pair delivered twice.
        assert_eq!(st.data_of(NodeId(0)).unwrap(), &Count(5));
        // Idempotent aggregates absorb the same replay.
        let mut ids = fresh(3);
        ids.transmit_duplicated(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(ids.data_of(NodeId(0)).unwrap().len(), 2);
    }

    #[test]
    fn voided_transfer_withholds_the_payload() {
        let mut st = fresh(3);
        st.transmit_voided(NodeId(1), NodeId(0)).unwrap();
        assert!(st.nodes[1].has_transmitted);
        assert!(!st.owns_data(NodeId(1)));
        assert_eq!(st.data_of(NodeId(0)).unwrap().len(), 1, "nothing arrived");
        assert_eq!(st.voided_data().unwrap(), &IdSet::singleton(NodeId(1)));
        // Reset empties the voided bin like the other accounting bins.
        st.reset(3, NodeId(0), IdSet::singleton);
        assert!(st.voided_data().is_none());
    }

    #[test]
    fn equivocated_transfer_sheds_the_carried_aggregate() {
        let mut st = fresh(4);
        st.transmit(NodeId(2), NodeId(1)).unwrap();
        st.transmit_equivocated(NodeId(1), NodeId(0), IdSet::singleton(NodeId(1)))
            .unwrap();
        // The sink sees only the liar's fresh self-datum; the merged
        // contribution of node 2 was shed into the voided bin.
        assert_eq!(st.data_of(NodeId(0)).unwrap().len(), 2);
        assert_eq!(st.voided_data().unwrap().len(), 2);
    }

    #[test]
    fn corrupting_transfers_refuse_what_transmit_refuses() {
        let mut st = fresh(3);
        assert_eq!(
            st.transmit_duplicated(NodeId(0), NodeId(1)).unwrap_err(),
            TransmissionError::SinkMustNotTransmit
        );
        assert_eq!(
            st.transmit_voided(NodeId(2), NodeId(2)).unwrap_err(),
            TransmissionError::SelfTransmission { node: NodeId(2) }
        );
        st.transmit(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(
            st.transmit_forged(NodeId(1), NodeId(0), IdSet::singleton(NodeId(2)))
                .unwrap_err(),
            TransmissionError::AlreadyTransmitted { node: NodeId(1) }
        );
        assert_eq!(
            st.transmit_equivocated(NodeId(2), NodeId(1), IdSet::singleton(NodeId(2)))
                .unwrap_err(),
            TransmissionError::NoData { node: NodeId(1) }
        );
    }
}
