//! Interaction sequences and interaction sources.
//!
//! A finite [`InteractionSequence`] is the concrete object most experiments
//! manipulate: the oblivious adversary fixes one before execution, the
//! randomized adversary can be materialised into one, and all knowledge
//! oracles (meetTime, futures, underlying graph) are derived from one.
//!
//! The [`InteractionSource`] trait is the streaming view used by the
//! execution engine: it produces the interaction of each time step, and is
//! allowed to observe which nodes still own data — this is exactly the
//! power of the *online adaptive adversary* of the paper. Oblivious and
//! randomized adversaries simply ignore that view.

use doda_graph::{AdjacencyGraph, NodeId};

use crate::fault::CrashPolicy;
use crate::interaction::{Interaction, Time, TimedInteraction};

/// Read-only view of the execution state offered to an [`InteractionSource`].
///
/// The online adaptive adversary "can use the past execution of the
/// algorithm to construct the next interaction"; concretely it can see
/// which nodes still own data (the full observable effect of the
/// algorithm's past decisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversaryView<'a> {
    /// `owns_data[v]` is `true` iff node `v` still owns data.
    pub owns_data: &'a [bool],
    /// The sink node.
    pub sink: NodeId,
}

impl AdversaryView<'_> {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.owns_data.len()
    }

    /// Number of nodes currently owning data.
    pub fn owner_count(&self) -> usize {
        self.owns_data.iter().filter(|&&b| b).count()
    }

    /// Returns `true` if node `v` still owns data.
    pub fn owns(&self, v: NodeId) -> bool {
        self.owns_data.get(v.index()).copied().unwrap_or(false)
    }
}

/// One step of a (possibly faulted) interaction stream.
///
/// Fault-free sources only ever produce [`StepEvent::Interaction`] (the
/// default [`InteractionSource::next_event`] guarantees it); the fault
/// layer ([`crate::fault::FaultedSource`]) interleaves the other
/// variants. The engine consumes events, so faults compose over any
/// source without the source knowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// A normal pairwise interaction, presented to the algorithm.
    Interaction(Interaction),
    /// A scheduled interaction that failed (message loss, or a dead
    /// participant): the algorithm never observes it.
    Lost(Interaction),
    /// A node crashes permanently; its datum's fate follows the policy.
    Crash {
        /// The crashed node.
        node: NodeId,
        /// Whether the datum is destroyed or recovered out-of-band.
        policy: CrashPolicy,
    },
    /// A live node departs (churn); its datum leaves the system.
    Departure(NodeId),
    /// A previously departed node re-arrives with a fresh datum.
    Arrival(NodeId),
}

/// A producer of interactions, one per time step.
///
/// Implementors include finite sequences (oblivious adversary), the
/// uniform randomized adversary, and the adaptive adversarial
/// constructions of Theorems 1 and 3.
pub trait InteractionSource {
    /// Number of nodes of the dynamic graph.
    fn node_count(&self) -> usize;

    /// Produces the interaction occurring at time `t`, or `None` if the
    /// source is exhausted (finite sequences only).
    ///
    /// The engine calls this exactly once per time step, with strictly
    /// increasing `t` starting from 0.
    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction>;

    /// Produces the event occurring at time `t` — the engine's actual
    /// entry point, called exactly once per time step with strictly
    /// increasing `t` starting from 0.
    ///
    /// The default implementation wraps [`next_interaction`] in
    /// [`StepEvent::Interaction`], so every plain source is a fault-free
    /// event stream; the fault layer ([`crate::fault::FaultedSource`])
    /// overrides this to interleave crash / churn / loss events.
    ///
    /// [`next_interaction`]: InteractionSource::next_interaction
    fn next_event(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<StepEvent> {
        self.next_interaction(t, view).map(StepEvent::Interaction)
    }

    /// `true` iff the source never reads the [`AdversaryView`] — its stream
    /// is a function of its own state and `t` alone (the paper's
    /// *oblivious* adversaries, and every synthetic workload generator).
    ///
    /// Oblivious sources may be pulled in batches
    /// ([`next_interaction_batch`]) by the lane engine's fast path, which
    /// samples the view once per batch. Adaptive adversaries and the fault
    /// layer must keep the default `false`.
    ///
    /// [`next_interaction_batch`]: InteractionSource::next_interaction_batch
    fn is_oblivious(&self) -> bool {
        false
    }

    /// Pulls up to `max` consecutive interactions starting at time `t0`,
    /// appending them to `out`; fewer than `max` means the source is
    /// exhausted. Equivalent to `max` successive [`next_event`] calls under
    /// one view snapshot, so it is only meaningful for
    /// [`is_oblivious`] sources, where the view cannot influence the
    /// stream.
    ///
    /// The default implementation loops over [`next_event`] — which, called
    /// through a trait object, runs with the concrete `Self` and therefore
    /// devirtualises the per-step pulls: batch consumers (the lane engine)
    /// pay one indirect call per batch instead of one per interaction.
    ///
    /// # Panics
    ///
    /// Panics if the source emits a fault event: batched pulls are
    /// fault-free by contract ([`crate::fault::FaultedSource`] keeps
    /// [`is_oblivious`] `false`, so batch consumers never reach it).
    ///
    /// [`next_event`]: InteractionSource::next_event
    /// [`is_oblivious`]: InteractionSource::is_oblivious
    fn next_interaction_batch(
        &mut self,
        t0: Time,
        view: &AdversaryView<'_>,
        out: &mut Vec<Interaction>,
        max: usize,
    ) {
        for offset in 0..max as u64 {
            match self.next_event(t0 + offset, view) {
                Some(StepEvent::Interaction(interaction)) => out.push(interaction),
                Some(event) => panic!(
                    "batched pulls are fault-free by contract, but the source \
                     emitted {event:?} at t = {}",
                    t0 + offset
                ),
                None => break,
            }
        }
    }
}

impl<S: InteractionSource + ?Sized> InteractionSource for &mut S {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        (**self).next_interaction(t, view)
    }

    // Must delegate explicitly: the default method would silently discard
    // the fault events of a wrapped `&mut FaultedSource`.
    fn next_event(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<StepEvent> {
        (**self).next_event(t, view)
    }

    fn is_oblivious(&self) -> bool {
        (**self).is_oblivious()
    }

    fn next_interaction_batch(
        &mut self,
        t0: Time,
        view: &AdversaryView<'_>,
        out: &mut Vec<Interaction>,
        max: usize,
    ) {
        (**self).next_interaction_batch(t0, view, out, max)
    }
}

impl<S: InteractionSource + ?Sized> InteractionSource for Box<S> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        (**self).next_interaction(t, view)
    }

    fn next_event(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<StepEvent> {
        (**self).next_event(t, view)
    }

    fn is_oblivious(&self) -> bool {
        (**self).is_oblivious()
    }

    fn next_interaction_batch(
        &mut self,
        t0: Time,
        view: &AdversaryView<'_>,
        out: &mut Vec<Interaction>,
        max: usize,
    ) {
        (**self).next_interaction_batch(t0, view, out, max)
    }
}

/// Interactions [`InteractionSequence::fill_from`] pulls per batch from an
/// oblivious source.
const FILL_CHUNK: usize = 4096;

/// Panics unless both endpoints of `interaction` are below `n`.
#[inline]
fn check_in_range(interaction: Interaction, n: usize) {
    assert!(
        interaction.max().index() < n,
        "interaction {interaction} out of range for {n} nodes"
    );
}

/// A finite sequence of interactions; the interaction at index `t` occurs
/// at time `t`.
///
/// # Example
///
/// ```
/// use doda_core::{Interaction, InteractionSequence};
/// use doda_graph::NodeId;
///
/// let seq = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2), (0, 2)]);
/// assert_eq!(seq.len(), 3);
/// assert_eq!(seq.get(1), Some(Interaction::new(NodeId(1), NodeId(2))));
/// assert!(seq.underlying_graph().is_complete());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionSequence {
    n: usize,
    interactions: Vec<Interaction>,
}

impl InteractionSequence {
    /// Creates an empty sequence over `n` nodes.
    pub fn new(n: usize) -> Self {
        InteractionSequence {
            n,
            interactions: Vec::new(),
        }
    }

    /// Builds a sequence over `n` nodes from raw index pairs.
    ///
    /// # Panics
    ///
    /// Panics if a pair has equal elements or an element `>= n`.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut seq = InteractionSequence::new(n);
        for (a, b) in pairs {
            seq.push(Interaction::new(NodeId(a), NodeId(b)));
        }
        seq
    }

    /// Builds a sequence over `n` nodes from interactions.
    ///
    /// # Panics
    ///
    /// Panics if an interaction involves a node `>= n`.
    pub fn from_interactions<I>(n: usize, interactions: I) -> Self
    where
        I: IntoIterator<Item = Interaction>,
    {
        let mut seq = InteractionSequence::new(n);
        for i in interactions {
            seq.push(i);
        }
        seq
    }

    /// Materialises the first `len` interactions of `source` into a fresh
    /// sequence (shorter if the source is exhausted first).
    ///
    /// This is the one sanctioned bridge from the streaming world to the
    /// materialised one: knowledge oracles ([`crate::knowledge`]) need a
    /// concrete sequence, and the oblivious/randomized adversaries build
    /// theirs through this helper. The source is driven with a
    /// *materialisation view* in which every node owns data and the sink is
    /// node 0 — oblivious sources ignore the view entirely, and
    /// materialising an adaptive source captures the stream it would play
    /// against an algorithm that never transmits.
    ///
    /// # Example
    ///
    /// ```
    /// use doda_core::InteractionSequence;
    ///
    /// let committed = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2)]);
    /// let replayed = InteractionSequence::materialize(&mut committed.stream(true), 5);
    /// assert_eq!(replayed.len(), 5);
    /// assert_eq!(replayed.get(4), committed.get(0));
    /// ```
    pub fn materialize<S>(source: &mut S, len: usize) -> Self
    where
        S: InteractionSource + ?Sized,
    {
        let mut seq = InteractionSequence::new(source.node_count());
        seq.fill_from(source, len);
        seq
    }

    /// In-place counterpart of [`materialize`]: clears this sequence,
    /// re-targets it to the source's node count and fills it with up to
    /// `len` interactions, reusing the existing allocation. Sweep workers
    /// use this to refill one scratch buffer across many trials.
    ///
    /// [`is_oblivious`] sources are pulled through
    /// [`next_interaction_batch`] in fixed chunks, straight into the
    /// buffer: one dynamic call per chunk instead of one per step.
    /// Others are pulled one [`next_interaction`] per step. Both yield the
    /// same sequence, and both stop early when the source runs out.
    ///
    /// # Panics
    ///
    /// Panics if the source emits an interaction with a node `>=` its
    /// node count.
    ///
    /// [`materialize`]: InteractionSequence::materialize
    /// [`is_oblivious`]: InteractionSource::is_oblivious
    /// [`next_interaction_batch`]: InteractionSource::next_interaction_batch
    /// [`next_interaction`]: InteractionSource::next_interaction
    pub fn fill_from<S>(&mut self, source: &mut S, len: usize)
    where
        S: InteractionSource + ?Sized,
    {
        let n = source.node_count();
        self.reset(n);
        self.reserve(len);
        let owns = vec![true; n];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(0),
        };
        if source.is_oblivious() {
            while self.len() < len {
                let start = self.len();
                let want = FILL_CHUNK.min(len - start);
                source.next_interaction_batch(start as Time, &view, &mut self.interactions, want);
                for &interaction in &self.interactions[start..] {
                    check_in_range(interaction, n);
                }
                if self.len() - start < want {
                    break;
                }
            }
        } else {
            for t in 0..len {
                match source.next_interaction(t as Time, &view) {
                    Some(i) => self.push(i),
                    None => break,
                }
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of interactions (time steps).
    pub fn len(&self) -> usize {
        self.interactions.len()
    }

    /// Returns `true` if the sequence has no interactions.
    pub fn is_empty(&self) -> bool {
        self.interactions.is_empty()
    }

    /// Appends an interaction at the end of the sequence.
    ///
    /// # Panics
    ///
    /// Panics if the interaction involves a node `>= node_count()`.
    pub fn push(&mut self, interaction: Interaction) {
        check_in_range(interaction, self.n);
        self.interactions.push(interaction);
    }

    /// The interaction at time `t`, if within the sequence.
    pub fn get(&self, t: Time) -> Option<Interaction> {
        usize::try_from(t)
            .ok()
            .and_then(|idx| self.interactions.get(idx))
            .copied()
    }

    /// Iterates over `(time, interaction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = TimedInteraction> + '_ {
        self.interactions
            .iter()
            .enumerate()
            .map(|(t, &i)| TimedInteraction::new(t as Time, i))
    }

    /// The underlying graph `G̅`: one edge per pair that interacts at least once.
    pub fn underlying_graph(&self) -> AdjacencyGraph {
        doda_graph::underlying_graph(
            self.n,
            self.interactions.iter().map(|i| (i.pair().0, i.pair().1)),
        )
    }

    /// All times at which node `u` interacts with node `v`, in increasing order.
    pub fn meeting_times(&self, u: NodeId, v: NodeId) -> Vec<Time> {
        if u == v {
            return Vec::new();
        }
        let target = Interaction::new(u, v);
        self.iter()
            .filter(|ti| ti.interaction == target)
            .map(|ti| ti.time)
            .collect()
    }

    /// All times at which node `u` is involved in an interaction, with the
    /// corresponding partner.
    pub fn future_of(&self, u: NodeId) -> Vec<(Time, NodeId)> {
        self.iter()
            .filter_map(|ti| ti.interaction.partner_of(u).map(|p| (ti.time, p)))
            .collect()
    }

    /// Returns the sub-sequence covering times `[from, to)` (clamped),
    /// re-indexed to start at time 0.
    pub fn slice(&self, from: Time, to: Time) -> InteractionSequence {
        let from = usize::try_from(from)
            .unwrap_or(usize::MAX)
            .min(self.interactions.len());
        let to = usize::try_from(to)
            .unwrap_or(usize::MAX)
            .min(self.interactions.len());
        let items = if from < to {
            self.interactions[from..to].to_vec()
        } else {
            Vec::new()
        };
        InteractionSequence {
            n: self.n,
            interactions: items,
        }
    }

    /// Concatenates another sequence (over the same node count) after this one.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn concat(&self, other: &InteractionSequence) -> InteractionSequence {
        assert_eq!(
            self.n, other.n,
            "cannot concatenate sequences over different node counts"
        );
        let mut interactions = self.interactions.clone();
        interactions.extend_from_slice(&other.interactions);
        InteractionSequence {
            n: self.n,
            interactions,
        }
    }

    /// Repeats this sequence `times` times back to back.
    pub fn repeat(&self, times: usize) -> InteractionSequence {
        let mut interactions = Vec::with_capacity(self.interactions.len() * times);
        for _ in 0..times {
            interactions.extend_from_slice(&self.interactions);
        }
        InteractionSequence {
            n: self.n,
            interactions,
        }
    }

    /// Reverses the order of the interactions (used by the convergecast /
    /// broadcast duality of Theorem 8).
    pub fn reversed(&self) -> InteractionSequence {
        let mut interactions = self.interactions.clone();
        interactions.reverse();
        InteractionSequence {
            n: self.n,
            interactions,
        }
    }

    /// Clears the sequence and re-targets it to `n` nodes, retaining the
    /// interaction allocation. Workload generators use this to refill one
    /// scratch sequence across many trials instead of allocating a fresh
    /// buffer per trial.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.interactions.clear();
    }

    /// Reserves capacity for at least `additional` more interactions.
    pub fn reserve(&mut self, additional: usize) {
        self.interactions.reserve(additional);
    }

    /// A streaming source that replays this sequence and then, optionally,
    /// keeps cycling through it forever (`cycle = true`).
    ///
    /// This clones the sequence so the source is self-contained; hot paths
    /// that replay a sequence in place should use [`stream`] instead.
    ///
    /// [`stream`]: InteractionSequence::stream
    pub fn source(&self, cycle: bool) -> SequenceSource {
        SequenceSource {
            seq: self.clone(),
            cycle,
        }
    }

    /// A borrowing streaming source over this sequence — like [`source`]
    /// but without cloning the interactions, so replaying a materialised
    /// sequence costs nothing. Used by the sweep runner's hot path.
    ///
    /// [`source`]: InteractionSequence::source
    pub fn stream(&self, cycle: bool) -> SequenceStream<'_> {
        SequenceStream { seq: self, cycle }
    }
}

impl Extend<Interaction> for InteractionSequence {
    fn extend<T: IntoIterator<Item = Interaction>>(&mut self, iter: T) {
        for i in iter {
            self.push(i);
        }
    }
}

/// Streaming source backed by a finite [`InteractionSequence`], optionally
/// cycling forever (the "repeat infinitely often" constructions of
/// Theorems 1–4 are cyclic suffixes).
#[derive(Debug, Clone)]
pub struct SequenceSource {
    seq: InteractionSequence,
    cycle: bool,
}

impl InteractionSource for SequenceSource {
    fn node_count(&self) -> usize {
        self.seq.node_count()
    }

    fn next_interaction(&mut self, t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        if self.seq.is_empty() {
            return None;
        }
        if self.cycle {
            let idx = (t as usize) % self.seq.len();
            self.seq.get(idx as Time)
        } else {
            self.seq.get(t)
        }
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

/// Borrowing counterpart of [`SequenceSource`]: replays an
/// [`InteractionSequence`] without cloning it. Created by
/// [`InteractionSequence::stream`].
#[derive(Debug, Clone)]
pub struct SequenceStream<'a> {
    seq: &'a InteractionSequence,
    cycle: bool,
}

impl InteractionSource for SequenceStream<'_> {
    fn node_count(&self) -> usize {
        self.seq.node_count()
    }

    fn next_interaction(&mut self, t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        if self.seq.is_empty() {
            return None;
        }
        if self.cycle {
            let idx = (t as usize) % self.seq.len();
            self.seq.get(idx as Time)
        } else {
            self.seq.get(t)
        }
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq123() -> InteractionSequence {
        InteractionSequence::from_pairs(4, vec![(0, 1), (1, 2), (2, 3), (0, 1)])
    }

    #[test]
    fn construction_and_indexing() {
        let seq = seq123();
        assert_eq!(seq.node_count(), 4);
        assert_eq!(seq.len(), 4);
        assert!(!seq.is_empty());
        assert_eq!(seq.get(2), Some(Interaction::new(NodeId(2), NodeId(3))));
        assert_eq!(seq.get(99), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range() {
        let mut seq = InteractionSequence::new(2);
        seq.push(Interaction::new(NodeId(0), NodeId(2)));
    }

    #[test]
    fn underlying_graph_dedup() {
        let g = seq123().underlying_graph();
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn meeting_times_and_futures() {
        let seq = seq123();
        assert_eq!(seq.meeting_times(NodeId(0), NodeId(1)), vec![0, 3]);
        assert_eq!(seq.meeting_times(NodeId(1), NodeId(0)), vec![0, 3]);
        assert_eq!(seq.meeting_times(NodeId(0), NodeId(3)), Vec::<Time>::new());
        assert_eq!(seq.meeting_times(NodeId(0), NodeId(0)), Vec::<Time>::new());
        assert_eq!(
            seq.future_of(NodeId(1)),
            vec![(0, NodeId(0)), (1, NodeId(2)), (3, NodeId(0))]
        );
    }

    #[test]
    fn slicing_and_concat() {
        let seq = seq123();
        let mid = seq.slice(1, 3);
        assert_eq!(mid.len(), 2);
        assert_eq!(mid.get(0), Some(Interaction::new(NodeId(1), NodeId(2))));
        assert_eq!(seq.slice(3, 1).len(), 0);
        assert_eq!(seq.slice(2, 100).len(), 2);

        let joined = mid.concat(&seq.slice(0, 1));
        assert_eq!(joined.len(), 3);
        assert_eq!(joined.get(2), Some(Interaction::new(NodeId(0), NodeId(1))));
    }

    #[test]
    fn repeat_and_reverse() {
        let seq = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2)]);
        let rep = seq.repeat(3);
        assert_eq!(rep.len(), 6);
        assert_eq!(rep.get(4), Some(Interaction::new(NodeId(0), NodeId(1))));
        let rev = seq.reversed();
        assert_eq!(rev.get(0), Some(Interaction::new(NodeId(1), NodeId(2))));
    }

    #[test]
    fn sequence_source_finite_and_cyclic() {
        let seq = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2)]);
        let owns = vec![true, true, true];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(0),
        };
        let mut finite = seq.source(false);
        assert_eq!(finite.node_count(), 3);
        assert!(finite.next_interaction(0, &view).is_some());
        assert!(finite.next_interaction(1, &view).is_some());
        assert!(finite.next_interaction(2, &view).is_none());

        let mut cyclic = seq.source(true);
        assert_eq!(
            cyclic.next_interaction(5, &view),
            Some(Interaction::new(NodeId(1), NodeId(2)))
        );
    }

    #[test]
    fn stream_matches_cloning_source() {
        let seq = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2)]);
        let owns = vec![true, true, true];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(0),
        };
        for cycle in [false, true] {
            let mut cloning = seq.source(cycle);
            let mut borrowing = seq.stream(cycle);
            assert_eq!(borrowing.node_count(), cloning.node_count());
            for t in 0..6 {
                assert_eq!(
                    borrowing.next_interaction(t, &view),
                    cloning.next_interaction(t, &view),
                    "divergence at t={t}, cycle={cycle}"
                );
            }
        }
    }

    /// An oblivious source over `n` nodes that emits `(0, 1)` until step
    /// `bad_at`, then `(0, n + 1)`: out of range.
    struct OutOfRangeAt {
        n: usize,
        bad_at: Time,
    }

    impl InteractionSource for OutOfRangeAt {
        fn node_count(&self) -> usize {
            self.n
        }

        fn is_oblivious(&self) -> bool {
            true
        }

        fn next_interaction(&mut self, t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
            let b = if t == self.bad_at { self.n + 1 } else { 1 };
            Some(Interaction::new(NodeId(0), NodeId(b)))
        }
    }

    #[test]
    #[should_panic(expected = "interaction {v0, v4} out of range for 3 nodes")]
    fn batched_fill_rejects_out_of_range_nodes_with_the_push_message() {
        let mut seq = InteractionSequence::new(3);
        let mut source = OutOfRangeAt { n: 3, bad_at: 5000 };
        seq.fill_from(&mut source, 6000);
    }

    #[test]
    fn batched_fill_stops_at_an_exhausted_source_length() {
        // Longer than one fill chunk, so the source runs dry mid-chunk
        // after at least one full chunk.
        let committed =
            InteractionSequence::from_pairs(5, (0..FILL_CHUNK + 17).map(|t| (t % 4, 4)));
        assert!(committed.stream(false).is_oblivious());
        let mut scratch = InteractionSequence::from_pairs(9, vec![(7, 8); 3]);
        scratch.fill_from(&mut committed.stream(false), 3 * FILL_CHUNK);
        assert_eq!(scratch, committed);
        // An exact multiple of the chunk, and an empty source.
        let exact = committed.slice(0, FILL_CHUNK as Time);
        scratch.fill_from(&mut exact.stream(false), 2 * FILL_CHUNK);
        assert_eq!(scratch, exact);
        scratch.fill_from(&mut InteractionSequence::new(2).stream(false), 10);
        assert!(scratch.is_empty());
        assert_eq!(scratch.node_count(), 2);
    }

    #[test]
    fn reset_retargets_and_clears() {
        let mut seq = InteractionSequence::from_pairs(4, vec![(0, 1), (2, 3)]);
        seq.reserve(16);
        seq.reset(2);
        assert_eq!(seq.node_count(), 2);
        assert!(seq.is_empty());
        seq.push(Interaction::new(NodeId(0), NodeId(1)));
        assert_eq!(seq.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reset_enforces_the_new_node_count() {
        let mut seq = InteractionSequence::from_pairs(4, vec![(2, 3)]);
        seq.reset(2);
        seq.push(Interaction::new(NodeId(2), NodeId(3)));
    }

    #[test]
    fn empty_cyclic_source_is_exhausted() {
        let seq = InteractionSequence::new(3);
        let owns = vec![true; 3];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(0),
        };
        assert!(seq.source(true).next_interaction(0, &view).is_none());
    }

    #[test]
    fn adversary_view_helpers() {
        let owns = vec![true, false, true];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(2),
        };
        assert_eq!(view.node_count(), 3);
        assert_eq!(view.owner_count(), 2);
        assert!(view.owns(NodeId(0)));
        assert!(!view.owns(NodeId(1)));
        assert!(!view.owns(NodeId(9)));
    }

    #[test]
    fn extend_appends() {
        let mut seq = InteractionSequence::new(3);
        seq.extend([Interaction::new(NodeId(0), NodeId(1))]);
        assert_eq!(seq.len(), 1);
    }

    #[test]
    fn materialize_stops_at_exhaustion() {
        let seq = seq123();
        let materialized = InteractionSequence::materialize(&mut seq.stream(false), 100);
        assert_eq!(materialized, seq);
        let cycled = InteractionSequence::materialize(&mut seq.stream(true), 10);
        assert_eq!(cycled.len(), 10);
        assert_eq!(cycled.get(4), seq.get(0));
    }

    #[test]
    fn fill_from_reuses_the_buffer_and_retargets() {
        let small = InteractionSequence::from_pairs(2, vec![(0, 1)]);
        let big = seq123();
        let mut scratch = InteractionSequence::new(8);
        scratch.fill_from(&mut big.stream(false), 3);
        assert_eq!(scratch.node_count(), 4);
        assert_eq!(scratch.len(), 3);
        scratch.fill_from(&mut small.stream(true), 5);
        assert_eq!(scratch.node_count(), 2);
        assert_eq!(scratch.len(), 5);
    }
}
