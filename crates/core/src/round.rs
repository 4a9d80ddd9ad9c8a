//! The round-based execution model: matchings of disjoint interactions.
//!
//! The paper's adversary schedules **one** pairwise interaction per time
//! step, but the setting it models — and the dynamic-graph literature it
//! sits in — is *synchronous rounds* in which many disjoint edges are live
//! at once. This module describes that setting:
//!
//! * a [`Matching`] is a validated set of vertex-disjoint interactions —
//!   the edges live in one round;
//! * a [`RoundSource`] produces one matching per round, observing the same
//!   adversary view as an [`InteractionSource`] (so round adversaries can
//!   be adaptive);
//! * [`FlattenedRounds`] plays a round source as an [`InteractionSource`],
//!   one interaction per time step in matching order.
//!
//! Because the edges of a matching are disjoint, no node takes part in two
//! interactions of the same round, so applying a round's interactions in
//! matching order is *exactly* the synchronous semantics: each decision
//! depends only on the two endpoints' state at round start, which no other
//! interaction of the round can touch. A round is therefore just a run of
//! consecutive steps, and every round execution goes through the one
//! engine event loop, [`crate::Engine::step_for`], or the lane engine.
//! [`RoundSource::is_oblivious`] sources are pulled there in bursts, like
//! any oblivious pairwise source. The flattened stream also reaches
//! everything else built for the pairwise model: knowledge oracles via
//! [`crate::InteractionSequence::materialize`], and fault plans via
//! [`crate::fault::FaultedSource`], which wraps the flattened stream so
//! crash / churn / loss compose over round scenarios without the round
//! source knowing.

use doda_graph::NodeId;

use crate::interaction::{Interaction, Time};
use crate::sequence::{AdversaryView, InteractionSource};

/// How many consecutive *empty* rounds [`FlattenedRounds`] tolerates before
/// treating a round source as exhausted.
///
/// Empty rounds are legal (an evolving-graph window may contain no edge)
/// but consume no interaction budget, so an endless run of them would hang
/// the engine.
pub const MAX_CONSECUTIVE_EMPTY_ROUNDS: u64 = 65_536;

/// A validated matching: a set of pairwise vertex-disjoint interactions
/// over `n` nodes — the set of edges live in one synchronous round.
///
/// Disjointness is enforced on insertion in `O(1)` per interaction, so a
/// `Matching` is a matching *by construction* and nothing downstream has
/// to re-validate. The buffer is reusable: [`Matching::reset`] clears it
/// in `O(len)` (not `O(n)`), which keeps the per-round cost of
/// [`FlattenedRounds`] proportional to the matching size.
///
/// # Example
///
/// ```
/// use doda_core::{Interaction, Matching};
/// use doda_graph::NodeId;
///
/// let mut m = Matching::new(6);
/// m.push(Interaction::new(NodeId(0), NodeId(1)));
/// m.push(Interaction::new(NodeId(4), NodeId(2)));
/// assert_eq!(m.len(), 2);
/// assert!(m.matched(NodeId(4)));
/// // Node 1 is taken: {1, 5} cannot join the matching.
/// assert!(!m.try_push(Interaction::new(NodeId(1), NodeId(5))));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matching {
    n: usize,
    interactions: Vec<Interaction>,
    matched: Vec<bool>,
}

impl Matching {
    /// Creates an empty matching over `n` nodes.
    pub fn new(n: usize) -> Self {
        Matching {
            n,
            interactions: Vec::new(),
            matched: vec![false; n],
        }
    }

    /// Builds a matching over `n` nodes from raw index pairs.
    ///
    /// # Panics
    ///
    /// Panics if a pair has equal elements, an element `>= n`, or shares a
    /// node with an earlier pair.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut m = Matching::new(n);
        for (a, b) in pairs {
            m.push(Interaction::new(NodeId(a), NodeId(b)));
        }
        m
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of interactions in the matching.
    pub fn len(&self) -> usize {
        self.interactions.len()
    }

    /// Returns `true` if the matching has no interactions.
    pub fn is_empty(&self) -> bool {
        self.interactions.is_empty()
    }

    /// Returns `true` if node `v` is an endpoint of some interaction.
    pub fn matched(&self, v: NodeId) -> bool {
        self.matched.get(v.index()).copied().unwrap_or(false)
    }

    /// Attempts to add an interaction; returns `false` (leaving the
    /// matching unchanged) if an endpoint is already matched.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= node_count()`.
    pub fn try_push(&mut self, interaction: Interaction) -> bool {
        assert!(
            interaction.max().index() < self.n,
            "interaction {interaction} out of range for {} nodes",
            self.n
        );
        let (a, b) = (interaction.min().index(), interaction.max().index());
        if self.matched[a] || self.matched[b] {
            return false;
        }
        self.matched[a] = true;
        self.matched[b] = true;
        self.interactions.push(interaction);
        true
    }

    /// Adds an interaction.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= node_count()` or already matched (use
    /// [`try_push`] for the non-panicking greedy-insertion form).
    ///
    /// [`try_push`]: Matching::try_push
    pub fn push(&mut self, interaction: Interaction) {
        assert!(
            self.try_push(interaction),
            "interaction {interaction} shares a node with the matching"
        );
    }

    /// Removes every interaction, keeping the allocations. `O(len)`.
    pub fn clear(&mut self) {
        for &i in &self.interactions {
            self.matched[i.min().index()] = false;
            self.matched[i.max().index()] = false;
        }
        self.interactions.clear();
    }

    /// Clears the matching and re-targets it to `n` nodes, retaining the
    /// allocations where possible. [`FlattenedRounds`] resets its round
    /// through this before pulling the next one.
    pub fn reset(&mut self, n: usize) {
        if n == self.n {
            self.clear();
        } else {
            self.n = n;
            self.interactions.clear();
            self.matched.clear();
            self.matched.resize(n, false);
        }
    }

    /// The interactions, in insertion order.
    pub fn as_slice(&self) -> &[Interaction] {
        &self.interactions
    }

    /// Iterates over the interactions in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Interaction> + '_ {
        self.interactions.iter().copied()
    }
}

/// A producer of synchronous rounds: one [`Matching`] per round.
///
/// [`next_round`] is called once per round with strictly increasing round
/// indices starting from 0, with a cleared matching sized to
/// [`node_count`]. Like [`InteractionSource`], the view exposes the
/// ownership bitmap, so round adversaries can be adaptive; sources that
/// reset internal state when `round == 0` are reusable across executions
/// (the same convention the adaptive pairwise adversaries follow).
///
/// [`next_round`]: RoundSource::next_round
/// [`node_count`]: RoundSource::node_count
pub trait RoundSource {
    /// Number of nodes of the dynamic graph.
    fn node_count(&self) -> usize;

    /// Fills `out` with the matching of round `round` and returns `true`,
    /// or returns `false` when the source is exhausted (finite round
    /// schedules only). `out` arrives cleared and sized to
    /// [`node_count`](RoundSource::node_count); an empty round (no live
    /// edge) is expressed by returning `true` without pushing anything.
    fn next_round(&mut self, round: Time, view: &AdversaryView<'_>, out: &mut Matching) -> bool;

    /// `true` iff the source never reads the ownership bitmap of the
    /// [`AdversaryView`], with the same meaning and the same consumers as
    /// [`InteractionSource::is_oblivious`]: [`FlattenedRounds`] forwards
    /// it, so an oblivious round stream is pulled in bursts.
    fn is_oblivious(&self) -> bool {
        false
    }
}

impl<R: RoundSource + ?Sized> RoundSource for &mut R {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn next_round(&mut self, round: Time, view: &AdversaryView<'_>, out: &mut Matching) -> bool {
        (**self).next_round(round, view, out)
    }

    fn is_oblivious(&self) -> bool {
        (**self).is_oblivious()
    }
}

impl<R: RoundSource + ?Sized> RoundSource for Box<R> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn next_round(&mut self, round: Time, view: &AdversaryView<'_>, out: &mut Matching) -> bool {
        (**self).next_round(round, view, out)
    }

    fn is_oblivious(&self) -> bool {
        (**self).is_oblivious()
    }
}

/// Plays a [`RoundSource`] as an [`InteractionSource`]: each round's
/// matching is fixed when the round starts (preserving the synchronous
/// semantics) and its interactions are then emitted one per time step, in
/// matching order. Empty rounds are skipped transparently, up to
/// [`MAX_CONSECUTIVE_EMPTY_ROUNDS`] in a row; after that many the stream
/// ends.
///
/// An oblivious round source ([`RoundSource::is_oblivious`]) makes the
/// flattened stream oblivious too, and [`InteractionSource::next_interaction_batch`] then
/// copies whole rounds into a burst: a burst that ends inside a round
/// keeps the rest of it buffered for the next pull, exactly as per-step
/// pulls would.
///
/// Like the adaptive adversaries, the adapter resets itself at `t = 0`,
/// so one instance can be reused across executions deterministically.
#[derive(Debug, Clone)]
pub struct FlattenedRounds<R> {
    inner: R,
    /// The round being emitted; its first `cursor` interactions are out.
    round: Matching,
    cursor: usize,
    rounds_pulled: Time,
}

impl<R: RoundSource> FlattenedRounds<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        let n = inner.node_count();
        FlattenedRounds {
            inner,
            round: Matching::new(n),
            cursor: 0,
            rounds_pulled: 0,
        }
    }

    /// Number of rounds pulled from the inner source in this execution,
    /// empty ones included.
    pub fn rounds_pulled(&self) -> Time {
        self.rounds_pulled
    }

    /// Starts a fresh execution: a half-emitted round from a previous run
    /// must not leak into this one.
    fn restart(&mut self) {
        self.round.clear();
        self.cursor = 0;
        self.rounds_pulled = 0;
    }

    /// Makes sure the current round has an interaction left to emit,
    /// pulling the next non-empty round once the current one is spent.
    /// Returns `false` when the inner source ends, or after
    /// [`MAX_CONSECUTIVE_EMPTY_ROUNDS`] empty rounds in a row.
    fn refill(&mut self, view: &AdversaryView<'_>) -> bool {
        if self.cursor < self.round.len() {
            return true;
        }
        let n = self.inner.node_count();
        for _ in 0..MAX_CONSECUTIVE_EMPTY_ROUNDS {
            self.round.reset(n);
            self.cursor = 0;
            if !self
                .inner
                .next_round(self.rounds_pulled, view, &mut self.round)
            {
                // Whatever an ending source pushed is not a round.
                self.round.clear();
                return false;
            }
            self.rounds_pulled += 1;
            if !self.round.is_empty() {
                return true;
            }
        }
        false
    }
}

impl<R: RoundSource> InteractionSource for FlattenedRounds<R> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        if t == 0 {
            self.restart();
        }
        if !self.refill(view) {
            return None;
        }
        let interaction = self.round.as_slice()[self.cursor];
        self.cursor += 1;
        Some(interaction)
    }

    fn is_oblivious(&self) -> bool {
        self.inner.is_oblivious()
    }

    fn next_interaction_batch(
        &mut self,
        t0: Time,
        view: &AdversaryView<'_>,
        out: &mut Vec<Interaction>,
        max: usize,
    ) {
        if t0 == 0 {
            self.restart();
        }
        // One reservation for the whole burst: growing `out` a round at a
        // time would round its capacity up well past `max`.
        out.reserve(max);
        let mut left = max;
        while left > 0 && self.refill(view) {
            let pending = &self.round.as_slice()[self.cursor..];
            let take = pending.len().min(left);
            out.extend_from_slice(&pending[..take]);
            self.cursor += take;
            left -= take;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sequence::InteractionSequence;

    fn view_all(owns: &[bool], sink: NodeId) -> AdversaryView<'_> {
        AdversaryView {
            owns_data: owns,
            sink,
        }
    }

    /// A round source over a fixed list of rounds, each a list of index
    /// pairs; it ends after the last one.
    pub(crate) struct Schedule {
        pub(crate) n: usize,
        pub(crate) rounds: Vec<Vec<(usize, usize)>>,
    }

    impl RoundSource for Schedule {
        fn node_count(&self) -> usize {
            self.n
        }

        fn next_round(&mut self, round: Time, _: &AdversaryView<'_>, out: &mut Matching) -> bool {
            let Some(pairs) = self.rounds.get(round as usize) else {
                return false;
            };
            for &(a, b) in pairs {
                out.push(Interaction::new(NodeId(a), NodeId(b)));
            }
            true
        }

        fn is_oblivious(&self) -> bool {
            true
        }
    }

    /// Lifts a pairwise source to one-interaction rounds: round `r` holds
    /// the interaction the inner source produces at time `r`.
    pub(crate) struct Singletons<S>(pub(crate) S);

    impl<S: InteractionSource> RoundSource for Singletons<S> {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }

        fn next_round(
            &mut self,
            round: Time,
            view: &AdversaryView<'_>,
            out: &mut Matching,
        ) -> bool {
            self.0
                .next_interaction(round, view)
                .map(|interaction| out.push(interaction))
                .is_some()
        }

        fn is_oblivious(&self) -> bool {
            self.0.is_oblivious()
        }
    }

    /// Drains `flat` from `t = 0` in bursts of `burst` interactions (one
    /// per-step pull each when `burst` is 0), until the stream ends.
    fn drain<R: RoundSource>(flat: &mut FlattenedRounds<R>, burst: usize) -> Vec<Interaction> {
        let owns = vec![true; flat.node_count()];
        let view = view_all(&owns, NodeId(0));
        let mut out = Vec::new();
        loop {
            let t = out.len() as Time;
            if burst == 0 {
                match flat.next_interaction(t, &view) {
                    Some(interaction) => out.push(interaction),
                    None => return out,
                }
            } else {
                flat.next_interaction_batch(t, &view, &mut out, burst);
                if out.len() < t as usize + burst {
                    return out;
                }
            }
        }
    }

    #[test]
    fn matching_enforces_disjointness_and_range() {
        let mut m = Matching::new(5);
        assert!(m.try_push(Interaction::new(NodeId(0), NodeId(1))));
        assert!(m.try_push(Interaction::new(NodeId(2), NodeId(3))));
        assert!(!m.try_push(Interaction::new(NodeId(3), NodeId(4))));
        assert_eq!(m.len(), 2);
        assert!(m.matched(NodeId(0)));
        assert!(!m.matched(NodeId(4)));
        assert!(!m.matched(NodeId(99)));
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![
                Interaction::new(NodeId(0), NodeId(1)),
                Interaction::new(NodeId(2), NodeId(3)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "shares a node")]
    fn matching_push_panics_on_conflict() {
        let mut m = Matching::from_pairs(4, vec![(0, 1)]);
        m.push(Interaction::new(NodeId(1), NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn matching_rejects_out_of_range() {
        let mut m = Matching::new(2);
        let _ = m.try_push(Interaction::new(NodeId(0), NodeId(2)));
    }

    #[test]
    fn matching_clear_and_reset_reuse_the_buffer() {
        let mut m = Matching::from_pairs(6, vec![(0, 1), (2, 3)]);
        m.clear();
        assert!(m.is_empty());
        assert!(!m.matched(NodeId(0)));
        assert!(m.try_push(Interaction::new(NodeId(1), NodeId(0))));
        m.reset(3);
        assert_eq!(m.node_count(), 3);
        assert!(m.is_empty());
        assert!(!m.matched(NodeId(1)));
        assert!(m.try_push(Interaction::new(NodeId(1), NodeId(2))));
    }

    #[test]
    fn singleton_rounds_mirror_the_inner_source() {
        let seq = InteractionSequence::from_pairs(4, vec![(0, 1), (2, 3), (1, 2)]);
        let expected: Vec<_> = (0..3).map(|t| seq.get(t).unwrap()).collect();
        for burst in [0, 1, 2, 256] {
            let mut flat = FlattenedRounds::new(Singletons(seq.stream(false)));
            assert!(flat.is_oblivious());
            assert_eq!(drain(&mut flat, burst), expected, "burst {burst}");
            assert_eq!(flat.rounds_pulled(), 3);
        }
    }

    #[test]
    fn flattened_rounds_emit_matchings_in_order_and_reset_at_t0() {
        let mut flat = FlattenedRounds::new(Schedule {
            n: 5,
            rounds: vec![vec![(0, 1), (2, 3)], vec![(1, 4)]],
        });
        let owns = vec![true; 5];
        let view = view_all(&owns, NodeId(0));
        let expected = [
            Interaction::new(NodeId(0), NodeId(1)),
            Interaction::new(NodeId(2), NodeId(3)),
            Interaction::new(NodeId(1), NodeId(4)),
        ];
        for run in 0..2 {
            for (t, want) in expected.iter().enumerate() {
                assert_eq!(
                    flat.next_interaction(t as Time, &view),
                    Some(*want),
                    "run {run}, t {t}"
                );
            }
            assert_eq!(flat.next_interaction(3, &view), None);
            assert_eq!(flat.rounds_pulled(), 2);
        }
    }

    #[test]
    fn flattened_rounds_skip_empty_rounds() {
        let mut flat = FlattenedRounds::new(Schedule {
            n: 3,
            rounds: vec![vec![], vec![(1, 2)], vec![]],
        });
        let owns = vec![true; 3];
        let view = view_all(&owns, NodeId(0));
        assert_eq!(
            flat.next_interaction(0, &view),
            Some(Interaction::new(NodeId(1), NodeId(2)))
        );
        assert_eq!(flat.next_interaction(1, &view), None);
    }

    #[test]
    fn flattening_an_endless_run_of_empty_rounds_terminates() {
        struct AlwaysEmpty;
        impl RoundSource for AlwaysEmpty {
            fn node_count(&self) -> usize {
                3
            }
            fn next_round(
                &mut self,
                _r: Time,
                _v: &AdversaryView<'_>,
                _out: &mut Matching,
            ) -> bool {
                true
            }
        }
        for burst in [0, 256] {
            let mut flat = FlattenedRounds::new(AlwaysEmpty);
            assert!(drain(&mut flat, burst).is_empty());
            assert_eq!(flat.rounds_pulled(), MAX_CONSECUTIVE_EMPTY_ROUNDS);
        }
    }

    /// Bursts of every size give the per-step stream: a burst that ends
    /// inside a round resumes it, a run of one empty round fewer than the
    /// limit is skipped, and a run that reaches the limit ends the stream
    /// before the round behind it.
    #[test]
    fn burst_pulls_equal_per_step_pulls() {
        let empty = |k: u64| vec![Vec::new(); k as usize];
        let schedule = || {
            let mut rounds = vec![vec![(0, 1), (2, 3), (4, 5)], vec![(1, 2)]];
            rounds.extend(empty(MAX_CONSECUTIVE_EMPTY_ROUNDS - 1));
            rounds.push(vec![(3, 4), (0, 5)]);
            rounds.push(vec![(0, 2), (1, 3), (4, 5)]);
            rounds.extend(empty(MAX_CONSECUTIVE_EMPTY_ROUNDS));
            rounds.push(vec![(0, 1)]);
            FlattenedRounds::new(Schedule { n: 6, rounds })
        };
        let pairs = [
            (0, 1),
            (2, 3),
            (4, 5),
            (1, 2),
            (3, 4),
            (0, 5),
            (0, 2),
            (1, 3),
            (4, 5),
        ];
        let expected: Vec<_> = pairs
            .iter()
            .map(|&(a, b)| Interaction::new(NodeId(a), NodeId(b)))
            .collect();
        for burst in [0, 1, 2, 3, 4, 5, 8, 256] {
            let mut flat = schedule();
            assert_eq!(drain(&mut flat, burst), expected, "burst {burst}");
            assert_eq!(
                flat.rounds_pulled(),
                2 * MAX_CONSECUTIVE_EMPTY_ROUNDS + 3,
                "burst {burst}"
            );
        }
    }

    /// One instance serves a second run from `t = 0` after the first
    /// paused inside a round, whichever way either run pulls.
    #[test]
    fn one_flattened_stream_serves_two_runs_after_a_mid_round_pause() {
        let mut flat = FlattenedRounds::new(Schedule {
            n: 6,
            rounds: vec![vec![(0, 1), (2, 3), (4, 5)], vec![(1, 2), (3, 4)]],
        });
        let fresh = drain(&mut flat, 0);
        assert_eq!(fresh.len(), 5);
        let owns = vec![true; 6];
        let view = view_all(&owns, NodeId(0));
        for paused_after in [1, 2, 4] {
            for first_burst in [0, paused_after] {
                for second_burst in [0, 1, 2, 256] {
                    let mut first = Vec::new();
                    if first_burst == 0 {
                        for t in 0..paused_after as Time {
                            first.extend(flat.next_interaction(t, &view));
                        }
                    } else {
                        flat.next_interaction_batch(0, &view, &mut first, first_burst);
                    }
                    assert_eq!(first, fresh[..paused_after]);
                    assert_eq!(
                        drain(&mut flat, second_burst),
                        fresh,
                        "paused after {paused_after}, bursts {first_burst} then {second_burst}"
                    );
                }
            }
        }
    }
}
