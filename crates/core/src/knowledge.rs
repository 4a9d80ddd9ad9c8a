//! Knowledge oracles.
//!
//! A DODA algorithm "may use additional functions associated with different
//! knowledge" (Section 2.1). This module provides the knowledge functions
//! the paper studies:
//!
//! * [`MeetTimeOracle`] — `u.meetTime(t)`: the time of `u`'s next
//!   interaction with the sink after `t` (Waiting Greedy, Theorem 10/11);
//! * [`FullKnowledge`] — the entire interaction sequence (Theorem 8);
//! * the underlying graph `G̅` (Theorems 3–5) is simply
//!   [`crate::InteractionSequence::underlying_graph`].
//!
//! Every oracle describes a future the adversary has committed to (or
//! generated), and exposes only the slice of it that the corresponding
//! knowledge model grants to nodes. [`MeetTimeOracle`] and
//! [`FullKnowledge`] read a finite [`InteractionSequence`];
//! [`MeetTimeLookahead`] answers the Waiting Greedy rule's `meetTime`
//! questions on demand from a second copy of the committed stream,
//! reading only as far ahead as each answer needs.

use std::collections::VecDeque;

use doda_graph::NodeId;

use crate::interaction::Time;
use crate::sequence::{CommittedStream, InteractionSequence, InteractionSource};

/// The time of a node's next meeting with the sink; `Never` behaves as
/// `+∞` in comparisons, matching the convention needed by Waiting Greedy
/// (a node that will never meet the sink again should prefer to transmit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeetTime {
    /// Next meeting with the sink occurs at this time.
    At(Time),
    /// The node never meets the sink after the queried time.
    Never,
}

impl MeetTime {
    /// Returns the meeting time as a number, mapping `Never` to `u64::MAX`.
    fn as_u64(self) -> u64 {
        match self {
            MeetTime::At(t) => t,
            MeetTime::Never => u64::MAX,
        }
    }

    /// Returns `true` if this meet time is strictly greater than `bound`
    /// (`Never` is greater than everything).
    pub fn exceeds(self, bound: Time) -> bool {
        self.as_u64() > bound
    }
}

impl PartialOrd for MeetTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MeetTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_u64().cmp(&other.as_u64())
    }
}

/// Oracle answering `u.meetTime(t)` queries: the smallest `t' > t` such
/// that `I_{t'} = {u, s}`.
///
/// For the sink itself the paper defines `s.meetTime` as the identity
/// `t ↦ t`.
///
/// # Example
///
/// ```
/// use doda_core::{InteractionSequence, knowledge::{MeetTime, MeetTimeOracle}};
/// use doda_graph::NodeId;
///
/// let seq = InteractionSequence::from_pairs(3, vec![(1, 2), (0, 2), (0, 1)]);
/// let oracle = MeetTimeOracle::new(&seq, NodeId(0));
/// assert_eq!(oracle.meet_time(NodeId(2), 0), MeetTime::At(1));
/// assert_eq!(oracle.meet_time(NodeId(2), 1), MeetTime::Never);
/// assert_eq!(oracle.meet_time(NodeId(0), 5), MeetTime::At(5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeetTimeOracle {
    sink: NodeId,
    /// Flat arena of meeting times: node `u`'s sorted meeting times with
    /// the sink live at `times[offsets[u] .. offsets[u + 1]]`. Two
    /// allocations total, independent of `n` — the naive
    /// Vec-of-Vecs layout did one heap allocation per node, which at
    /// n = 10^6 dominated oracle construction.
    offsets: Vec<usize>,
    times: Vec<Time>,
}

impl MeetTimeOracle {
    /// Builds the oracle for `sink` from the full interaction sequence.
    ///
    /// Two passes over the sequence: count each node's sink meetings,
    /// prefix-sum the counts into offsets, then scatter the times. The
    /// sequence is time-ordered, so per-node times land sorted.
    pub fn new(seq: &InteractionSequence, sink: NodeId) -> Self {
        let n = seq.node_count();
        let mut offsets = vec![0usize; n + 1];
        for ti in seq.iter() {
            if let Some(partner) = ti.interaction.partner_of(sink) {
                offsets[partner.index() + 1] += 1;
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut times = vec![0; offsets[n]];
        let mut cursor = offsets.clone();
        for ti in seq.iter() {
            if let Some(partner) = ti.interaction.partner_of(sink) {
                times[cursor[partner.index()]] = ti.time;
                cursor[partner.index()] += 1;
            }
        }
        MeetTimeOracle {
            sink,
            offsets,
            times,
        }
    }

    /// The sink this oracle was built for.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// `u.meetTime(t)`: the smallest `t' > t` with `I_{t'} = {u, sink}`.
    ///
    /// For `u == sink`, returns `MeetTime::At(t)` (the identity, per the
    /// paper). For out-of-range nodes, returns `Never`.
    pub fn meet_time(&self, u: NodeId, t: Time) -> MeetTime {
        if u == self.sink {
            return MeetTime::At(t);
        }
        let times = self.all_meetings(u);
        let idx = times.partition_point(|&x| x <= t);
        match times.get(idx) {
            Some(&t2) => MeetTime::At(t2),
            None => MeetTime::Never,
        }
    }

    /// All meeting times of `u` with the sink (sorted, full horizon).
    fn all_meetings(&self, u: NodeId) -> &[Time] {
        match self.offsets.get(u.index()..) {
            Some(&[start, end, ..]) => &self.times[start..end],
            _ => &[],
        }
    }
}

/// Marks "no meeting" in [`MeetTimeLookahead`]'s per-node links.
const NO_MEETING: usize = usize::MAX;

/// One pending sink meeting in [`MeetTimeLookahead`]'s log.
#[derive(Clone, Copy)]
struct Meeting {
    time: Time,
    node: usize,
    /// Absolute log index of the node's next pending meeting.
    next: usize,
}

/// `meetTime` answered on demand: a second copy of the committed stream
/// runs ahead of the execution and keeps only each node's pending sink
/// meetings, instead of an oracle over the whole materialised horizon.
///
/// The stream is the one [`InteractionSequence::fill_from`] would
/// materialise from `source` up to `horizon` ([`CommittedStream`]), so
/// every answer equals [`MeetTimeOracle`]'s over that sequence: a node
/// that meets the sink neither before the horizon nor before the source
/// ends reads [`MeetTime::Never`], and the sink's meetTime is the
/// identity. It is one-shot: query times must never decrease (the engine
/// clock is monotone), and meetings at or before the latest query time
/// are dropped. Memory is `O(n)` plus the meetings scanned but not yet
/// passed.
///
/// # Example
///
/// ```
/// use doda_core::{InteractionSequence, knowledge::{MeetTime, MeetTimeLookahead}};
/// use doda_graph::NodeId;
///
/// let seq = InteractionSequence::from_pairs(3, vec![(1, 2), (0, 2), (0, 1)]);
/// let mut lookahead = MeetTimeLookahead::new(seq.source(false), 3, NodeId(0));
/// // Node 2 meets the sink first (at 1), node 1 after it (at 2 ≤ τ = 5).
/// assert_eq!(
///     lookahead.meet_times(NodeId(1), NodeId(2), 0, 5),
///     (MeetTime::At(2), MeetTime::At(1))
/// );
/// // The sink's meetTime is the identity; node 2 never meets it again.
/// assert_eq!(
///     lookahead.meet_times(NodeId(0), NodeId(2), 1, 5),
///     (MeetTime::At(1), MeetTime::Never)
/// );
/// ```
pub struct MeetTimeLookahead {
    stream: CommittedStream<Box<dyn InteractionSource + Send>>,
    sink: NodeId,
    /// The latest query time.
    now: Time,
    /// The scanned sink meetings after `now`, in time order; `log[i]` has
    /// absolute index `base + i`.
    log: VecDeque<Meeting>,
    base: usize,
    /// Per node, the absolute log index of its first and last pending
    /// meeting ([`NO_MEETING`] when it has none): two flat vectors, not
    /// one allocation per node.
    first: Vec<usize>,
    last: Vec<usize>,
}

impl MeetTimeLookahead {
    /// A lookahead over the schedule `source` commits up to `horizon`,
    /// for `sink`.
    pub fn new<S>(source: S, horizon: usize, sink: NodeId) -> Self
    where
        S: InteractionSource + Send + 'static,
    {
        let source: Box<dyn InteractionSource + Send> = Box::new(source);
        let n = source.node_count();
        MeetTimeLookahead {
            stream: CommittedStream::new(source, horizon),
            sink,
            now: 0,
            log: VecDeque::new(),
            base: 0,
            first: vec![NO_MEETING; n],
            last: vec![NO_MEETING; n],
        }
    }

    /// `u1.meetTime(t)` and `u2.meetTime(t)`, exact as far as the Waiting
    /// Greedy rule with horizon `tau` reads them: which of the two comes
    /// first, and whether the later one comes after `tau`. The earlier is
    /// exact; the later is exact when it comes at or before `tau` or was
    /// already scanned, and otherwise reads [`MeetTime::Never`]. The
    /// stream is scanned up to `min(later, max(tau, earlier))` at most.
    ///
    /// Out-of-range nodes read [`MeetTime::Never`], as with
    /// [`MeetTimeOracle::meet_time`].
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than a previous query's time.
    pub fn meet_times(
        &mut self,
        u1: NodeId,
        u2: NodeId,
        t: Time,
        tau: Time,
    ) -> (MeetTime, MeetTime) {
        assert!(
            t >= self.now,
            "meetTime lookahead queries must not go back in time: {t} after {}",
            self.now
        );
        self.now = t;
        while let Some(&meeting) = self.log.front().filter(|m| m.time <= t) {
            self.first[meeting.node] = meeting.next;
            if meeting.next == NO_MEETING {
                self.last[meeting.node] = NO_MEETING;
            }
            self.log.pop_front();
            self.base += 1;
        }
        // Which of the two meets the sink first?
        if self.pending(u1).is_none() && self.pending(u2).is_none() {
            self.scan([u1, u2], Time::MAX);
        }
        // Whether the later one comes after τ needs it only up to τ.
        match (self.pending(u1), self.pending(u2)) {
            (Some(_), None) => self.scan([u2, u2], tau),
            (None, Some(_)) => self.scan([u1, u1], tau),
            _ => {}
        }
        let meet_time = |m: Option<Time>| m.map_or(MeetTime::Never, MeetTime::At);
        (meet_time(self.pending(u1)), meet_time(self.pending(u2)))
    }

    /// `u`'s first scanned meeting after the latest query time (that time
    /// itself for the sink).
    fn pending(&self, u: NodeId) -> Option<Time> {
        if u == self.sink {
            return Some(self.now);
        }
        match self.first.get(u.index()) {
            None | Some(&NO_MEETING) => None,
            Some(&index) => Some(self.log[index - self.base].time),
        }
    }

    /// Scans the stream until it records a sink meeting of a `wanted`
    /// node, passes `limit`, or ends.
    fn scan(&mut self, wanted: [NodeId; 2], limit: Time) {
        loop {
            let time = self.stream.yielded() as Time;
            if time > limit {
                return;
            }
            let Some(interaction) = self.stream.next() else {
                return;
            };
            let Some(partner) = interaction.partner_of(self.sink) else {
                continue;
            };
            // A clock that ran ahead of the scan (fault events) has
            // already passed this meeting.
            if time <= self.now {
                continue;
            }
            let node = partner.index();
            let index = self.base + self.log.len();
            self.log.push_back(Meeting {
                time,
                node,
                next: NO_MEETING,
            });
            match self.last[node] {
                NO_MEETING => self.first[node] = index,
                previous => self.log[previous - self.base].next = index,
            }
            self.last[node] = index;
            if wanted.contains(&partner) {
                return;
            }
        }
    }
}

impl std::fmt::Debug for MeetTimeLookahead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeetTimeLookahead")
            .field("sink", &self.sink)
            .field("now", &self.now)
            .field("stream", &self.stream)
            .field("pending", &self.log.len())
            .finish()
    }
}

/// Full knowledge of the sequence of interactions (Theorem 8 / Corollary 1).
///
/// A thin wrapper that exists mostly for type-level clarity in algorithm
/// constructors: an algorithm taking `FullKnowledge` advertises the
/// strongest knowledge model of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullKnowledge {
    sequence: InteractionSequence,
}

impl FullKnowledge {
    /// Wraps the full interaction sequence.
    pub fn new(sequence: InteractionSequence) -> Self {
        FullKnowledge { sequence }
    }

    /// The full interaction sequence.
    pub fn sequence(&self) -> &InteractionSequence {
        &self.sequence
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq() -> InteractionSequence {
        // s = 0
        InteractionSequence::from_pairs(4, vec![(1, 2), (0, 2), (1, 3), (0, 2), (0, 3)])
    }

    #[test]
    fn meet_time_basic_queries() {
        let oracle = MeetTimeOracle::new(&seq(), NodeId(0));
        assert_eq!(oracle.sink(), NodeId(0));
        // Node 2 meets the sink at times 1 and 3.
        assert_eq!(oracle.meet_time(NodeId(2), 0), MeetTime::At(1));
        assert_eq!(oracle.meet_time(NodeId(2), 1), MeetTime::At(3));
        assert_eq!(oracle.meet_time(NodeId(2), 3), MeetTime::Never);
        // Node 1 never meets the sink.
        assert_eq!(oracle.meet_time(NodeId(1), 0), MeetTime::Never);
        // Node 3 meets the sink at time 4.
        assert_eq!(oracle.meet_time(NodeId(3), 0), MeetTime::At(4));
        assert_eq!(oracle.all_meetings(NodeId(2)), &[1, 3]);
        assert_eq!(oracle.all_meetings(NodeId(9)), &[] as &[Time]);
    }

    #[test]
    fn out_of_range_nodes_never_meet_the_sink() {
        // n = 4: node 4 is the first out-of-range index.
        let oracle = MeetTimeOracle::new(&seq(), NodeId(0));
        assert_eq!(oracle.all_meetings(NodeId(4)), &[] as &[Time]);
        assert_eq!(oracle.meet_time(NodeId(4), 0), MeetTime::Never);
        assert_eq!(oracle.meet_time(NodeId(usize::MAX), 0), MeetTime::Never);
    }

    #[test]
    fn lookahead_reads_out_of_range_nodes_as_never() {
        let mut lookahead = MeetTimeLookahead::new(seq().source(false), 5, NodeId(0));
        assert_eq!(
            lookahead.meet_times(NodeId(4), NodeId(2), 0, 0),
            (MeetTime::Never, MeetTime::At(1))
        );
    }

    #[test]
    #[should_panic(expected = "must not go back in time")]
    fn lookahead_queries_never_go_back_in_time() {
        let mut lookahead = MeetTimeLookahead::new(seq().source(false), 5, NodeId(0));
        let _ = lookahead.meet_times(NodeId(1), NodeId(2), 3, 0);
        let _ = lookahead.meet_times(NodeId(1), NodeId(2), 2, 0);
    }

    #[test]
    fn meet_time_query_is_strictly_after_t() {
        let oracle = MeetTimeOracle::new(&seq(), NodeId(0));
        // Querying exactly at a meeting time returns the *next* one.
        assert_eq!(oracle.meet_time(NodeId(2), 1), MeetTime::At(3));
    }

    #[test]
    fn sink_meet_time_is_identity() {
        let oracle = MeetTimeOracle::new(&seq(), NodeId(0));
        assert_eq!(oracle.meet_time(NodeId(0), 7), MeetTime::At(7));
    }

    #[test]
    fn meet_time_ordering_and_exceeds() {
        assert!(MeetTime::Never > MeetTime::At(1_000_000));
        assert!(MeetTime::At(3) < MeetTime::At(5));
        assert!(MeetTime::Never.exceeds(u64::MAX - 1));
        assert!(MeetTime::At(10).exceeds(9));
        assert!(!MeetTime::At(10).exceeds(10));
    }

    #[test]
    fn full_knowledge_roundtrip() {
        let s = seq();
        let fk = FullKnowledge::new(s.clone());
        assert_eq!(fk.sequence(), &s);
    }
}
