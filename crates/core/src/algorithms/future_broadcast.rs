//! The future-knowledge algorithm (Theorem 6).
//!
//! When every node initially knows its *own* future (the times and partners
//! of all its interactions), Theorem 6 shows a DODA algorithm whose cost is
//! at most `n` on every sequence: nodes first disseminate their futures to
//! everyone (which takes at most `n − 1` successive convergecast
//! durations), at which point they all share full knowledge and can follow
//! a common optimal convergecast schedule (one more convergecast duration).
//!
//! # Faithfulness of the implementation
//!
//! Futures are *control information*: exchanging them during an interaction
//! is free and does not consume the single data transmission. The
//! implementation simulates that gossip exactly — when `u` and `v`
//! interact, each learns every future the other currently knows. A node
//! with full knowledge can deterministically compute (a) the first time
//! `t*` by which *every* node has full knowledge (the gossip process is a
//! deterministic function of the sequence, which full knowledge reveals)
//! and (b) the optimal convergecast starting at `t* + 1`. All fully
//! informed nodes therefore agree on the same schedule without any extra
//! communication, and nobody is asked to act before being fully informed.

use doda_graph::NodeId;

use crate::algorithm::{Decision, DodaAlgorithm, InteractionContext};
use crate::convergecast::{optimal_convergecast, ConvergecastSchedule};
use crate::interaction::Time;
use crate::sequence::InteractionSequence;

/// The future-broadcast algorithm of Theorem 6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FutureBroadcast {
    /// Time by which every node knows every future, if that ever happens.
    full_knowledge_time: Option<Time>,
    /// The common schedule followed once everybody is informed.
    schedule: Option<ConvergecastSchedule>,
}

impl FutureBroadcast {
    /// Builds the algorithm for the dynamic graph described by `seq` with
    /// the given sink.
    ///
    /// The constructor uses `seq` only to *simulate* what the nodes
    /// themselves would compute from their own futures and the gossip
    /// exchange; decisions never use information a node would not have.
    ///
    /// # Panics
    ///
    /// Panics if `sink` is out of range for the sequence's node count.
    pub fn new(seq: &InteractionSequence, sink: NodeId) -> Self {
        assert!(
            sink.index() < seq.node_count(),
            "sink {sink} out of range for {} nodes",
            seq.node_count()
        );
        let full_knowledge_time = Self::simulate_gossip(seq);
        let schedule =
            full_knowledge_time.and_then(|t_star| optimal_convergecast(seq, sink, t_star + 1));
        FutureBroadcast {
            full_knowledge_time,
            schedule,
        }
    }

    /// Simulates the future-gossip: each node starts knowing only its own
    /// future; whenever two nodes interact they merge their knowledge.
    /// Returns the first time at which all nodes know all futures.
    fn simulate_gossip(seq: &InteractionSequence) -> Option<Time> {
        let n = seq.node_count();
        if n <= 1 {
            return Some(0);
        }
        // known[v] = bitmask-ish set of node indices whose futures v knows.
        let mut known: Vec<Vec<bool>> = (0..n)
            .map(|v| {
                let mut k = vec![false; n];
                k[v] = true;
                k
            })
            .collect();
        let mut counts: Vec<usize> = vec![1; n];
        let mut fully_informed = 0usize;
        for ti in seq.iter() {
            let (a, b) = ti.interaction.pair();
            let (ai, bi) = (a.index(), b.index());
            // Merge the two knowledge sets (split the rows to walk them in
            // lockstep without re-indexing).
            let (lo, hi) = known.split_at_mut(ai.max(bi));
            let (a_row, b_row) = if ai < bi {
                (&mut lo[ai], &mut hi[0])
            } else {
                (&mut hi[0], &mut lo[bi])
            };
            for (xa, xb) in a_row.iter_mut().zip(b_row.iter_mut()) {
                if *xa && !*xb {
                    *xb = true;
                    counts[bi] += 1;
                } else if *xb && !*xa {
                    *xa = true;
                    counts[ai] += 1;
                }
            }
            let before = fully_informed;
            fully_informed = counts.iter().filter(|&&c| c == n).count();
            if fully_informed == n && before < n {
                return Some(ti.time);
            }
        }
        None
    }

    /// The common convergecast schedule, if one exists after `t*`.
    pub fn schedule(&self) -> Option<&ConvergecastSchedule> {
        self.schedule.as_ref()
    }
}

impl DodaAlgorithm for FutureBroadcast {
    fn name(&self) -> &str {
        "FutureBroadcast"
    }

    fn decide(&mut self, ctx: &InteractionContext) -> Decision {
        let Some(schedule) = &self.schedule else {
            return Decision::Idle;
        };
        if ctx.time <= self.full_knowledge_time.unwrap_or(Time::MAX) {
            // Still in the dissemination phase: everybody waits.
            return Decision::Idle;
        }
        schedule.decide(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{cost_of_outcome, Cost};
    use crate::engine::{run_with_id_sets, EngineConfig};

    /// A round-robin of all pairs over 4 nodes, repeated; futures spread
    /// quickly and many convergecasts exist.
    fn round_robin(repeats: usize) -> InteractionSequence {
        let pairs = vec![(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)];
        InteractionSequence::from_pairs(4, pairs).repeat(repeats)
    }

    #[test]
    fn gossip_reaches_full_knowledge() {
        let seq = round_robin(2);
        let algo = FutureBroadcast::new(&seq, NodeId(0));
        let t_star = algo.full_knowledge_time.unwrap();
        assert!(t_star < seq.len() as Time);
        assert!(algo.schedule().is_some());
    }

    #[test]
    fn gossip_never_completes_without_enough_mixing() {
        // Nodes 2 and 3 only ever talk to each other: they never learn the
        // futures of 0 and 1.
        let seq = InteractionSequence::from_pairs(4, vec![(0, 1), (2, 3), (0, 1), (2, 3)]);
        let algo = FutureBroadcast::new(&seq, NodeId(0));
        assert_eq!(algo.full_knowledge_time, None);
        assert!(algo.schedule().is_none());
    }

    #[test]
    fn terminates_and_respects_cost_bound_n() {
        let seq = round_robin(8);
        let n = seq.node_count() as u64;
        let mut algo = FutureBroadcast::new(&seq, NodeId(0));
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(outcome.terminated());
        assert!(outcome.sink_data.as_ref().unwrap().covers_all(4));
        // Theorem 6: cost at most n.
        match cost_of_outcome(&seq, &outcome, 4 * n) {
            Cost::Finite(c) => assert!(c <= n, "cost {c} exceeds n = {n}"),
            other => panic!("expected finite cost, got {other}"),
        }
    }

    #[test]
    fn waits_during_dissemination_phase() {
        let seq = round_robin(8);
        let mut algo = FutureBroadcast::new(&seq, NodeId(0));
        let t_star = algo.full_knowledge_time.unwrap();
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        for tr in &outcome.transmissions {
            assert!(
                tr.time > t_star,
                "transmission at {} before t*={t_star}",
                tr.time
            );
        }
        assert_eq!(algo.name(), "FutureBroadcast");
        assert!(!algo.is_oblivious());
    }

    #[test]
    fn single_node_graph_trivially_complete() {
        let seq = InteractionSequence::new(1);
        let algo = FutureBroadcast::new(&seq, NodeId(0));
        assert_eq!(algo.full_knowledge_time, Some(0));
    }
}
