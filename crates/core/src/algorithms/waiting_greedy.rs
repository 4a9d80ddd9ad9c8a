//! The Waiting Greedy algorithm.
//!
//! Waiting Greedy with parameter `τ` (`WG_τ ∈ D∅ODA(meetTime)`,
//! Section 4): when two data-owning nodes interact, "the node with the
//! greatest meet time transmits, if its meet time is greater than `τ`".
//! Nodes that will meet the sink before the horizon `τ` hold on to their
//! data and deliver it directly; the others offload onto them. After time
//! `τ` the rule degenerates into Gathering.
//!
//! With `τ = Θ(n^{3/2}·√(log n))` the algorithm terminates within `τ`
//! interactions w.h.p. (Theorem 10, Corollary 3), and no algorithm knowing
//! only `meetTime` can do better (Theorem 11).

use doda_graph::NodeId;

use crate::algorithm::{Decision, DodaAlgorithm, InteractionContext};
use crate::interaction::Time;
use crate::knowledge::{MeetTime, MeetTimeLookahead, MeetTimeOracle};
use crate::sequence::InteractionSequence;

/// The Waiting Greedy algorithm with horizon parameter `τ`.
#[derive(Debug)]
pub struct WaitingGreedy {
    tau: Time,
    knowledge: Knowledge,
}

/// The two forms of `meetTime` knowledge the rule reads.
#[derive(Debug)]
enum Knowledge {
    Oracle(MeetTimeOracle),
    Lookahead(MeetTimeLookahead),
}

impl Knowledge {
    /// `u1.meetTime(t)` and `u2.meetTime(t)`, exact as far as the rule
    /// with horizon `tau` reads them (see
    /// [`MeetTimeLookahead::meet_times`]).
    fn meet_times(&mut self, u1: NodeId, u2: NodeId, t: Time, tau: Time) -> (MeetTime, MeetTime) {
        match self {
            Knowledge::Oracle(oracle) => (oracle.meet_time(u1, t), oracle.meet_time(u2, t)),
            Knowledge::Lookahead(lookahead) => lookahead.meet_times(u1, u2, t, tau),
        }
    }
}

impl WaitingGreedy {
    /// Creates the algorithm with an explicit horizon `τ` and a meetTime
    /// oracle (built from the adversary's sequence for the intended sink).
    pub fn new(tau: Time, oracle: MeetTimeOracle) -> Self {
        WaitingGreedy {
            tau,
            knowledge: Knowledge::Oracle(oracle),
        }
    }

    /// Creates the algorithm with an explicit horizon `τ`, answering each
    /// decision's meetTime question on demand from `lookahead` instead of
    /// an oracle over the materialised sequence. Decides exactly as
    /// [`WaitingGreedy::new`] with the oracle of the sequence the
    /// lookahead's stream commits.
    pub fn with_lookahead(tau: Time, lookahead: MeetTimeLookahead) -> Self {
        WaitingGreedy {
            tau,
            knowledge: Knowledge::Lookahead(lookahead),
        }
    }

    /// Creates the algorithm with the paper's recommended horizon
    /// `τ = n^{3/2}·√(log n)` (Corollary 3), where `n` is the node count of
    /// `seq`, building the meetTime oracle from `seq`.
    pub fn with_recommended_tau(seq: &InteractionSequence, sink: NodeId) -> Self {
        let tau = doda_stats::harmonic::waiting_greedy_tau(seq.node_count());
        WaitingGreedy::new(tau, MeetTimeOracle::new(seq, sink))
    }

    /// The horizon parameter `τ`.
    pub fn tau(&self) -> Time {
        self.tau
    }
}

impl DodaAlgorithm for WaitingGreedy {
    fn name(&self) -> &str {
        "WaitingGreedy"
    }

    fn decide(&mut self, ctx: &InteractionContext) -> Decision {
        if !ctx.both_own_data() {
            return Decision::Idle;
        }
        let (u1, u2) = ctx.interaction.pair();
        let (m1, m2) = self.knowledge.meet_times(u1, u2, ctx.time, self.tau);
        // The node with the greatest meetTime transmits, provided that
        // meetTime exceeds τ; the other node is the receiver.
        if m1 <= m2 && m2.exceeds(self.tau) {
            Decision::Transmit {
                sender: u2,
                receiver: u1,
            }
        } else if m1 > m2 && m1.exceeds(self.tau) {
            Decision::Transmit {
                sender: u1,
                receiver: u2,
            }
        } else {
            Decision::Idle
        }
    }

    // The decision depends only on the current interaction, the time and
    // the meetTime knowledge: nodes need no persistent memory.
    fn is_oblivious(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::Interaction;

    /// Sink 0. Node 1 meets the sink at time 10 (before τ); node 2 meets the
    /// sink at time 100 (after τ); node 3 never meets the sink.
    fn oracle() -> MeetTimeOracle {
        let mut seq = InteractionSequence::new(4);
        for t in 0..101u64 {
            let i = match t {
                10 => Interaction::new(NodeId(0), NodeId(1)),
                100 => Interaction::new(NodeId(0), NodeId(2)),
                _ => Interaction::new(NodeId(1), NodeId(2)),
            };
            let _ = t;
            seq.push(i);
        }
        MeetTimeOracle::new(&seq, NodeId(0))
    }

    fn ctx(pair: (usize, usize), time: Time, owns: (bool, bool)) -> InteractionContext {
        InteractionContext {
            time,
            interaction: Interaction::new(NodeId(pair.0), NodeId(pair.1)),
            min_owns_data: owns.0,
            max_owns_data: owns.1,
            sink: NodeId(0),
        }
    }

    #[test]
    fn node_meeting_sink_late_offloads_to_node_meeting_it_early() {
        let mut wg = WaitingGreedy::new(50, oracle());
        assert_eq!(wg.tau(), 50);
        // Node 1 meets the sink at 10 <= τ, node 2 at 100 > τ: node 2 (greater
        // meet time, exceeding τ) transmits to node 1.
        let d = wg.decide(&ctx((1, 2), 0, (true, true)));
        assert_eq!(
            d,
            Decision::Transmit {
                sender: NodeId(2),
                receiver: NodeId(1)
            }
        );
    }

    #[test]
    fn both_meeting_sink_before_tau_wait() {
        let mut wg = WaitingGreedy::new(200, oracle());
        // τ = 200: both nodes meet the sink before τ, so nobody transmits.
        assert_eq!(wg.decide(&ctx((1, 2), 0, (true, true))), Decision::Idle);
    }

    #[test]
    fn node_never_meeting_sink_always_transmits_to_peer() {
        let mut wg = WaitingGreedy::new(50, oracle());
        // Node 3 never meets the sink (meetTime = ∞ > τ), node 1 meets at 10.
        let d = wg.decide(&ctx((1, 3), 0, (true, true)));
        assert_eq!(
            d,
            Decision::Transmit {
                sender: NodeId(3),
                receiver: NodeId(1)
            }
        );
    }

    #[test]
    fn interaction_with_sink_behaves_per_meet_time_rule() {
        let mut wg = WaitingGreedy::new(50, oracle());
        // Sink's meetTime is the identity (t). Node 2's next meeting is 100 > τ,
        // so node 2 transmits to the sink.
        let d = wg.decide(&ctx((0, 2), 5, (true, true)));
        assert_eq!(
            d,
            Decision::Transmit {
                sender: NodeId(2),
                receiver: NodeId(0)
            }
        );
        // Node 1's next meeting is 10 <= τ: it waits even when facing the sink
        // right now (the algorithm's literal rule from the paper).
        assert_eq!(wg.decide(&ctx((0, 1), 5, (true, true))), Decision::Idle);
    }

    #[test]
    fn after_tau_the_rule_degenerates_into_gathering() {
        let mut wg = WaitingGreedy::new(50, oracle());
        // At time 60 > τ every future meet time exceeds τ, so someone always
        // transmits when both own data.
        let d = wg.decide(&ctx((1, 2), 60, (true, true)));
        assert!(!d.is_idle());
    }

    #[test]
    fn idle_without_mutual_data() {
        let mut wg = WaitingGreedy::new(50, oracle());
        assert_eq!(wg.decide(&ctx((1, 2), 0, (false, true))), Decision::Idle);
        assert_eq!(wg.decide(&ctx((1, 2), 0, (true, false))), Decision::Idle);
    }

    #[test]
    fn recommended_tau_matches_closed_form() {
        let seq = InteractionSequence::from_pairs(16, vec![(0, 1), (2, 3)]);
        let wg = WaitingGreedy::with_recommended_tau(&seq, NodeId(0));
        assert_eq!(wg.tau(), doda_stats::harmonic::waiting_greedy_tau(16));
        assert!(wg.is_oblivious());
        assert_eq!(wg.name(), "WaitingGreedy");
    }
}
