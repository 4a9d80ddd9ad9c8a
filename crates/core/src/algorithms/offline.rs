//! The offline optimal algorithm (full knowledge).
//!
//! With full knowledge of the sequence of interactions, the best possible
//! algorithm simply computes an optimal convergecast schedule and follows
//! it; against the randomized adversary it terminates in `Θ(n log n)`
//! interactions in expectation and w.h.p. (Theorem 8). Its cost is 1 on
//! every sequence on which a convergecast exists.

use doda_graph::NodeId;

use crate::algorithm::{Decision, DodaAlgorithm, InteractionContext};
use crate::convergecast::{optimal_convergecast, ConvergecastSchedule};
use crate::knowledge::FullKnowledge;

/// The offline optimal algorithm: follow a pre-computed optimal
/// convergecast schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineOptimal {
    schedule: Option<ConvergecastSchedule>,
}

impl OfflineOptimal {
    /// Builds the algorithm from full knowledge of the interaction sequence.
    ///
    /// If no convergecast exists on the sequence, the algorithm holds no
    /// schedule and never transmits (no algorithm could terminate on such a
    /// sequence).
    ///
    /// # Panics
    ///
    /// Panics if `sink` is out of range for the sequence's node count.
    pub fn new(knowledge: &FullKnowledge, sink: NodeId) -> Self {
        OfflineOptimal {
            schedule: optimal_convergecast(knowledge.sequence(), sink, 0),
        }
    }

    /// The schedule being followed, if a convergecast exists.
    pub fn schedule(&self) -> Option<&ConvergecastSchedule> {
        self.schedule.as_ref()
    }
}

impl DodaAlgorithm for OfflineOptimal {
    fn name(&self) -> &str {
        "OfflineOptimal"
    }

    fn decide(&mut self, ctx: &InteractionContext) -> Decision {
        let Some(schedule) = &self.schedule else {
            return Decision::Idle;
        };
        schedule.decide(ctx)
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{cost_of_outcome, Cost};
    use crate::engine::{run_with_id_sets, EngineConfig};
    use crate::sequence::InteractionSequence;

    #[test]
    fn follows_the_optimal_schedule_exactly() {
        // 1 and 2 can merge at t=0; the merged data reaches the sink at t=1.
        let seq = InteractionSequence::from_pairs(3, vec![(1, 2), (0, 2), (0, 1)]);
        let mut algo = OfflineOptimal::new(&FullKnowledge::new(seq.clone()), NodeId(0));
        assert!(algo.schedule().is_some());
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(outcome.terminated());
        assert_eq!(outcome.termination_time, Some(1));
        assert!(outcome.sink_data.as_ref().unwrap().covers_all(3));
        assert_eq!(cost_of_outcome(&seq, &outcome, 10), Cost::Finite(1));
    }

    #[test]
    fn cost_is_one_on_any_feasible_sequence() {
        let seq = InteractionSequence::from_pairs(
            5,
            vec![
                (1, 2),
                (3, 4),
                (2, 3),
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (0, 1),
            ],
        );
        let mut algo = OfflineOptimal::new(&FullKnowledge::new(seq.clone()), NodeId(0));
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(outcome.terminated());
        let cost = cost_of_outcome(&seq, &outcome, 10);
        assert!(
            cost.is_optimal(),
            "offline optimal must have cost 1, got {cost}"
        );
    }

    #[test]
    fn never_transmits_when_no_convergecast_exists() {
        let seq = InteractionSequence::from_pairs(3, vec![(1, 2), (1, 2)]);
        let mut algo = OfflineOptimal::new(&FullKnowledge::new(seq.clone()), NodeId(0));
        assert!(algo.schedule().is_none());
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(!outcome.terminated());
        assert_eq!(outcome.transmission_count(), 0);
        assert_eq!(algo.name(), "OfflineOptimal");
        assert!(algo.is_oblivious());
    }
}
