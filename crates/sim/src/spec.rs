//! Algorithm specifications.
//!
//! Algorithms differ in the knowledge they require (nothing, `meetTime`,
//! the underlying graph, their own future, or the full sequence), so they
//! cannot all be constructed before the adversary's sequence is known.
//! [`AlgorithmSpec`] captures *which* algorithm to run;
//! [`AlgorithmSpec::knowledge_requirement`] classifies what the algorithm
//! must see of the future, which decides the execution path:
//!
//! * [`KnowledgeRequirement::None`] algorithms instantiate with
//!   [`AlgorithmSpec::instantiate_online`] and run **streamed** — the
//!   engine pulls interactions straight from the adversary in `O(n)`
//!   memory at any horizon;
//! * every other requirement needs the adversary to **commit** to its
//!   sequence first, because the oracles (`meetTime`, underlying graph,
//!   futures, full sequence) are functions of the future.
//!   [`KnowledgeRequirement::MeetTime`] specs run against a lookahead
//!   over a second copy of the committed stream, which reads only as far
//!   ahead as each decision needs; the others materialise the sequence
//!   ([`AlgorithmSpec::instantiate`]). [`crate::TrialRunner::run`] picks
//!   the construction from the requirement.

use doda_core::algorithms::{
    FutureBroadcast, OfflineOptimal, SpanningTreeAggregation, WaitingGreedy,
};
use doda_core::knowledge::{FullKnowledge, MeetTimeLookahead, MeetTimeOracle};
use doda_core::{DodaAlgorithm, InteractionSequence, InteractionSource, Time};
use doda_graph::NodeId;

/// The knowledge class an algorithm draws on — and therefore whether a
/// sweep must have the adversary commit to its sequence before execution.
///
/// Only [`KnowledgeRequirement::None`] algorithms can run against a live
/// (possibly adaptive) adversary; the other classes need oracles that are
/// functions of the future, so the adversary must commit to a finite
/// sequence first. A sweep fills that sequence into memory for every
/// class but [`KnowledgeRequirement::MeetTime`], whose questions a
/// [`MeetTimeLookahead`] answers from the committed stream on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KnowledgeRequirement {
    /// Decides from the current interaction alone: streams in `O(n)`
    /// memory against any adversary, including adaptive ones.
    None,
    /// Needs the `meetTime` oracle (next meeting with the sink). Sweeps
    /// answer it with a lookahead, never filling the horizon.
    MeetTime,
    /// Needs the underlying graph `G̅` of the whole sequence.
    UnderlyingGraph,
    /// Needs each node's own future interactions.
    OwnFuture,
    /// Needs the entire interaction sequence.
    FullSequence,
}

impl KnowledgeRequirement {
    /// `true` iff this requirement can only be satisfied by a sequence
    /// the adversary commits to up front (materialised, or for `meetTime`
    /// read ahead on demand).
    pub fn requires_materialization(self) -> bool {
        self != KnowledgeRequirement::None
    }

    /// The label used in reports and tables.
    pub fn label(self) -> &'static str {
        match self {
            KnowledgeRequirement::None => "none",
            KnowledgeRequirement::MeetTime => "meetTime",
            KnowledgeRequirement::UnderlyingGraph => "underlying graph",
            KnowledgeRequirement::OwnFuture => "own future",
            KnowledgeRequirement::FullSequence => "full sequence",
        }
    }
}

/// A named DODA algorithm together with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// [`Waiting`](doda_core::algorithms::Waiting) — no knowledge.
    Waiting,
    /// [`Gathering`](doda_core::algorithms::Gathering) — no knowledge.
    Gathering,
    /// [`WaitingGreedy`] with an explicit `τ`, or the paper's recommended
    /// `τ = n^{3/2}√(log n)` when `None`.
    WaitingGreedy {
        /// Explicit horizon, or `None` for the recommended value.
        tau: Option<Time>,
    },
    /// [`SpanningTreeAggregation`] over the sequence's underlying graph.
    SpanningTree,
    /// [`FutureBroadcast`] — own-future knowledge.
    FutureBroadcast,
    /// [`OfflineOptimal`] — full knowledge.
    OfflineOptimal,
}

impl AlgorithmSpec {
    /// All specs, in the order used by comparison tables.
    pub fn all() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::OfflineOptimal,
            AlgorithmSpec::WaitingGreedy { tau: None },
            AlgorithmSpec::Gathering,
            AlgorithmSpec::Waiting,
            AlgorithmSpec::SpanningTree,
            AlgorithmSpec::FutureBroadcast,
        ]
    }

    /// The specs of the randomized-adversary comparison (Theorems 7–11).
    pub fn randomized_comparison() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::OfflineOptimal,
            AlgorithmSpec::WaitingGreedy { tau: None },
            AlgorithmSpec::Gathering,
            AlgorithmSpec::Waiting,
        ]
    }

    /// A short label used in tables and benchmark ids.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmSpec::Waiting => "Waiting",
            AlgorithmSpec::Gathering => "Gathering",
            AlgorithmSpec::WaitingGreedy { .. } => "WaitingGreedy",
            AlgorithmSpec::SpanningTree => "SpanningTree",
            AlgorithmSpec::FutureBroadcast => "FutureBroadcast",
            AlgorithmSpec::OfflineOptimal => "OfflineOptimal",
        }
    }

    /// The knowledge class the spec's algorithm requires.
    pub fn knowledge_requirement(&self) -> KnowledgeRequirement {
        match self {
            AlgorithmSpec::Waiting | AlgorithmSpec::Gathering => KnowledgeRequirement::None,
            AlgorithmSpec::WaitingGreedy { .. } => KnowledgeRequirement::MeetTime,
            AlgorithmSpec::SpanningTree => KnowledgeRequirement::UnderlyingGraph,
            AlgorithmSpec::FutureBroadcast => KnowledgeRequirement::OwnFuture,
            AlgorithmSpec::OfflineOptimal => KnowledgeRequirement::FullSequence,
        }
    }

    /// `true` iff sweeps must materialise the adversary's sequence to run
    /// this spec (see [`KnowledgeRequirement::requires_materialization`]).
    pub fn requires_materialization(&self) -> bool {
        self.knowledge_requirement().requires_materialization()
    }

    /// The knowledge model the spec corresponds to (for reports).
    pub fn knowledge(&self) -> &'static str {
        self.knowledge_requirement().label()
    }

    /// The knowledge-free rule of this spec, if it has one.
    ///
    /// Exactly the knowledge-free specs have one. The lane tier
    /// ([`doda_core::LaneEngine`]) executes `Waiting` and `Gathering` as
    /// bitset operations, byte-identical per trial to the scalar engine,
    /// and the scalar engine runs the same rule by value for streamed
    /// trials and service sessions. Every other spec needs oracles and
    /// returns `None` — sweeps fall back to the scalar path.
    pub fn lane_algorithm(&self) -> Option<doda_core::LaneAlgorithm> {
        match self {
            AlgorithmSpec::Waiting => Some(doda_core::LaneAlgorithm::Waiting),
            AlgorithmSpec::Gathering => Some(doda_core::LaneAlgorithm::Gathering),
            _ => None,
        }
    }

    /// Instantiates a knowledge-free algorithm — no sequence, no oracles —
    /// ready to run streamed against any [`doda_core::InteractionSource`],
    /// including adaptive adversaries.
    ///
    /// Returns `None` when the spec requires knowledge of the future
    /// (check with [`AlgorithmSpec::requires_materialization`]); such specs
    /// must go through [`AlgorithmSpec::instantiate`] with a materialised
    /// sequence. The box holds [`AlgorithmSpec::lane_algorithm`]'s rule.
    pub fn instantiate_online(&self) -> Option<Box<dyn DodaAlgorithm + Send>> {
        self.lane_algorithm()
            .map(|rule| Box::new(rule) as Box<dyn DodaAlgorithm + Send>)
    }

    /// Instantiates the algorithm for a concrete sequence and sink,
    /// building whatever knowledge oracles it needs.
    ///
    /// Returns `None` only for [`AlgorithmSpec::SpanningTree`] when the
    /// sequence's underlying graph is not connected (no spanning tree — and
    /// indeed no aggregation — exists on such a dynamic graph).
    pub fn instantiate(
        &self,
        seq: &InteractionSequence,
        sink: NodeId,
    ) -> Option<Box<dyn DodaAlgorithm>> {
        match self {
            AlgorithmSpec::Waiting | AlgorithmSpec::Gathering => self
                .lane_algorithm()
                .map(|rule| Box::new(rule) as Box<dyn DodaAlgorithm>),
            AlgorithmSpec::WaitingGreedy { tau } => {
                let algo = match tau {
                    Some(tau) => WaitingGreedy::new(*tau, MeetTimeOracle::new(seq, sink)),
                    None => WaitingGreedy::with_recommended_tau(seq, sink),
                };
                Some(Box::new(algo))
            }
            AlgorithmSpec::SpanningTree => {
                let underlying = seq.underlying_graph();
                SpanningTreeAggregation::from_underlying_graph(&underlying, sink)
                    .map(|a| Box::new(a) as Box<dyn DodaAlgorithm>)
            }
            AlgorithmSpec::FutureBroadcast => Some(Box::new(FutureBroadcast::new(seq, sink))),
            AlgorithmSpec::OfflineOptimal => Some(Box::new(OfflineOptimal::new(
                &FullKnowledge::new(seq.clone()),
                sink,
            ))),
        }
    }

    /// Instantiates a [`KnowledgeRequirement::MeetTime`] spec whose
    /// knowledge a [`MeetTimeLookahead`] answers on demand from `source`'s
    /// committed schedule up to `horizon`: the algorithm decides exactly
    /// as [`AlgorithmSpec::instantiate`] over the sequence
    /// [`InteractionSequence::fill_from`] would fill, without filling it.
    /// The recommended `τ` reads `n` from the source.
    ///
    /// Returns `None` for every other spec.
    pub(crate) fn instantiate_lookahead<S>(
        &self,
        source: S,
        horizon: usize,
        sink: NodeId,
    ) -> Option<Box<dyn DodaAlgorithm + Send>>
    where
        S: InteractionSource + Send + 'static,
    {
        let AlgorithmSpec::WaitingGreedy { tau } = *self else {
            return None;
        };
        let tau =
            tau.unwrap_or_else(|| doda_stats::harmonic::waiting_greedy_tau(source.node_count()));
        let lookahead = MeetTimeLookahead::new(source, horizon, sink);
        Some(Box::new(WaitingGreedy::with_lookahead(tau, lookahead)))
    }
}

impl std::fmt::Display for AlgorithmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgorithmSpec::WaitingGreedy { tau: Some(tau) } => write!(f, "WaitingGreedy(τ={tau})"),
            other => write!(f, "{}", other.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_workloads::{UniformWorkload, Workload};

    #[test]
    fn every_spec_instantiates_on_a_rich_sequence() {
        let seq = UniformWorkload::new(8).generate(600, 3);
        for spec in AlgorithmSpec::all() {
            let algo = spec.instantiate(&seq, NodeId(0));
            assert!(algo.is_some(), "{spec} failed to instantiate");
            assert_eq!(algo.unwrap().name(), spec.label());
            assert!(!spec.knowledge().is_empty());
        }
    }

    #[test]
    fn spanning_tree_requires_connected_underlying_graph() {
        let seq = InteractionSequence::from_pairs(4, vec![(1, 2), (1, 2)]);
        assert!(AlgorithmSpec::SpanningTree
            .instantiate(&seq, NodeId(0))
            .is_none());
        assert!(AlgorithmSpec::Gathering
            .instantiate(&seq, NodeId(0))
            .is_some());
    }

    #[test]
    fn waiting_greedy_tau_override() {
        let seq = UniformWorkload::new(6).generate(200, 1);
        let spec = AlgorithmSpec::WaitingGreedy { tau: Some(42) };
        assert_eq!(spec.to_string(), "WaitingGreedy(τ=42)");
        assert!(spec.instantiate(&seq, NodeId(0)).is_some());
        assert_eq!(
            AlgorithmSpec::WaitingGreedy { tau: None }.to_string(),
            "WaitingGreedy"
        );
    }

    #[test]
    fn comparison_sets_are_subsets_of_all() {
        let all = AlgorithmSpec::all();
        for spec in AlgorithmSpec::randomized_comparison() {
            assert!(all.contains(&spec));
        }
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn online_instantiation_matches_the_knowledge_requirement() {
        for spec in AlgorithmSpec::all() {
            let req = spec.knowledge_requirement();
            assert_eq!(req.label(), spec.knowledge());
            assert_eq!(
                req.requires_materialization(),
                spec.requires_materialization()
            );
            // Exactly the knowledge-free specs instantiate without a sequence.
            assert_eq!(
                spec.instantiate_online().is_some(),
                !spec.requires_materialization(),
                "{spec}"
            );
            if let Some(algo) = spec.instantiate_online() {
                assert_eq!(algo.name(), spec.label());
            }
        }
        assert!(!KnowledgeRequirement::None.requires_materialization());
        assert!(KnowledgeRequirement::MeetTime.requires_materialization());
    }
}
