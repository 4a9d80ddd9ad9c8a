//! Lane-batched lockstep execution.
//!
//! A Monte-Carlo sweep runs thousands of *independent* trials of the same
//! knowledge-free algorithm; the scalar engine steps them one at a time,
//! paying per interaction for an aggregate-carrying [`NetworkState`] and
//! branchy decision plumbing — none of which affects the *counters* a
//! sweep actually keeps. (Both engines pull an oblivious source in
//! bursts, so neither pays a virtual source call per interaction, and the
//! scalar engine runs the knowledge-free specs through [`LaneAlgorithm`]'s
//! own [`DodaAlgorithm`] impl, so neither pays a virtual `decide`.)
//!
//! [`LaneEngine`] restructures that state as a structure-of-arrays batch:
//! ownership is a `[u64]` bitset column per node, with **bit `l` holding
//! trial lane `l`** (up to [`MAX_LANES`] = 64 lanes per batch), plus
//! per-lane interaction clocks, owner counters and completion slots. Every
//! lane pulls its own interaction schedule (same scenario, per-trial
//! seeds) and [`LaneEngine::run_lanes`] applies each interaction with
//! branchless bitset operations, retiring a lane the moment its owner
//! count hits one. The whole ownership state of 64 concurrent `n = 512`
//! trials is 4 KiB — resident in L1 for the entire batch.
//!
//! The tier is **restricted by construction** to what makes it exact:
//! fault-free streams (sources must only emit
//! [`StepEvent::Interaction`]) and the
//! knowledge-free algorithms with a registered branchless kernel
//! ([`LaneAlgorithm`]). Everything else — oracles, fault plans, cost
//! accounting — stays on the scalar path. Within that envelope the lane
//! path is **byte-identical per trial** to [`Engine::run`]: same
//! termination time, interaction count and transmission count for the
//! same per-trial source (pinned by `tests/lane_equivalence.rs`).
//!
//! Oblivious sources ([`InteractionSource::is_oblivious`]) are pulled in
//! batches through [`InteractionSource::next_interaction_batch`], which
//! amortises the virtual source call over [`PULL_BATCH`] interactions and
//! lets the source's own generator loop devirtualise; adaptive adversaries
//! are pulled one step at a time against a per-lane ownership view that is
//! maintained exactly like the scalar engine's, so even they run on lanes
//! without a semantic difference.
//!
//! [`Engine::run`]: crate::engine::Engine::run
//! [`NetworkState`]: crate::state::NetworkState

use doda_graph::NodeId;

use crate::algorithm::{Decision, DodaAlgorithm, InteractionContext};
use crate::interaction::{Interaction, Time};
use crate::sequence::{AdversaryView, InteractionSource, StepEvent, PULL_BATCH};

/// Maximum number of trial lanes per batch: one bit-lane per trial in the
/// `u64` ownership columns.
pub const MAX_LANES: usize = 64;

/// A knowledge-free algorithm with a branchless lane kernel.
///
/// The kernels mirror the scalar decision rules of
/// [`crate::algorithms::Waiting`] and [`crate::algorithms::Gathering`]
/// exactly: both transmit only when the two endpoints own data; `Waiting`
/// additionally requires the sink to be involved; the receiver is the sink
/// when it is involved and the smaller id otherwise, the sender the other
/// endpoint. Neither algorithm ever emits an ignorable decision, so the
/// lane path needs no `ignored_decisions` counter.
///
/// The same rule, one interaction at a time, is this type's
/// [`DodaAlgorithm`] impl: the scalar engine runs it by value for every
/// knowledge-free streamed trial and service session, so its `decide`
/// inlines into the engine step. A unit test checks, for every
/// interaction, sink and ownership pair up to `n = 5`, that this rule,
/// both kernels and the reference algorithms agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneAlgorithm {
    /// [`crate::algorithms::Waiting`]: transmit to the sink, and only to
    /// the sink.
    Waiting,
    /// [`crate::algorithms::Gathering`]: always aggregate when possible.
    Gathering,
}

impl LaneAlgorithm {
    /// The scalar algorithm's label (identical to
    /// [`crate::DodaAlgorithm::name`]).
    pub fn label(self) -> &'static str {
        match self {
            LaneAlgorithm::Waiting => "Waiting",
            LaneAlgorithm::Gathering => "Gathering",
        }
    }
}

impl DodaAlgorithm for LaneAlgorithm {
    fn name(&self) -> &str {
        self.label()
    }

    /// The lane kernels' rule for one interaction: idle unless both
    /// endpoints own data (and, for `Waiting`, the sink takes part); the
    /// receiver is the sink when it takes part and the smaller id
    /// otherwise.
    #[inline]
    fn decide(&mut self, ctx: &InteractionContext) -> Decision {
        let a = ctx.interaction.min();
        let b = ctx.interaction.max();
        let sink = ctx.sink;
        let gate = match self {
            LaneAlgorithm::Gathering => true,
            LaneAlgorithm::Waiting => a == sink || b == sink,
        };
        if !(gate && ctx.both_own_data()) {
            return Decision::Idle;
        }
        let (sender, receiver) = if b == sink { (a, b) } else { (b, a) };
        Decision::Transmit { sender, receiver }
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

/// The counters of one retired lane — the lane-path subset of
/// [`crate::engine::RunStats`].
///
/// The missing scalar counters are constants on this tier:
/// `ignored_decisions` is always zero (see [`LaneAlgorithm`]), faults
/// cannot occur, and `remaining_owners` is `node_count − transmissions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRunStats {
    /// Number of nodes in the dynamic graph.
    pub node_count: usize,
    /// The sink node.
    pub sink: NodeId,
    /// `Some(t)` if the lane's aggregation completed at interaction index
    /// `t` (`Some(0)` for the degenerate single-node graph).
    pub termination_time: Option<Time>,
    /// Number of interactions pulled from the lane's source.
    pub interactions_processed: u64,
    /// Number of transmissions applied on this lane.
    pub transmissions: u64,
}

impl LaneRunStats {
    /// Returns `true` if the aggregation completed (sink is the sole
    /// owner).
    pub fn terminated(&self) -> bool {
        self.termination_time.is_some()
    }

    /// Number of nodes still owning data when the lane retired.
    pub fn remaining_owners(&self) -> usize {
        self.node_count - self.transmissions as usize
    }
}

/// The reusable lane-batched stepping core: structure-of-arrays scratch
/// for up to [`MAX_LANES`] concurrent trials, sized on first use and
/// reused across batches (the sharded sweep runner keeps one per worker).
#[derive(Debug, Default)]
pub struct LaneEngine {
    /// `ownership[v]` bit `l`: lane `l`'s node `v` still owns data.
    ownership: Vec<u64>,
    /// Lane-major boolean mirror of `ownership` (`views[l·n + v]`), the
    /// truthful per-lane [`AdversaryView`] handed to sources — updated in
    /// `O(1)` per transmission on the stepped path, so even adaptive
    /// adversaries see exactly what the scalar engine would show them.
    /// Lanes on the batched path leave their mirror stale: an oblivious
    /// source never reads it.
    views: Vec<bool>,
    /// Per-lane count of nodes still owning data.
    owners: Vec<u32>,
    /// Per-lane interaction clock (number of interactions pulled).
    clock: Vec<u64>,
    /// Per-lane transmission count.
    transmissions: Vec<u64>,
    /// Per-lane completion slot.
    termination: Vec<Option<Time>>,
    /// Per-lane interaction buffer for the oblivious batched-pull path.
    pull: Vec<Interaction>,
}

impl LaneEngine {
    /// Creates an engine with empty scratch; the first
    /// [`LaneEngine::run_lanes`] sizes it to the batch shape.
    pub fn new() -> Self {
        LaneEngine::default()
    }

    /// Runs one batch: lane `l` executes `algorithm` against
    /// `sources[l]` — one independent trial per lane, all advancing in
    /// lockstep through the bitset state — and returns one
    /// [`LaneRunStats`] per lane, in lane order.
    ///
    /// Semantics per lane are exactly [`Engine::run`] restricted to the
    /// fault-free knowledge-free envelope: the lane pulls one interaction
    /// per step (up to `max_interactions`), transmissions follow the
    /// [`LaneAlgorithm`] kernel, and the lane retires at termination (sink
    /// sole owner), source exhaustion, or budget exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or longer than [`MAX_LANES`], if the
    /// sources disagree on the node count, if `sink` is out of range (or
    /// the node count is zero), or if a source emits a fault event — the
    /// lane tier is fault-free by contract; route faulted trials through
    /// the scalar path.
    ///
    /// [`Engine::run`]: crate::engine::Engine::run
    pub fn run_lanes<S>(
        &mut self,
        algorithm: LaneAlgorithm,
        sources: &mut [S],
        sink: NodeId,
        max_interactions: u64,
    ) -> Vec<LaneRunStats>
    where
        S: InteractionSource,
    {
        let k = sources.len();
        assert!(
            (1..=MAX_LANES).contains(&k),
            "a lane batch holds 1..={MAX_LANES} trials, got {k}"
        );
        let n = sources[0].node_count();
        assert!(n > 0, "cannot run lanes over an empty graph");
        for (lane, source) in sources.iter().enumerate() {
            assert_eq!(
                source.node_count(),
                n,
                "lane {lane} is over {} nodes but lane 0 is over {n}: \
                 a batch shares one node count",
                source.node_count()
            );
        }
        assert!(
            sink.index() < n,
            "sink {sink} is out of range for {n} nodes"
        );

        let full: u64 = if k == MAX_LANES { !0 } else { (1u64 << k) - 1 };
        self.ownership.clear();
        self.ownership.resize(n, full);
        self.views.clear();
        self.views.resize(k * n, true);
        self.owners.clear();
        self.owners.resize(k, n as u32);
        self.clock.clear();
        self.clock.resize(k, 0);
        self.transmissions.clear();
        self.transmissions.resize(k, 0);
        self.termination.clear();
        self.termination.resize(k, None);

        let mut live = full;
        if n == 1 {
            // Degenerate single-node graph: complete at time 0, like the
            // scalar engine, before any interaction is pulled.
            self.termination.iter_mut().for_each(|t| *t = Some(0));
            live = 0;
        }

        // Lockstep over bursts: each pass gives every live lane up to
        // PULL_BATCH steps, so the batch's bitset columns stay hot while
        // lanes advance together; a lane clears its live bit the moment it
        // terminates or runs out of schedule or budget.
        while live != 0 {
            let mut pending = live;
            while pending != 0 {
                let lane = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                if !self.burst(
                    algorithm,
                    &mut sources[lane],
                    lane,
                    n,
                    sink,
                    max_interactions,
                ) {
                    live &= !(1u64 << lane);
                }
            }
        }

        (0..k)
            .map(|lane| LaneRunStats {
                node_count: n,
                sink,
                termination_time: self.termination[lane],
                interactions_processed: self.clock[lane],
                transmissions: self.transmissions[lane],
            })
            .collect()
    }

    /// Advances one lane by up to [`PULL_BATCH`] interactions; returns
    /// `false` once the lane retired (terminated, exhausted source, or
    /// spent budget).
    fn burst<S>(
        &mut self,
        algorithm: LaneAlgorithm,
        source: &mut S,
        lane: usize,
        n: usize,
        sink: NodeId,
        max_interactions: u64,
    ) -> bool
    where
        S: InteractionSource + ?Sized,
    {
        if source.is_oblivious() {
            self.burst_batched(algorithm, source, lane, n, sink, max_interactions)
        } else {
            self.burst_stepped(algorithm, source, lane, n, sink, max_interactions)
        }
    }

    /// Oblivious fast path: one virtual call pulls a whole batch of
    /// interactions (devirtualising the source's generator loop), then the
    /// branchless kernel drains it.
    fn burst_batched<S>(
        &mut self,
        algorithm: LaneAlgorithm,
        source: &mut S,
        lane: usize,
        n: usize,
        sink: NodeId,
        max_interactions: u64,
    ) -> bool
    where
        S: InteractionSource + ?Sized,
    {
        let t0 = self.clock[lane];
        let want = PULL_BATCH.min(max_interactions.saturating_sub(t0) as usize);
        if want == 0 {
            return false;
        }
        let mut pull = std::mem::take(&mut self.pull);
        pull.clear();
        {
            let view = AdversaryView {
                owns_data: &self.views[lane * n..(lane + 1) * n],
                sink,
            };
            source.next_interaction_batch(t0, &view, &mut pull, want);
        }
        let got = pull.len();
        // A short batch means the source is exhausted: the lane retires
        // after applying what it got, like the scalar engine does on the
        // first `None`.
        let mut alive = got == want;
        let mut consumed = got as u64;
        // The drain loop is the sweep's innermost hot path: per-lane
        // counters live in registers for the whole burst, and the boolean
        // view mirror is not maintained — obliviousness (the admission
        // ticket to this path) means no source will ever read it, and the
        // bitset column alone is ground truth for a batched lane.
        let bit = 1u64 << lane;
        let mut owners = self.owners[lane];
        let mut transmissions = self.transmissions[lane];
        let ownership = &mut self.ownership[..n];
        let is_waiting = matches!(algorithm, LaneAlgorithm::Waiting);
        for (offset, &interaction) in pull.iter().enumerate() {
            let a = interaction.min();
            let b = interaction.max();
            // Out-of-range endpoints read as non-owners, mirroring the
            // scalar engine's `owns()`.
            let own_a = ownership.get(a.index()).copied().unwrap_or(0);
            let own_b = ownership.get(b.index()).copied().unwrap_or(0);
            let gate = !is_waiting || a == sink || b == sink;
            let sender = if b == sink { a } else { b };
            let fire = own_a & own_b & bit & (gate as u64).wrapping_neg();
            // Clamped index: when `fire` is 0 the write is a no-op, so a
            // structurally out-of-range sender (which can never fire)
            // needs no branch — and the clamp also elides the bounds check.
            let s = sender.index().min(n - 1);
            ownership[s] &= !fire;
            let fired = (fire >> lane) as u32;
            owners -= fired;
            transmissions += u64::from(fired);
            if owners == 1 {
                self.termination[lane] = Some(t0 + offset as u64);
                consumed = offset as u64 + 1;
                alive = false;
                break;
            }
        }
        self.owners[lane] = owners;
        self.transmissions[lane] = transmissions;
        self.clock[lane] = t0 + consumed;
        self.pull = pull;
        alive
    }

    /// General path (adaptive adversaries): one virtual pull per step, the
    /// per-lane ownership view refreshed between steps exactly as the
    /// scalar engine refreshes its own.
    fn burst_stepped<S>(
        &mut self,
        algorithm: LaneAlgorithm,
        source: &mut S,
        lane: usize,
        n: usize,
        sink: NodeId,
        max_interactions: u64,
    ) -> bool
    where
        S: InteractionSource + ?Sized,
    {
        for _ in 0..PULL_BATCH {
            let t = self.clock[lane];
            if t >= max_interactions {
                return false;
            }
            let event = {
                let view = AdversaryView {
                    owns_data: &self.views[lane * n..(lane + 1) * n],
                    sink,
                };
                source.next_event(t, &view)
            };
            match event {
                None => return false,
                Some(StepEvent::Interaction(interaction)) => {
                    self.clock[lane] = t + 1;
                    if self.apply(algorithm, interaction, sink, lane, n) {
                        self.termination[lane] = Some(t);
                        return false;
                    }
                }
                Some(event) => panic!(
                    "the lane tier is fault-free by contract, but lane {lane}'s \
                     source emitted {event:?} at t = {t}; route faulted trials \
                     through the scalar path"
                ),
            }
        }
        true
    }

    /// Applies one interaction to one lane, branchlessly, maintaining the
    /// boolean view mirror (the stepped path's slow-but-faithful twin of
    /// the batched drain loop); returns `true` when the lane's aggregation
    /// completed (owner count hit one — the sink never transmits, so the
    /// last owner is the sink).
    #[inline]
    fn apply(
        &mut self,
        algorithm: LaneAlgorithm,
        interaction: Interaction,
        sink: NodeId,
        lane: usize,
        n: usize,
    ) -> bool {
        let a = interaction.min();
        let b = interaction.max();
        let bit = 1u64 << lane;
        // Out-of-range endpoints read as non-owners, mirroring the scalar
        // engine's `owns()`.
        let own_a = self.ownership.get(a.index()).copied().unwrap_or(0);
        let own_b = self.ownership.get(b.index()).copied().unwrap_or(0);
        let gate = match algorithm {
            LaneAlgorithm::Gathering => true,
            LaneAlgorithm::Waiting => a == sink || b == sink,
        };
        // Receiver = sink when involved, else the smaller id; sender = the
        // other endpoint (the scalar algorithms' exact rule).
        let sender = if b == sink { a } else { b };
        // 0 or `bit`: transmit iff both endpoints own data on this lane
        // and the algorithm's gate holds.
        let fire = own_a & own_b & bit & (gate as u64).wrapping_neg();
        let fired = (fire >> lane) as u32;
        // Clamped index: when `fire` is 0 both writes are no-ops, so a
        // structurally out-of-range sender (which can never fire) needs no
        // branch.
        let s = sender.index().min(n - 1);
        self.ownership[s] &= !fire;
        self.views[lane * n + s] &= fire == 0;
        self.owners[lane] -= fired;
        self.transmissions[lane] += u64::from(fired);
        self.owners[lane] == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Gathering, Waiting};
    use crate::data::IdSet;
    use crate::engine::{DiscardTransmissions, Engine, EngineConfig};
    use crate::sequence::InteractionSequence;
    use crate::DodaAlgorithm;

    fn star_sequence(n: usize, rounds: usize) -> InteractionSequence {
        let mut seq = InteractionSequence::new(n);
        for _ in 0..rounds {
            for i in 1..n {
                seq.push(Interaction::new(NodeId(0), NodeId(i)));
            }
        }
        seq
    }

    fn scalar_reference(
        algorithm: LaneAlgorithm,
        seq: &InteractionSequence,
        budget: u64,
    ) -> crate::engine::RunStats {
        let mut engine: Engine<IdSet> = Engine::new();
        let mut waiting = Waiting::new();
        let mut gathering = Gathering::new();
        let algo: &mut dyn DodaAlgorithm = match algorithm {
            LaneAlgorithm::Waiting => &mut waiting,
            LaneAlgorithm::Gathering => &mut gathering,
        };
        engine
            .run(
                algo,
                &mut seq.stream(false),
                NodeId(0),
                IdSet::singleton,
                EngineConfig::sweep(budget),
                &mut DiscardTransmissions,
            )
            .unwrap()
    }

    fn assert_matches_scalar(algorithm: LaneAlgorithm, seqs: &[InteractionSequence], budget: u64) {
        let mut engine = LaneEngine::new();
        let mut sources: Vec<_> = seqs.iter().map(|s| s.stream(false)).collect();
        let stats = engine.run_lanes(algorithm, &mut sources, NodeId(0), budget);
        assert_eq!(stats.len(), seqs.len());
        for (lane, (seq, lane_stats)) in seqs.iter().zip(&stats).enumerate() {
            let scalar = scalar_reference(algorithm, seq, budget);
            assert_eq!(
                lane_stats.termination_time, scalar.termination_time,
                "lane {lane} termination"
            );
            assert_eq!(
                lane_stats.interactions_processed, scalar.interactions_processed,
                "lane {lane} interactions"
            );
            assert_eq!(
                lane_stats.transmissions, scalar.transmissions,
                "lane {lane} transmissions"
            );
            assert_eq!(
                lane_stats.remaining_owners(),
                scalar.remaining_owners,
                "lane {lane} owners"
            );
            assert_eq!(scalar.ignored_decisions, 0, "lane {lane}");
        }
    }

    #[test]
    fn lanes_match_the_scalar_engine_on_star_streams() {
        let seqs: Vec<_> = (0..5).map(|i| star_sequence(6 + i, 2)).collect();
        // Mixed node counts are rejected; batch per node count instead.
        for seq in &seqs {
            assert_matches_scalar(LaneAlgorithm::Waiting, std::slice::from_ref(seq), 1_000);
            assert_matches_scalar(LaneAlgorithm::Gathering, std::slice::from_ref(seq), 1_000);
        }
    }

    #[test]
    fn a_full_width_batch_runs_all_64_lanes() {
        use doda_stats::rng::SeedSequence;
        use rand::Rng;

        let n = 9;
        let seeds = SeedSequence::new(7);
        let seqs: Vec<_> = (0..MAX_LANES as u64)
            .map(|i| {
                let mut rng = seeds.rng(i);
                InteractionSequence::from_interactions(
                    n,
                    (0..600).map(|_| {
                        let a = rng.gen_range(0..n);
                        let mut b = rng.gen_range(0..n - 1);
                        if b >= a {
                            b += 1;
                        }
                        Interaction::new(NodeId(a), NodeId(b))
                    }),
                )
            })
            .collect();
        assert_matches_scalar(LaneAlgorithm::Gathering, &seqs, 600);
        assert_matches_scalar(LaneAlgorithm::Waiting, &seqs, 600);
    }

    #[test]
    fn budget_and_exhaustion_retire_lanes_like_the_scalar_engine() {
        // A stream that never involves the sink starves Waiting: the lane
        // must retire at the budget with no termination.
        let starving = InteractionSequence::from_pairs(4, vec![(1, 2), (2, 3), (1, 3)]);
        for budget in [1u64, 2, 3, 7] {
            assert_matches_scalar(
                LaneAlgorithm::Waiting,
                std::slice::from_ref(&starving),
                budget,
            );
        }
        // Exhaustion: a 3-interaction stream under a generous budget.
        assert_matches_scalar(LaneAlgorithm::Waiting, &[starving], 10_000);
    }

    #[test]
    fn single_node_batches_terminate_immediately() {
        let seqs = [InteractionSequence::new(1), InteractionSequence::new(1)];
        let mut engine = LaneEngine::new();
        let mut sources: Vec<_> = seqs.iter().map(|s| s.stream(false)).collect();
        let stats = engine.run_lanes(LaneAlgorithm::Gathering, &mut sources, NodeId(0), 100);
        for s in stats {
            assert_eq!(s.termination_time, Some(0));
            assert_eq!(s.interactions_processed, 0);
            assert_eq!(s.transmissions, 0);
            assert!(s.terminated());
        }
    }

    #[test]
    fn reused_engine_matches_fresh_runs_across_shapes() {
        let mut engine = LaneEngine::new();
        for &(n, rounds) in &[(5usize, 1usize), (3, 2), (8, 1), (2, 1)] {
            let seq = star_sequence(n, rounds);
            let mut sources = vec![seq.stream(false)];
            let reused = engine.run_lanes(LaneAlgorithm::Waiting, &mut sources, NodeId(0), 1_000);
            let mut fresh_engine = LaneEngine::new();
            let mut sources = vec![seq.stream(false)];
            let fresh =
                fresh_engine.run_lanes(LaneAlgorithm::Waiting, &mut sources, NodeId(0), 1_000);
            assert_eq!(reused, fresh, "n = {n}");
        }
    }

    #[test]
    fn non_sink_zero_sinks_are_respected() {
        // Sink 2: Waiting on a {0,1},{1,2},{0,2} cycle must route data to
        // node 2 only.
        let seq = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2), (0, 2)]);
        let mut engine = LaneEngine::new();
        let mut sources = vec![seq.stream(false)];
        let lanes = engine.run_lanes(LaneAlgorithm::Waiting, &mut sources, NodeId(2), 100);

        let mut scalar: Engine<IdSet> = Engine::new();
        let stats = scalar
            .run(
                &mut Waiting::new(),
                &mut seq.stream(false),
                NodeId(2),
                IdSet::singleton,
                EngineConfig::sweep(100),
                &mut DiscardTransmissions,
            )
            .unwrap();
        assert_eq!(lanes[0].termination_time, stats.termination_time);
        assert_eq!(lanes[0].transmissions, stats.transmissions);
        assert_eq!(
            lanes[0].interactions_processed,
            stats.interactions_processed
        );
    }

    #[test]
    fn lane_labels_match_scalar_names() {
        assert_eq!(LaneAlgorithm::Waiting.label(), Waiting::new().name());
        assert_eq!(LaneAlgorithm::Gathering.label(), Gathering::new().name());
        for rule in [LaneAlgorithm::Waiting, LaneAlgorithm::Gathering] {
            assert_eq!(rule.name(), rule.label());
            assert!(rule.is_oblivious());
        }
    }

    /// What lane 0's kernel does with one interaction when every node owns
    /// data except as `owns` says for the two endpoints: the node whose
    /// bit it cleared, if it fired. `batched` runs the oblivious drain
    /// loop, otherwise the stepped path's `apply`.
    fn kernel_sender(
        algorithm: LaneAlgorithm,
        n: usize,
        sink: NodeId,
        interaction: Interaction,
        owns: (bool, bool),
        batched: bool,
    ) -> Option<NodeId> {
        let mut engine = LaneEngine::new();
        engine.ownership = vec![1; n];
        engine.ownership[interaction.min().index()] = u64::from(owns.0);
        engine.ownership[interaction.max().index()] = u64::from(owns.1);
        engine.views = engine.ownership.iter().map(|&bit| bit == 1).collect();
        engine.owners = vec![engine.ownership.iter().sum::<u64>() as u32];
        engine.clock = vec![0];
        engine.transmissions = vec![0];
        engine.termination = vec![None];
        let before = engine.ownership.clone();
        if batched {
            let seq = InteractionSequence::from_interactions(n, [interaction]);
            engine.burst_batched(algorithm, &mut seq.stream(false), 0, n, sink, 1);
            assert_eq!(engine.clock[0], 1, "the drain loop took the interaction");
        } else {
            engine.apply(algorithm, interaction, sink, 0, n);
        }
        let cleared: Vec<NodeId> = (0..n)
            .filter(|&v| engine.ownership[v] != before[v])
            .map(NodeId)
            .collect();
        assert_eq!(engine.transmissions[0], cleared.len() as u64);
        match cleared[..] {
            [] => None,
            [sender] => Some(sender),
            _ => panic!("one interaction cleared {cleared:?}"),
        }
    }

    #[test]
    fn the_rule_decides_like_the_reference_algorithms_and_the_kernels() {
        for n in 2..=5 {
            for sink in (0..n).map(NodeId) {
                for u in 0..n {
                    for v in u + 1..n {
                        let interaction = Interaction::new(NodeId(u), NodeId(v));
                        for owns in [(false, false), (false, true), (true, false), (true, true)] {
                            let ctx = InteractionContext {
                                time: 0,
                                interaction,
                                min_owns_data: owns.0,
                                max_owns_data: owns.1,
                                sink,
                            };
                            let pairs: [(LaneAlgorithm, Box<dyn DodaAlgorithm>); 2] = [
                                (LaneAlgorithm::Gathering, Box::new(Gathering::new())),
                                (LaneAlgorithm::Waiting, Box::new(Waiting::new())),
                            ];
                            for (mut rule, mut reference) in pairs {
                                let case = format!(
                                    "{rule:?}, n = {n}, sink {sink}, {interaction}, owns {owns:?}"
                                );
                                let decision = rule.decide(&ctx);
                                assert_eq!(decision, reference.decide(&ctx), "{case}");
                                let sender = match decision {
                                    Decision::Idle => None,
                                    Decision::Transmit { sender, .. } => Some(sender),
                                };
                                for batched in [false, true] {
                                    assert_eq!(
                                        kernel_sender(rule, n, sink, interaction, owns, batched),
                                        sender,
                                        "{case}, batched {batched}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane batch holds")]
    fn oversized_batches_are_rejected() {
        let seqs: Vec<_> = (0..65).map(|_| star_sequence(4, 1)).collect();
        let mut sources: Vec<_> = seqs.iter().map(|s| s.stream(false)).collect();
        let _ = LaneEngine::new().run_lanes(LaneAlgorithm::Gathering, &mut sources, NodeId(0), 100);
    }

    #[test]
    #[should_panic(expected = "shares one node count")]
    fn mixed_node_counts_are_rejected() {
        let a = star_sequence(4, 1);
        let b = star_sequence(5, 1);
        let mut sources = vec![a.stream(false), b.stream(false)];
        let _ = LaneEngine::new().run_lanes(LaneAlgorithm::Gathering, &mut sources, NodeId(0), 100);
    }

    #[test]
    #[should_panic(expected = "fault-free by contract")]
    fn fault_events_panic_instead_of_corrupting_lanes() {
        use crate::fault::{FaultProfile, FaultedSource};

        let seq = star_sequence(6, 50);
        // Loss-heavy plan: a Lost event fires quickly.
        let mut sources =
            vec![FaultedSource::new(seq.stream(true), FaultProfile::lossy(0.9), 3).unwrap()];
        let _ =
            LaneEngine::new().run_lanes(LaneAlgorithm::Waiting, &mut sources, NodeId(0), 10_000);
    }
}
