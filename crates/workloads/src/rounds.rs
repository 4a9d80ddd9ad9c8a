//! Round workloads: generators of synchronous-round streams.
//!
//! The pairwise [`Workload`](crate::Workload) generators model the paper's
//! one-interaction-per-step adversary; the [`RoundWorkload`] generators
//! here model the *synchronous rounds* of the broader dynamic-graph
//! literature, in which a whole matching of disjoint edges is live at
//! once. Three families are provided:
//!
//! * [`RandomMatchingWorkload`] — each round is a uniformly random
//!   (near-perfect) matching, the round-model analogue of the uniform
//!   randomized adversary;
//! * [`TournamentWorkload`] — the deterministic round-robin tournament
//!   (circle method): every pair meets exactly once per `n − 1` rounds,
//!   each round a perfect matching;
//! * [`IntervalConnectedWorkload`] — a `T`-interval-connected evolving
//!   graph: a random Hamiltonian path is held stable for `T` rounds (one
//!   connected spanning subgraph underlying every round of the window),
//!   and each round schedules alternating path edges, so every edge of
//!   the stable path is live within any two consecutive rounds;
//! * [`TorusContactWorkload`] — a CSR-backed contact process on a torus
//!   grid: the sparse underlying graph (`O(n)` edges) is built **once**
//!   into a [`CsrGraph`], and each round greedily matches the edges that
//!   happen to be active, in `O(n)` work and memory per round — the
//!   large-n round generator (nothing it does ever materialises
//!   `O(n · horizon)` state).
//!
//! Like the pairwise workloads, every generator is deterministic per seed,
//! never reads the adversary view (so [`RoundSource::is_oblivious`] holds
//! and the engine pulls the flattened stream in bursts), and resets itself
//! when asked for round 0, so one source instance can be reused across
//! executions.

use doda_core::round::{Matching, RoundSource};
use doda_core::sequence::AdversaryView;
use doda_core::{Interaction, Time};
use doda_graph::{CsrGraph, Edge, NodeId};
use doda_stats::rng::{seeded_rng, DodaRng};
use rand::Rng;

/// A generator of synchronous-round streams — the round-model counterpart
/// of [`crate::Workload`].
pub trait RoundWorkload {
    /// Number of nodes in the generated dynamic graphs.
    fn node_count(&self) -> usize;

    /// A short, human-readable name used in reports and benchmark labels.
    fn name(&self) -> &str;

    /// A seeded, infinite [`RoundSource`] over this workload's round
    /// stream. Determinism contract: the same seed always yields the same
    /// sequence of matchings.
    fn rounds(&self, seed: u64) -> Box<dyn RoundSource + Send>;
}

/// Fisher–Yates shuffle of `perm` driven by the workload RNG (`rand`'s
/// `SliceRandom` is not available in the offline vendored subset).
fn shuffle(perm: &mut [NodeId], rng: &mut DodaRng) {
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
}

/// Each round, a uniformly random near-perfect matching: a seeded shuffle
/// of the nodes paired consecutively, covering `⌊n/2⌋` pairs (every node
/// but at most one is matched every round).
///
/// This is the round-model analogue of the uniform randomized adversary:
/// contacts are symmetric, memoryless across rounds, and every pair is
/// equally likely to be matched in a given round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomMatchingWorkload {
    n: usize,
}

impl RandomMatchingWorkload {
    /// Creates the workload over `n ≥ 2` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least 2 nodes, got {n}");
        RandomMatchingWorkload { n }
    }
}

impl RoundWorkload for RandomMatchingWorkload {
    fn node_count(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "random-matching"
    }

    fn rounds(&self, seed: u64) -> Box<dyn RoundSource + Send> {
        Box::new(RandomMatchingRounds {
            n: self.n,
            seed,
            rng: seeded_rng(seed),
            perm: (0..self.n).map(NodeId).collect(),
        })
    }
}

/// Streaming source behind [`RandomMatchingWorkload`].
#[derive(Debug, Clone)]
pub struct RandomMatchingRounds {
    n: usize,
    seed: u64,
    rng: DodaRng,
    perm: Vec<NodeId>,
}

impl RoundSource for RandomMatchingRounds {
    fn node_count(&self) -> usize {
        self.n
    }

    fn next_round(&mut self, round: Time, _view: &AdversaryView<'_>, out: &mut Matching) -> bool {
        if round == 0 {
            // A fresh execution must replay the same matchings: both the
            // RNG and the permutation the shuffles evolve start over.
            self.rng = seeded_rng(self.seed);
            for (i, slot) in self.perm.iter_mut().enumerate() {
                *slot = NodeId(i);
            }
        }
        shuffle(&mut self.perm, &mut self.rng);
        for pair in self.perm.chunks_exact(2) {
            out.push(Interaction::new(pair[0], pair[1]));
        }
        true
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

/// The round-robin tournament (circle method): node 0 stays fixed while
/// the others rotate one position per round, so every pair meets exactly
/// once per cycle of `m − 1` rounds (`m` = `n` rounded up to even; with
/// odd `n` one node sits the round out). Deterministic — the seed is
/// ignored — and each round is a perfect matching of the `m` slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TournamentWorkload {
    n: usize,
}

impl TournamentWorkload {
    /// Creates the workload over `n ≥ 2` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least 2 nodes, got {n}");
        TournamentWorkload { n }
    }

    /// Number of rounds per full cycle (every pair met once).
    pub fn cycle_len(&self) -> usize {
        let m = self.n + self.n % 2;
        m - 1
    }
}

impl RoundWorkload for TournamentWorkload {
    fn node_count(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "tournament"
    }

    fn rounds(&self, _seed: u64) -> Box<dyn RoundSource + Send> {
        Box::new(TournamentRounds { n: self.n })
    }
}

/// Streaming source behind [`TournamentWorkload`].
#[derive(Debug, Clone, Copy)]
pub struct TournamentRounds {
    n: usize,
}

impl RoundSource for TournamentRounds {
    fn node_count(&self) -> usize {
        self.n
    }

    fn next_round(&mut self, round: Time, _view: &AdversaryView<'_>, out: &mut Matching) -> bool {
        // Circle method over m slots (m even): slot 0 is pinned; slot
        // k ∈ [1, m) holds node 1 + (k - 1 + r) % (m - 1). Pair slot 0
        // with slot m-1-? … the standard pairing is (0, m-1), (1, m-2), …
        // over the rotated ring. With odd n, the dummy slot m-1 makes its
        // partner sit the round out.
        let m = self.n + self.n % 2;
        let r = (round as usize) % (m - 1);
        let node_at = |slot: usize| -> usize {
            if slot == 0 {
                0
            } else {
                1 + (slot - 1 + r) % (m - 1)
            }
        };
        for k in 0..m / 2 {
            let (a, b) = (node_at(k), node_at(m - 1 - k));
            // With odd n the highest slot value is the dummy node `n`.
            if a < self.n && b < self.n {
                out.push(Interaction::new(NodeId(a), NodeId(b)));
            }
        }
        true
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

/// A `T`-interval-connected evolving graph, served as rounds.
///
/// Every `t` rounds a fresh random Hamiltonian path over the nodes is
/// drawn and held stable for the whole window — the round-model rendering
/// of `T`-interval connectivity: each individual round is only a matching
/// (never connected), but one connected spanning subgraph (the path)
/// underlies every round of the window, and the union of any two
/// consecutive rounds within it restores the entire path. Round `r`
/// schedules the path's even-indexed edges (`r` even) or odd-indexed
/// edges (`r` odd); alternating edges of a path are vertex-disjoint, so
/// each round is a matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalConnectedWorkload {
    n: usize,
    t: usize,
}

impl IntervalConnectedWorkload {
    /// Creates the workload over `n ≥ 2` nodes with stability window
    /// `t ≥ 2` (a one-round window could never expose both edge
    /// parities of the stable path, so the path would not recur).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `t < 2`.
    pub fn new(n: usize, t: usize) -> Self {
        assert!(n >= 2, "need at least 2 nodes, got {n}");
        assert!(t >= 2, "the stability window must be at least 2 rounds");
        IntervalConnectedWorkload { n, t }
    }

    /// The stability window `T`.
    pub fn window(&self) -> usize {
        self.t
    }
}

impl RoundWorkload for IntervalConnectedWorkload {
    fn node_count(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "interval-connected"
    }

    fn rounds(&self, seed: u64) -> Box<dyn RoundSource + Send> {
        Box::new(IntervalConnectedRounds {
            n: self.n,
            t: self.t,
            seed,
            rng: seeded_rng(seed),
            path: (0..self.n).map(NodeId).collect(),
        })
    }
}

/// Streaming source behind [`IntervalConnectedWorkload`].
#[derive(Debug, Clone)]
pub struct IntervalConnectedRounds {
    n: usize,
    t: usize,
    seed: u64,
    rng: DodaRng,
    path: Vec<NodeId>,
}

impl RoundSource for IntervalConnectedRounds {
    fn node_count(&self) -> usize {
        self.n
    }

    fn next_round(&mut self, round: Time, _view: &AdversaryView<'_>, out: &mut Matching) -> bool {
        if round == 0 {
            self.rng = seeded_rng(self.seed);
            for (i, slot) in self.path.iter_mut().enumerate() {
                *slot = NodeId(i);
            }
        }
        if (round as usize) % self.t == 0 {
            // Window boundary: draw the next stable Hamiltonian path.
            shuffle(&mut self.path, &mut self.rng);
        }
        let parity = (round as usize) % 2;
        for i in (parity..self.n - 1).step_by(2) {
            out.push(Interaction::new(self.path[i], self.path[i + 1]));
        }
        true
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

/// A CSR-backed contact process on a `⌈√n⌉ × ⌈√n⌉` torus grid.
///
/// The underlying graph is fixed and sparse — every node is wired to its
/// right and down torus neighbours (grid cells beyond `n − 1` are simply
/// absent), giving `O(n)` edges — and is compiled **once** per source
/// into a [`CsrGraph`]. Each round, every edge is independently *active*
/// with probability 1/2 (seeded, memoryless across rounds like the
/// uniform adversary), and the round's matching is the greedy maximal
/// matching over the active edges in CSR order. Per round that is one
/// `O(n)` pass with an `O(n)` scratch bitmap: the workload streams
/// indefinitely without ever holding more than the graph itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TorusContactWorkload {
    n: usize,
}

impl TorusContactWorkload {
    /// The per-round probability that an edge of the torus is active.
    pub const ACTIVATION: f64 = 0.5;

    /// Creates the workload over `n ≥ 2` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least 2 nodes, got {n}");
        TorusContactWorkload { n }
    }

    /// The torus side length `⌈√n⌉`.
    pub fn side(&self) -> usize {
        (self.n as f64).sqrt().ceil() as usize
    }

    /// Compiles the underlying torus into a CSR graph: right and down
    /// neighbours per cell, wrap-around included, cells `≥ n` skipped,
    /// duplicates (a side-2 torus wraps onto itself) collapsed by the
    /// CSR constructor.
    fn compile(&self) -> CsrGraph {
        let side = self.side();
        let mut edges = Vec::with_capacity(2 * self.n);
        for i in 0..self.n {
            let (r, c) = (i / side, i % side);
            for j in [r * side + (c + 1) % side, ((r + 1) % side) * side + c] {
                if j < self.n && j != i {
                    edges.push(Edge::new(NodeId(i), NodeId(j)));
                }
            }
        }
        CsrGraph::from_edges(self.n, edges)
    }
}

impl RoundWorkload for TorusContactWorkload {
    fn node_count(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "torus-contact"
    }

    fn rounds(&self, seed: u64) -> Box<dyn RoundSource + Send> {
        Box::new(TorusContactRounds {
            csr: self.compile(),
            seed,
            rng: seeded_rng(seed),
        })
    }
}

/// Streaming source behind [`TorusContactWorkload`].
#[derive(Debug, Clone)]
pub struct TorusContactRounds {
    csr: CsrGraph,
    seed: u64,
    rng: DodaRng,
}

impl RoundSource for TorusContactRounds {
    fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    fn next_round(&mut self, round: Time, _view: &AdversaryView<'_>, out: &mut Matching) -> bool {
        if round == 0 {
            self.rng = seeded_rng(self.seed);
        }
        for edge in self.csr.edges() {
            // One draw per edge every round, independent of the matching
            // state, so the activation stream is a pure function of the
            // seed and round index; `try_push` then greedily keeps the
            // active edges that are still vertex-disjoint.
            let active = self.rng.gen_bool(TorusContactWorkload::ACTIVATION);
            if active {
                out.try_push(Interaction::new(edge.a, edge.b));
            }
        }
        true
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_core::round::FlattenedRounds;
    use doda_core::InteractionSource;

    fn all_round_workloads(n: usize) -> Vec<Box<dyn RoundWorkload>> {
        vec![
            Box::new(RandomMatchingWorkload::new(n)),
            Box::new(TournamentWorkload::new(n)),
            Box::new(IntervalConnectedWorkload::new(n, 4)),
            Box::new(TorusContactWorkload::new(n)),
        ]
    }

    fn drain_rounds(
        source: &mut dyn RoundSource,
        rounds: usize,
        n: usize,
    ) -> Vec<Vec<Interaction>> {
        let owns = vec![true; n];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(0),
        };
        let mut out = Matching::new(n);
        (0..rounds)
            .map(|r| {
                out.reset(n);
                assert!(source.next_round(r as Time, &view, &mut out));
                out.iter().collect()
            })
            .collect()
    }

    #[test]
    fn round_workloads_are_deterministic_and_seed_sensitive() {
        for w in all_round_workloads(9) {
            assert_eq!(w.node_count(), 9, "{}", w.name());
            let a = drain_rounds(w.rounds(7).as_mut(), 40, 9);
            let b = drain_rounds(w.rounds(7).as_mut(), 40, 9);
            assert_eq!(a, b, "{} must be deterministic", w.name());
            if w.name() != "tournament" {
                let c = drain_rounds(w.rounds(8).as_mut(), 40, 9);
                assert_ne!(a, c, "{} should vary with the seed", w.name());
            }
        }
    }

    #[test]
    fn round_sources_reset_at_round_zero() {
        for w in all_round_workloads(8) {
            let mut source = w.rounds(3);
            let first = drain_rounds(source.as_mut(), 25, 8);
            let second = drain_rounds(source.as_mut(), 25, 8);
            assert_eq!(first, second, "{} must reset at round 0", w.name());
        }
    }

    #[test]
    fn random_matching_rounds_are_near_perfect() {
        let w = RandomMatchingWorkload::new(10);
        for round in drain_rounds(w.rounds(1).as_mut(), 30, 10) {
            assert_eq!(round.len(), 5);
        }
        let odd = RandomMatchingWorkload::new(7);
        for round in drain_rounds(odd.rounds(1).as_mut(), 30, 7) {
            assert_eq!(round.len(), 3);
        }
    }

    #[test]
    fn tournament_meets_every_pair_once_per_cycle() {
        for n in [6usize, 7, 8] {
            let w = TournamentWorkload::new(n);
            let cycle = w.cycle_len();
            let rounds = drain_rounds(w.rounds(0).as_mut(), cycle, n);
            let mut met = std::collections::HashSet::new();
            for round in &rounds {
                // Perfect matching on even n; one sits out on odd n.
                assert_eq!(round.len(), n / 2);
                for i in round {
                    assert!(met.insert(*i), "pair {i} met twice in one cycle (n={n})");
                }
            }
            assert_eq!(met.len(), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn interval_connected_holds_a_spanning_path_per_window() {
        let t = 4;
        let n = 9;
        let w = IntervalConnectedWorkload::new(n, t);
        assert_eq!(w.window(), t);
        let rounds = drain_rounds(w.rounds(5).as_mut(), 3 * t, n);
        for window in rounds.chunks(t) {
            // The union of the window's matchings is the stable path:
            // n − 1 edges forming a connected spanning graph.
            let mut g = doda_graph::AdjacencyGraph::new(n);
            for round in window {
                for &i in round {
                    g.add_edge(i.min(), i.max());
                }
            }
            assert_eq!(g.edge_count(), n - 1);
            assert!(doda_graph::traversal::is_connected(&g));
        }
    }

    #[test]
    fn flattened_round_workloads_stream_indefinitely() {
        for w in all_round_workloads(8) {
            let mut flat = FlattenedRounds::new(w.rounds(2));
            let owns = vec![true; 8];
            let view = AdversaryView {
                owns_data: &owns,
                sink: NodeId(0),
            };
            for t in 0..500u64 {
                assert!(
                    flat.next_interaction(t, &view).is_some(),
                    "{} ran dry at t={t}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn torus_contact_graph_is_sparse_and_in_range() {
        // Perfect square, ragged, and degenerate node counts.
        for n in [2usize, 7, 9, 16, 61] {
            let w = TorusContactWorkload::new(n);
            let g = w.compile();
            assert_eq!(g.node_count(), n, "n={n}");
            assert!(g.edge_count() <= 2 * n, "n={n}: O(n) edges, not O(n²)");
            assert!(g.edge_count() >= n / 2, "n={n}: the torus is not empty");
            for round in drain_rounds(w.rounds(9).as_mut(), 50, n) {
                for &i in &round {
                    assert!(i.max().index() < n, "n={n}: endpoint out of range");
                    assert!(
                        g.has_edge(i.min(), i.max()),
                        "n={n}: matched a non-torus edge"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_contact_rounds_activate_about_half_the_torus() {
        let n = 100; // 10×10 torus: 200 edges, no ragged boundary.
        let w = TorusContactWorkload::new(n);
        assert_eq!(w.side(), 10);
        let rounds = drain_rounds(w.rounds(4).as_mut(), 200, n);
        let mean = rounds.iter().map(Vec::len).sum::<usize>() as f64 / 200.0;
        // p = 1/2 activation thinned by greedy matching: well above a
        // vanishing matching, well below the 50-edge perfect matching.
        assert!((20.0..50.0).contains(&mean), "mean matching size {mean}");
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn tiny_round_workloads_are_rejected() {
        let _ = RandomMatchingWorkload::new(1);
    }

    #[test]
    #[should_panic(expected = "at least 2 rounds")]
    fn degenerate_window_is_rejected() {
        let _ = IntervalConnectedWorkload::new(5, 1);
    }
}
