//! Property-based tests of the core model.
//!
//! The heavyweight check here is the brute-force verification of the
//! optimal-convergecast computation: on small instances we enumerate *every*
//! admissible behaviour of the model (at each interaction: nobody transmits,
//! or one of the two data-owning nodes transmits) and confirm that the
//! earliest completion time found by exhaustive search equals the completion
//! time computed by `optimal_convergecast` via the reverse-broadcast duality.

use doda_core::convergecast::{optimal_convergecast, validate_schedule};
use doda_core::knowledge::{MeetTime, MeetTimeLookahead, MeetTimeOracle};
use doda_core::prelude::*;
use doda_core::sequence::{AdversaryView, SequenceSource};
use doda_graph::NodeId;
use proptest::prelude::*;

const SINK: NodeId = NodeId(0);

fn sequence_strategy(n: usize, max_len: usize) -> impl Strategy<Value = InteractionSequence> {
    prop::collection::vec((0..n, 0..n), 1..max_len).prop_map(move |pairs| {
        let mut filtered: Vec<(usize, usize)> = pairs.into_iter().filter(|(a, b)| a != b).collect();
        if filtered.is_empty() {
            filtered.push((0, 1));
        }
        InteractionSequence::from_pairs(n, filtered)
    })
}

/// Exhaustive search of the earliest completion time of any data
/// aggregation schedule on `seq` (owners encoded as a bitmask).
fn brute_force_opt(seq: &InteractionSequence, sink: NodeId) -> Option<u64> {
    fn recurse(
        seq: &InteractionSequence,
        sink: NodeId,
        t: u64,
        owners: u32,
        best: &mut Option<u64>,
    ) {
        let n = seq.node_count() as u32;
        let full_done = owners == 1 << sink.index();
        if full_done {
            // Completed strictly before t; the completion time is the time of
            // the last transmission, which the caller recorded.
            return;
        }
        if let Some(current_best) = *best {
            if t >= current_best {
                return;
            }
        }
        let Some(interaction) = seq.get(t) else {
            return;
        };
        let _ = n;
        let (a, b) = interaction.pair();
        let a_owns = owners & (1 << a.index()) != 0;
        let b_owns = owners & (1 << b.index()) != 0;
        // Option 1: nobody transmits.
        recurse(seq, sink, t + 1, owners, best);
        // Option 2/3: one of the two transmits (if both own data and the
        // sender is not the sink).
        if a_owns && b_owns {
            for (sender, _receiver) in [(a, b), (b, a)] {
                if sender == sink {
                    continue;
                }
                let new_owners = owners & !(1 << sender.index());
                if new_owners == 1 << sink.index() {
                    let candidate = t;
                    if best.map(|b| candidate < b).unwrap_or(true) {
                        *best = Some(candidate);
                    }
                } else {
                    recurse(seq, sink, t + 1, new_owners, best);
                }
            }
        }
    }

    let n = seq.node_count();
    if n <= 1 {
        return Some(0);
    }
    let all_owners = (1u32 << n) - 1;
    let mut best = None;
    recurse(seq, sink, 0, all_owners, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reverse-broadcast convergecast computation is exactly optimal:
    /// it agrees with exhaustive search on every small instance.
    #[test]
    fn convergecast_matches_brute_force(seq in sequence_strategy(4, 9)) {
        let fast = optimal_convergecast(&seq, SINK, 0);
        let brute = brute_force_opt(&seq, SINK);
        match (fast, brute) {
            (None, None) => {}
            (Some(schedule), Some(best)) => {
                prop_assert_eq!(schedule.completion, best);
                prop_assert!(validate_schedule(&seq, SINK, &schedule).is_ok());
            }
            (fast, brute) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility disagreement: duality says {:?}, brute force says {:?}",
                    fast.map(|s| s.completion),
                    brute
                )));
            }
        }
    }

    /// The meetTime oracle agrees with a naive linear scan of the sequence.
    #[test]
    fn meet_time_oracle_matches_naive_scan(
        seq in sequence_strategy(5, 40),
        node in 0usize..5,
        t in 0u64..45,
    ) {
        let oracle = MeetTimeOracle::new(&seq, SINK);
        let node = NodeId(node);
        let expected = if node == SINK {
            MeetTime::At(t)
        } else {
            seq.iter()
                .find(|ti| {
                    ti.time > t && ti.interaction.involves(node) && ti.interaction.involves(SINK)
                })
                .map(|ti| MeetTime::At(ti.time))
                .unwrap_or(MeetTime::Never)
        };
        prop_assert_eq!(oracle.meet_time(node, t), expected);
    }

    /// Every algorithm, on every sequence, respects the one-transmission
    /// rule: the number of ignored decisions plus applied transmissions never
    /// exceeds the number of interactions, and transmissions ≤ n − 1.
    #[test]
    fn transmissions_are_bounded(seq in sequence_strategy(6, 80)) {
        for spec in [AlgorithmSpec::Waiting, AlgorithmSpec::Gathering] {
            let mut algo: Box<dyn DodaAlgorithm> = match spec {
                AlgorithmSpec::Waiting => Box::new(Waiting::new()),
                _ => Box::new(Gathering::new()),
            };
            let outcome = engine::run_with_id_sets(
                algo.as_mut(),
                &mut seq.source(false),
                SINK,
                EngineConfig::default(),
            ).unwrap();
            let transmissions = 6 - outcome.remaining_owners();
            prop_assert!(transmissions <= 5);
            prop_assert!(outcome.interactions_processed as usize <= seq.len());
        }
    }

    /// The Gathering algorithm dominates Waiting on identical sequences:
    /// whenever Waiting terminates, Gathering has terminated no later.
    #[test]
    fn gathering_never_slower_than_waiting(seq in sequence_strategy(6, 120)) {
        let mut waiting = Waiting::new();
        let w = engine::run_with_id_sets(
            &mut waiting, &mut seq.source(false), SINK, EngineConfig::default()).unwrap();
        let mut gathering = Gathering::new();
        let g = engine::run_with_id_sets(
            &mut gathering, &mut seq.source(false), SINK, EngineConfig::default()).unwrap();
        if let Some(wt) = w.termination_time {
            prop_assert!(g.terminated());
            prop_assert!(g.termination_time.unwrap() <= wt);
        }
    }
}

/// An enum mirror of the specs used above, local to this test file (the sim
/// crate is not a dependency of doda-core's dev-dependencies).
#[derive(Clone, Copy)]
enum AlgorithmSpec {
    Waiting,
    Gathering,
}

/// Hides a source's obliviousness, so the lookahead pulls it one step at
/// a time instead of in batches.
struct PerStep(SequenceSource);

impl InteractionSource for PerStep {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        self.0.next_interaction(t, view)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Waiting Greedy over a meetTime lookahead decides every question
    /// exactly as over the oracle of the committed sequence — the stream
    /// cut at the horizon, or a finite source that runs out before it —
    /// for every τ from 0 to past the length, any sink (so at either
    /// endpoint of a pair), and non-decreasing query times that run past
    /// the horizon as a faulted engine clock does.
    #[test]
    fn lookahead_decides_as_the_oracle(
        n in 2usize..8,
        sink in 0usize..8,
        pairs in prop::collection::vec((0usize..8, 1usize..8), 0..60),
        horizon in 0usize..70,
        queries in prop::collection::vec((0usize..8, 1usize..8, 0u64..4, 0u8..4), 1..40),
        per_step in 0u8..2,
    ) {
        // Distinct endpoints: the second is an offset from the first.
        let pair = |a: usize, offset: usize| (a % n, (a + 1 + offset % (n - 1)) % n);
        let seq = InteractionSequence::from_pairs(n, pairs.iter().map(|&(a, o)| pair(a, o)));
        let sink = NodeId(sink % n);
        let oracle = MeetTimeOracle::new(&seq.slice(0, horizon as Time), sink);
        let taus = (0..=seq.len() as Time + 2).chain([Time::MAX]);
        for tau in taus {
            let source: Box<dyn InteractionSource + Send> = if per_step == 1 {
                Box::new(PerStep(seq.source(false)))
            } else {
                Box::new(seq.source(false))
            };
            let mut lookahead =
                WaitingGreedy::with_lookahead(tau, MeetTimeLookahead::new(source, horizon, sink));
            let mut reference = WaitingGreedy::new(tau, oracle.clone());
            let mut time = 0;
            for &(a, offset, step, owns) in &queries {
                time += step;
                let (u, v) = pair(a, offset);
                let ctx = InteractionContext {
                    time,
                    interaction: Interaction::new(NodeId(u), NodeId(v)),
                    min_owns_data: owns != 0,
                    max_owns_data: true,
                    sink,
                };
                prop_assert_eq!(
                    lookahead.decide(&ctx),
                    reference.decide(&ctx),
                    "tau {} at t {} for {:?} (horizon {}, {} interactions)",
                    tau, time, (u, v), horizon, seq.len()
                );
            }
        }
    }
}
