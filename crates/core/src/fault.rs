//! The fault model: crash faults, node churn, and lossy interactions.
//!
//! The paper's model fixes the population at `n` nodes and assumes every
//! scheduled interaction succeeds. Real deployments of in-network
//! aggregation face none of those guarantees, so this module layers a
//! **deterministic, seeded fault plan** over any streaming
//! [`InteractionSource`]:
//!
//! * **crash faults** — a node permanently stops participating; its datum
//!   is destroyed or recovered out-of-band per [`CrashPolicy`];
//! * **node churn** — live nodes depart (their datum leaves the system)
//!   and departed nodes later re-arrive with a *fresh* datum;
//! * **lossy interactions** — a scheduled interaction fails and is never
//!   observed by the algorithm.
//!
//! The composition point is [`FaultedSource`]: it wraps any inner source
//! (workload, adversary, or a replayed [`crate::InteractionSequence`]) and
//! overrides [`InteractionSource::next_event`] to interleave fault events
//! with the inner stream. The execution engine consumes events, so every
//! workload and every adversary gains the fault axis without knowing it
//! exists. Faults are drawn from a dedicated ChaCha stream seeded
//! independently of the inner source, which keeps the combined stream
//! reproducible bit-for-bit from `(inner seed, fault seed)`.
//!
//! # Alignment of streamed and materialised execution
//!
//! The adapter keeps its own *inner clock*: the inner source is pulled
//! exactly once per interaction step (fault events consume an engine step
//! without pulling), and the pull index — not the engine time — is the
//! time passed to the inner source. Replaying a materialised prefix of
//! the inner stream through the same fault plan therefore produces the
//! exact event sequence of the live composition, which is what makes
//! faulted streamed and faulted materialised trials byte-identical (see
//! `tests/fault_model_properties.rs`).

use doda_graph::NodeId;
use doda_stats::rng::{seeded_rng, DodaRng};
use rand::Rng;

use crate::interaction::{Interaction, Time};
use crate::sequence::{AdversaryView, InteractionSource, StepEvent};

/// What happens to a crashed node's datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPolicy {
    /// The datum is destroyed with the node (counted in
    /// [`FaultTally::data_lost`]).
    ///
    /// [`FaultTally::data_lost`]: crate::outcome::FaultTally::data_lost
    #[default]
    DatumLost,
    /// The datum is salvaged out-of-band (think: flash storage recovered
    /// from a dead sensor). It never reaches the sink through the
    /// protocol, but it is accounted as recovered rather than lost
    /// (counted in [`FaultTally::data_recovered`]).
    ///
    /// [`FaultTally::data_recovered`]: crate::outcome::FaultTally::data_recovered
    DatumRecoverable,
}

/// An invalid fault-plan configuration, rejected before execution.
///
/// The interesting variant is [`FaultConfigError::MinLiveTooSmall`]: a
/// plan whose churn may drop the live population below two nodes could
/// leave the adversary with no valid pair to schedule, turning a sweep
/// into a silent hang — so such plans are a typed error, never a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultConfigError {
    /// A probability field is outside `[0, 1]` (or not finite).
    InvalidProbability {
        /// Name of the offending field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `min_live < 2`: the plan could strand the execution with fewer
    /// than two live nodes (no pair can interact — a guaranteed hang).
    MinLiveTooSmall {
        /// The configured floor.
        min_live: usize,
    },
    /// `min_live > n`: the floor can never be satisfied over `n` nodes.
    MinLiveExceedsNodes {
        /// The configured floor.
        min_live: usize,
        /// The node count the plan was instantiated for.
        n: usize,
    },
    /// `crash + departure + arrival > 1`: the per-step event kinds are
    /// drawn from disjoint bands of one uniform roll, so rates summing
    /// past 1 would silently truncate (the overflowing band could never
    /// fire at its configured rate).
    RatesExceedUnity {
        /// The sum of the three per-step event rates.
        sum: f64,
    },
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultConfigError::InvalidProbability { field, value } => {
                write!(f, "fault probability '{field}' = {value} is outside [0, 1]")
            }
            FaultConfigError::MinLiveTooSmall { min_live } => write!(
                f,
                "min_live = {min_live} would allow fewer than 2 live nodes — \
                 no pair could interact and the execution would hang"
            ),
            FaultConfigError::MinLiveExceedsNodes { min_live, n } => {
                write!(f, "min_live = {min_live} exceeds the node count {n}")
            }
            FaultConfigError::RatesExceedUnity { sum } => write!(
                f,
                "crash + departure + arrival = {sum} exceeds 1: the per-step event \
                 rates share one uniform roll and cannot sum past certainty"
            ),
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// A seeded, deterministic fault plan: per-step crash / churn
/// probabilities, per-interaction loss, the crash policy, and the live
/// floor below which the plan stops removing nodes.
///
/// The profile is pure configuration (`Copy`, comparable, serialisable by
/// label); the stateful injector built from it is [`FaultedSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Per-step probability that a uniformly chosen live non-sink node
    /// crashes permanently.
    pub crash: f64,
    /// Per-step probability that a uniformly chosen live non-sink node
    /// departs (churn); its datum leaves the system.
    pub departure: f64,
    /// Per-step probability that a departed (non-crashed) node re-arrives
    /// with a fresh datum.
    pub arrival: f64,
    /// Per-interaction probability that the scheduled interaction is lost
    /// before the algorithm observes it.
    pub loss: f64,
    /// What happens to a crashed node's datum.
    pub crash_policy: CrashPolicy,
    /// The plan never lets the live population drop below this floor
    /// (crashes and departures are suppressed at the floor). Must be at
    /// least 2 — see [`FaultConfigError::MinLiveTooSmall`].
    pub min_live: usize,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

impl FaultProfile {
    /// The neutral profile: no faults of any kind. Wrapping a source with
    /// it reproduces the inner stream exactly.
    pub fn none() -> Self {
        FaultProfile {
            crash: 0.0,
            departure: 0.0,
            arrival: 0.0,
            loss: 0.0,
            crash_policy: CrashPolicy::DatumLost,
            min_live: 2,
        }
    }

    /// Crash faults only, datum lost, at per-step probability `p`.
    pub fn crash(p: f64) -> Self {
        FaultProfile {
            crash: p,
            ..FaultProfile::none()
        }
    }

    /// Crash faults only, datum recoverable, at per-step probability `p`.
    pub fn crash_recoverable(p: f64) -> Self {
        FaultProfile {
            crash: p,
            crash_policy: CrashPolicy::DatumRecoverable,
            ..FaultProfile::none()
        }
    }

    /// Node churn: departures at per-step probability `departure`,
    /// re-arrivals (with fresh data) at per-step probability `arrival`.
    pub fn churn(departure: f64, arrival: f64) -> Self {
        FaultProfile {
            departure,
            arrival,
            ..FaultProfile::none()
        }
    }

    /// Lossy interactions only, at per-interaction probability `p`.
    pub fn lossy(p: f64) -> Self {
        FaultProfile {
            loss: p,
            ..FaultProfile::none()
        }
    }

    /// `true` iff the profile injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.crash == 0.0 && self.departure == 0.0 && self.arrival == 0.0 && self.loss == 0.0
    }

    /// A stable, human-readable label for registries, reports and
    /// `BENCH_*.json`: `"none"`, or `+`-joined active components such as
    /// `"crash(0.002)"`, `"churn(0.001,0.004)"`, `"loss(0.2)"`.
    pub fn label(&self) -> String {
        if self.is_none() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if self.crash > 0.0 {
            match self.crash_policy {
                CrashPolicy::DatumLost => parts.push(format!("crash({})", self.crash)),
                CrashPolicy::DatumRecoverable => {
                    parts.push(format!("crash-recover({})", self.crash))
                }
            }
        }
        if self.departure > 0.0 || self.arrival > 0.0 {
            parts.push(format!("churn({},{})", self.departure, self.arrival));
        }
        if self.loss > 0.0 {
            parts.push(format!("loss({})", self.loss));
        }
        parts.join("+")
    }

    /// Validates the profile for an execution over `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultConfigError`] if a probability is outside
    /// `[0, 1]`, if `min_live < 2` (the plan could strand the execution
    /// with no interacting pair), or if `min_live > n`.
    pub fn validate(&self, n: usize) -> Result<(), FaultConfigError> {
        for (field, value) in [
            ("crash", self.crash),
            ("departure", self.departure),
            ("arrival", self.arrival),
            ("loss", self.loss),
        ] {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(FaultConfigError::InvalidProbability { field, value });
            }
        }
        let rate_sum = self.crash + self.departure + self.arrival;
        if rate_sum > 1.0 {
            return Err(FaultConfigError::RatesExceedUnity { sum: rate_sum });
        }
        if self.min_live < 2 {
            return Err(FaultConfigError::MinLiveTooSmall {
                min_live: self.min_live,
            });
        }
        if self.min_live > n {
            return Err(FaultConfigError::MinLiveExceedsNodes {
                min_live: self.min_live,
                n,
            });
        }
        Ok(())
    }
}

/// The composable fault layer: wraps any [`InteractionSource`] and
/// interleaves deterministic, seeded fault events with its stream.
///
/// The adapter owns the fault state (liveness, crashed set, the fault
/// RNG) so the engine and the inner source both stay fault-agnostic:
///
/// * a step that draws a crash / departure / arrival emits that event and
///   does **not** pull the inner source;
/// * an interaction step pulls the inner source once (on the adapter's
///   own pull clock, so replaying a materialised inner stream stays
///   aligned) and emits [`StepEvent::Interaction`], downgraded to
///   [`StepEvent::Lost`] when a participant is dead or the per-interaction
///   loss probability fires;
/// * the sink (read from the [`AdversaryView`]) is never crashed or
///   departed, and the live population never drops below
///   [`FaultProfile::min_live`].
///
/// Like the adaptive adversaries, the adapter resets itself at `t = 0`,
/// so one instance can be reused across executions deterministically.
#[derive(Debug, Clone)]
pub struct FaultedSource<S> {
    inner: S,
    profile: FaultProfile,
    seed: u64,
    rng: DodaRng,
    live: Vec<bool>,
    live_count: usize,
    crashed: Vec<bool>,
    pulls: Time,
}

impl<S: InteractionSource> FaultedSource<S> {
    /// Wraps `inner` with the given profile, drawing fault events from a
    /// dedicated stream seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultConfigError`] if the profile is invalid for the
    /// inner source's node count (see [`FaultProfile::validate`]).
    pub fn new(inner: S, profile: FaultProfile, seed: u64) -> Result<Self, FaultConfigError> {
        let n = inner.node_count();
        profile.validate(n)?;
        Ok(FaultedSource {
            inner,
            profile,
            seed,
            rng: seeded_rng(seed),
            live: vec![true; n],
            live_count: n,
            crashed: vec![false; n],
            pulls: 0,
        })
    }

    /// The wrapped inner source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The fault profile in force.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    fn reset_run(&mut self) {
        self.rng = seeded_rng(self.seed);
        self.live.iter_mut().for_each(|l| *l = true);
        self.crashed.iter_mut().for_each(|c| *c = false);
        self.live_count = self.live.len();
        self.pulls = 0;
    }

    /// A uniformly chosen live non-sink node, or `None` when removing one
    /// would drop the population below the floor (or no candidate exists).
    fn pick_victim(&mut self, sink: NodeId) -> Option<NodeId> {
        if self.live_count <= self.profile.min_live {
            return None;
        }
        let candidates = self.live_count - usize::from(self.live(sink));
        if candidates == 0 {
            return None;
        }
        let k = self.rng.gen_range(0..candidates);
        self.kth(k, |this, v| this.live[v.index()] && v != sink)
    }

    /// A uniformly chosen departed (non-crashed) node, or `None`.
    fn pick_returnee(&mut self) -> Option<NodeId> {
        let candidates = self
            .live
            .iter()
            .zip(&self.crashed)
            .filter(|(live, crashed)| !**live && !**crashed)
            .count();
        if candidates == 0 {
            return None;
        }
        let k = self.rng.gen_range(0..candidates);
        self.kth(k, |this, v| {
            !this.live[v.index()] && !this.crashed[v.index()]
        })
    }

    fn kth(&self, k: usize, accept: impl Fn(&Self, NodeId) -> bool) -> Option<NodeId> {
        let mut seen = 0;
        for i in 0..self.live.len() {
            let v = NodeId(i);
            if accept(self, v) {
                if seen == k {
                    return Some(v);
                }
                seen += 1;
            }
        }
        None
    }

    fn live(&self, v: NodeId) -> bool {
        self.live.get(v.index()).copied().unwrap_or(false)
    }
}

impl<S: InteractionSource> InteractionSource for FaultedSource<S> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    /// A `FaultedSource` is event-native: fault events cannot be expressed
    /// as interactions, so this always panics. Drive it through
    /// [`InteractionSource::next_event`] (the engine does).
    fn next_interaction(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        panic!(
            "FaultedSource produces fault events that have no interaction \
             representation; drive it via next_event"
        );
    }

    fn next_event(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<StepEvent> {
        if t == 0 {
            // A fresh execution: fault state from a previous run must not
            // leak into this one.
            self.reset_run();
        }
        let profile = self.profile;
        let roll: f64 = self.rng.gen();
        let fault = if roll < profile.crash {
            self.pick_victim(view.sink).map(|node| {
                self.live[node.index()] = false;
                self.crashed[node.index()] = true;
                self.live_count -= 1;
                StepEvent::Crash {
                    node,
                    policy: profile.crash_policy,
                }
            })
        } else if roll < profile.crash + profile.departure {
            self.pick_victim(view.sink).map(|node| {
                self.live[node.index()] = false;
                self.live_count -= 1;
                StepEvent::Departure(node)
            })
        } else if roll < profile.crash + profile.departure + profile.arrival {
            self.pick_returnee().map(|node| {
                self.live[node.index()] = true;
                self.live_count += 1;
                StepEvent::Arrival(node)
            })
        } else {
            None
        };
        if let Some(event) = fault {
            return Some(event);
        }
        // Interaction step: pull the inner source on the adapter's own
        // clock so materialised replays of the inner stream stay aligned.
        let interaction = self.inner.next_interaction(self.pulls, view)?;
        self.pulls += 1;
        if !self.live(interaction.min()) || !self.live(interaction.max()) {
            // A dead node cannot participate: the contact never happens.
            return Some(StepEvent::Lost(interaction));
        }
        if profile.loss > 0.0 && self.rng.gen::<f64>() < profile.loss {
            return Some(StepEvent::Lost(interaction));
        }
        Some(StepEvent::Interaction(interaction))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::InteractionSequence;

    fn view<'a>(owns: &'a [bool], sink: NodeId) -> AdversaryView<'a> {
        AdversaryView {
            owns_data: owns,
            sink,
        }
    }

    fn drain<S: InteractionSource>(source: &mut S, steps: u64, n: usize) -> Vec<StepEvent> {
        let owns = vec![true; n];
        let v = view(&owns, NodeId(0));
        (0..steps).map_while(|t| source.next_event(t, &v)).collect()
    }

    #[test]
    fn neutral_profile_reproduces_the_inner_stream() {
        let seq = InteractionSequence::from_pairs(4, vec![(0, 1), (1, 2), (2, 3)]);
        let mut faulted =
            FaultedSource::new(seq.stream(true), FaultProfile::none(), 7).expect("valid");
        let events = drain(&mut faulted, 9, 4);
        assert_eq!(events.len(), 9);
        for (t, event) in events.iter().enumerate() {
            assert_eq!(
                *event,
                StepEvent::Interaction(seq.get((t % 3) as Time).unwrap())
            );
        }
    }

    #[test]
    fn fault_stream_is_deterministic_per_seed_and_varies_with_it() {
        let profile = FaultProfile {
            crash: 0.05,
            departure: 0.05,
            arrival: 0.1,
            loss: 0.2,
            ..FaultProfile::none()
        };
        let seq = InteractionSequence::from_pairs(6, vec![(1, 2), (3, 4), (2, 5), (0, 1)]);
        let a = drain(
            &mut FaultedSource::new(seq.stream(true), profile, 11).unwrap(),
            400,
            6,
        );
        let b = drain(
            &mut FaultedSource::new(seq.stream(true), profile, 11).unwrap(),
            400,
            6,
        );
        let c = drain(
            &mut FaultedSource::new(seq.stream(true), profile, 12).unwrap(),
            400,
            6,
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sink_is_never_crashed_or_departed_and_floor_holds() {
        let profile = FaultProfile {
            crash: 0.3,
            departure: 0.3,
            min_live: 3,
            ..FaultProfile::none()
        };
        let seq = InteractionSequence::from_pairs(8, vec![(1, 2)]);
        let mut faulted = FaultedSource::new(seq.stream(true), profile, 3).unwrap();
        let events = drain(&mut faulted, 2_000, 8);
        for event in &events {
            if let StepEvent::Crash { node, .. } | StepEvent::Departure(node) = event {
                assert_ne!(*node, NodeId(0), "the sink must never be removed");
            }
        }
        assert!(faulted.live_count >= 3, "floor violated");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, StepEvent::Crash { .. } | StepEvent::Departure(_))),
            "with p = 0.3 over 2000 steps faults must fire"
        );
    }

    #[test]
    fn churn_revives_departed_nodes_but_never_crashed_ones() {
        let profile = FaultProfile {
            crash: 0.02,
            departure: 0.1,
            arrival: 0.2,
            ..FaultProfile::none()
        };
        let seq = InteractionSequence::from_pairs(6, vec![(1, 2)]);
        let mut faulted = FaultedSource::new(seq.stream(true), profile, 5).unwrap();
        let events = drain(&mut faulted, 3_000, 6);
        let mut crashed = [false; 6];
        let mut live = [true; 6];
        let mut arrivals = 0;
        for event in &events {
            match event {
                StepEvent::Crash { node, .. } => {
                    assert!(live[node.index()], "crash of a dead node");
                    live[node.index()] = false;
                    crashed[node.index()] = true;
                }
                StepEvent::Departure(node) => {
                    assert!(live[node.index()], "departure of a dead node");
                    live[node.index()] = false;
                }
                StepEvent::Arrival(node) => {
                    assert!(!live[node.index()], "arrival of a live node");
                    assert!(!crashed[node.index()], "a crashed node came back");
                    live[node.index()] = true;
                    arrivals += 1;
                }
                StepEvent::Interaction(_) | StepEvent::Lost(_) => {}
            }
        }
        assert!(arrivals > 0, "churn must produce arrivals at these rates");
    }

    #[test]
    fn interactions_touching_dead_nodes_are_lost() {
        // Departure probability 1 with floor 2 kills every non-sink node
        // except one in the first steps; the inner stream only offers the
        // pair (1, 2), so once either is dead the contact is lost.
        let profile = FaultProfile {
            departure: 0.4,
            min_live: 2,
            ..FaultProfile::none()
        };
        let seq = InteractionSequence::from_pairs(4, vec![(1, 2)]);
        let mut faulted = FaultedSource::new(seq.stream(true), profile, 1).unwrap();
        let events = drain(&mut faulted, 500, 4);
        let saw_lost = events.iter().any(|e| matches!(e, StepEvent::Lost(_)));
        assert!(saw_lost, "contacts with departed nodes must be lost");
    }

    #[test]
    fn reuse_resets_the_fault_state_at_t_zero() {
        let profile = FaultProfile::crash(0.1);
        let seq = InteractionSequence::from_pairs(5, vec![(1, 2), (3, 4)]);
        let mut faulted = FaultedSource::new(seq.stream(true), profile, 9).unwrap();
        let first = drain(&mut faulted, 300, 5);
        let second = drain(&mut faulted, 300, 5);
        assert_eq!(first, second, "t = 0 must reset the fault plan");
    }

    #[test]
    fn finite_inner_source_exhausts_the_faulted_stream() {
        let seq = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2)]);
        let mut faulted =
            FaultedSource::new(seq.stream(false), FaultProfile::lossy(0.5), 2).unwrap();
        let events = drain(&mut faulted, 50, 3);
        assert_eq!(events.len(), 2);
    }

    #[test]
    #[should_panic(expected = "drive it via next_event")]
    fn next_interaction_is_rejected() {
        let seq = InteractionSequence::from_pairs(3, vec![(0, 1)]);
        let mut faulted =
            FaultedSource::new(seq.stream(true), FaultProfile::crash(0.5), 0).unwrap();
        let owns = vec![true; 3];
        let v = view(&owns, NodeId(0));
        let _ = faulted.next_interaction(0, &v);
    }

    #[test]
    fn profile_validation_rejects_bad_plans() {
        assert!(FaultProfile::none().validate(2).is_ok());
        assert_eq!(
            FaultProfile::crash(1.5).validate(8),
            Err(FaultConfigError::InvalidProbability {
                field: "crash",
                value: 1.5
            })
        );
        let starving = FaultProfile {
            min_live: 1,
            ..FaultProfile::crash(0.1)
        };
        assert_eq!(
            starving.validate(8),
            Err(FaultConfigError::MinLiveTooSmall { min_live: 1 })
        );
        let oversized = FaultProfile {
            min_live: 9,
            ..FaultProfile::none()
        };
        assert_eq!(
            oversized.validate(8),
            Err(FaultConfigError::MinLiveExceedsNodes { min_live: 9, n: 8 })
        );
        // Per-step event rates share one uniform roll; sums past 1 would
        // silently truncate, so they are rejected.
        let oversubscribed = FaultProfile {
            departure: 0.5,
            arrival: 0.3,
            ..FaultProfile::crash(0.7)
        };
        let err = oversubscribed.validate(8).unwrap_err();
        assert!(
            matches!(err, FaultConfigError::RatesExceedUnity { sum } if sum > 1.0),
            "{err:?}"
        );
        assert!(err.to_string().contains("cannot sum past certainty"));
        // The error messages are human-readable.
        assert!(starving
            .validate(8)
            .unwrap_err()
            .to_string()
            .contains("hang"));
    }

    #[test]
    fn profile_labels_are_stable() {
        assert_eq!(FaultProfile::none().label(), "none");
        assert_eq!(FaultProfile::crash(0.002).label(), "crash(0.002)");
        assert_eq!(
            FaultProfile::crash_recoverable(0.01).label(),
            "crash-recover(0.01)"
        );
        assert_eq!(
            FaultProfile::churn(0.001, 0.004).label(),
            "churn(0.001,0.004)"
        );
        assert_eq!(FaultProfile::lossy(0.25).label(), "loss(0.25)");
        let combo = FaultProfile {
            loss: 0.1,
            ..FaultProfile::crash(0.002)
        };
        assert_eq!(combo.label(), "crash(0.002)+loss(0.1)");
    }
}
