//! One live aggregation session: a resumable engine run plus its event
//! feed.
//!
//! A session is one tenant's aggregation: its own sink, its own
//! population, its own [`doda_core::Engine`] scratch held paused between
//! scheduler slices via the resumable [`doda_core::Engine::step_for`]
//! surface. Only knowledge-free specs have a session: it holds the spec's
//! rule ([`doda_core::LaneAlgorithm`]) by value, so every slice steps the
//! engine without a virtual `decide`. Sessions come in two feed shapes:
//!
//! * **scenario-fed** — the interaction process is a
//!   [`doda_sim::FaultedScenario`] from the registry, admitted and seeded
//!   by [`doda_sim::Sweep::stream`] as trial 0 of the equivalent sweep, so
//!   a finished session's [`TrialResult`] is byte-identical to the
//!   standalone sweep's (pinned by the loopback end-to-end tests);
//! * **externally-fed** — the tenant pushes [`StepEvent`]s into a
//!   *bounded* inbox over the wire; a full inbox sheds or blocks per
//!   [`OverflowPolicy`]. The bound is what keeps the whole service at
//!   `O(sessions + n)` memory no matter how fast tenants produce events.
//!   Pushed events are validated on arrival (nodes in range, no fault
//!   targeting the sink); violations only liveness history can reveal
//!   surface at drain time, where they kill *that* session — never the
//!   scheduler (see
//!   [`SessionManager::poll_failure`](crate::SessionManager::poll_failure)).

use std::collections::VecDeque;

use doda_core::data::IdSet;
use doda_core::engine::{Engine, EngineConfig, RunProgress, StepOutcome};
use doda_core::error::FaultError;
use doda_core::sequence::{AdversaryView, InteractionSource, StepEvent};
use doda_core::{DiscardTransmissions, Interaction, LaneAlgorithm, Time};
use doda_graph::NodeId;
use doda_sim::{finish_trial, AlgorithmSpec, FaultedScenario, Sweep, TrialResult, SINK};

use crate::error::ServiceError;

/// Identifies one session (one tenant/sink) within a
/// [`SessionManager`](crate::SessionManager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What a session does when an event arrives while its bounded inbox is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Drop the event and count it ([`SessionManager::shed_count`]); the
    /// push succeeds. Load-shedding keeps producers decoupled.
    ///
    /// [`SessionManager::shed_count`]: crate::SessionManager::shed_count
    #[default]
    Shed,
    /// Refuse the event with [`ServiceError::Backpressure`]; the producer
    /// must drain the scheduler (or wait) and retry.
    Block,
}

/// Per-session tuning: scheduler slice size, inbox bound, overflow
/// policy, and interaction horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Interactions a session may consume per scheduler slice before it
    /// yields the worker ([`doda_core::Engine::step_for`]'s budget).
    pub slice_budget: u64,
    /// Bound on the externally-fed inbox (ignored for scenario sessions).
    pub inbox_capacity: usize,
    /// What to do when the inbox is full.
    pub overflow: OverflowPolicy,
    /// Interaction horizon; `None` uses the sweep default
    /// (`doda_adversary::RandomizedAdversary::default_horizon(n)`), which
    /// keeps scenario sessions byte-compatible with default `Sweep` runs.
    pub horizon: Option<u64>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            slice_budget: 1_024,
            inbox_capacity: 256,
            overflow: OverflowPolicy::Shed,
            horizon: None,
        }
    }
}

/// Where a session currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Has work: the scheduler will step it next slice.
    Runnable,
    /// Externally fed, inbox empty, not closed: idle until the tenant
    /// pushes more events (or closes the session).
    AwaitingEvents,
}

/// The bounded inbox of an externally-fed session, adapted to the
/// engine's [`InteractionSource`] event model: the engine pulls the
/// events the tenant pushed, in arrival order.
#[derive(Debug)]
pub(crate) struct Inbox {
    node_count: usize,
    queue: VecDeque<StepEvent>,
    capacity: usize,
    overflow: OverflowPolicy,
    closed: bool,
    shed: u64,
    high_water: usize,
}

impl Inbox {
    fn new(node_count: usize, capacity: usize, overflow: OverflowPolicy) -> Self {
        Inbox {
            node_count,
            queue: VecDeque::with_capacity(capacity.min(1_024)),
            capacity,
            overflow,
            closed: false,
            shed: 0,
            high_water: 0,
        }
    }

    /// Checks the structural invariants push-time can see: every node the
    /// event names exists, and fault events never target the sink
    /// ([`doda_sim::SINK`]). Liveness-dependent violations (crashing a
    /// dead node, reviving a live one, an interaction with a dead
    /// participant) depend on where the engine is in the queue and are
    /// caught at drain time instead — see
    /// [`SessionManager::poll_failure`](crate::SessionManager::poll_failure).
    fn check_event(&self, id: SessionId, event: StepEvent) -> Result<(), ServiceError> {
        let invalid = |cause| ServiceError::InvalidEvent { session: id, cause };
        let in_range = |node: NodeId| {
            if node.index() < self.node_count {
                Ok(())
            } else {
                Err(invalid(FaultError::UnknownNode { node }))
            }
        };
        match event {
            StepEvent::Interaction(interaction) | StepEvent::Lost(interaction) => {
                let (a, b) = interaction.pair();
                in_range(a)?;
                in_range(b)
            }
            StepEvent::Crash { node, .. }
            | StepEvent::Departure(node)
            | StepEvent::Arrival(node) => {
                in_range(node)?;
                if node == SINK {
                    return Err(invalid(FaultError::TargetsSink { node }));
                }
                Ok(())
            }
        }
    }

    fn push(&mut self, id: SessionId, event: StepEvent) -> Result<(), ServiceError> {
        if self.closed {
            return Err(ServiceError::SessionClosed(id));
        }
        self.check_event(id, event)?;
        if self.queue.len() >= self.capacity {
            return match self.overflow {
                OverflowPolicy::Shed => {
                    self.shed += 1;
                    Ok(())
                }
                OverflowPolicy::Block => Err(ServiceError::Backpressure {
                    session: id,
                    capacity: self.capacity,
                }),
            };
        }
        self.queue.push_back(event);
        self.high_water = self.high_water.max(self.queue.len());
        Ok(())
    }
}

impl InteractionSource for Inbox {
    fn node_count(&self) -> usize {
        self.node_count
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        // Skip non-interaction events; only callers outside the engine's
        // event loop ever take this path.
        while let Some(event) = self.next_event(t, view) {
            if let StepEvent::Interaction(interaction) = event {
                return Some(interaction);
            }
        }
        None
    }

    fn next_event(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<StepEvent> {
        self.queue.pop_front()
    }
}

/// The two feed shapes of a session.
enum Feed {
    /// A registry scenario streams the events (faults pre-applied by
    /// [`Sweep::stream`]).
    Scenario(Box<dyn InteractionSource + Send>),
    /// The tenant pushes events into a bounded inbox.
    External(Inbox),
}

impl std::fmt::Debug for Feed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Feed::Scenario(_) => f.write_str("Feed::Scenario"),
            Feed::External(inbox) => f.debug_tuple("Feed::External").field(inbox).finish(),
        }
    }
}

/// What one scheduler slice of a session produced.
pub(crate) enum SliceOutcome {
    /// Still has work (budget spent); reschedule.
    Runnable,
    /// Externally fed and drained; idle until more events arrive.
    AwaitingEvents,
    /// The run ended (aggregated, starved at the horizon, or the feed was
    /// closed); the result is final.
    Finished(TrialResult),
}

/// One live session: the paused engine run plus its feed.
pub(crate) struct Session {
    id: SessionId,
    spec: AlgorithmSpec,
    /// The spec's knowledge-free rule, held by value so the engine step
    /// dispatches its `decide` statically.
    algorithm: LaneAlgorithm,
    engine: Engine<IdSet>,
    progress: RunProgress,
    feed: Feed,
    slice_budget: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("spec", &self.spec)
            .field("algorithm", &self.algorithm)
            .field("progress", &self.progress)
            .field("feed", &self.feed)
            .field("slice_budget", &self.slice_budget)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Opens a scenario-fed session on trial 0's stream of
    /// `Sweep::scenario(spec, scenario).n(n).seed(seed)`, admitted by that
    /// sweep, so the eventual result is byte-identical to its trial 0.
    pub(crate) fn open_scenario(
        id: SessionId,
        spec: AlgorithmSpec,
        scenario: FaultedScenario,
        n: usize,
        seed: u64,
        config: &SessionConfig,
    ) -> Result<Self, ServiceError> {
        let source = Sweep::scenario(spec, scenario)
            .n(n)
            .seed(seed)
            .stream()
            .map_err(|e| ServiceError::InvalidScenario(e.to_string()))?;
        // A session steps the engine on the honest data plane; accepting
        // a Byzantine plan here would silently return an unaudited result
        // where the equivalent sweep returns a verdict. Byzantine
        // scenarios run through `Sweep` instead.
        if scenario.byzantine.is_some() {
            return Err(ServiceError::InvalidScenario(format!(
                "scenario '{scenario}' carries a byzantine plan; sessions cannot audit \
                 the data plane — run it through a sweep"
            )));
        }
        // A spec the sweep would materialise has no incremental form, so
        // no session can serve it.
        let Some(algorithm) = spec.lane_algorithm() else {
            return Err(ServiceError::UnsupportedSpec {
                spec: spec.to_string(),
            });
        };
        Ok(Self::start(
            id,
            spec,
            algorithm,
            Feed::Scenario(source),
            n,
            config,
        ))
    }

    /// Opens an externally-fed session with a bounded inbox.
    pub(crate) fn open_external(
        id: SessionId,
        spec: AlgorithmSpec,
        n: usize,
        config: &SessionConfig,
    ) -> Result<Self, ServiceError> {
        if n == 0 {
            return Err(ServiceError::EmptyPopulation(id));
        }
        let Some(algorithm) = spec.lane_algorithm() else {
            return Err(ServiceError::UnsupportedSpec {
                spec: spec.to_string(),
            });
        };
        let inbox = Inbox::new(n, config.inbox_capacity.max(1), config.overflow);
        Ok(Self::start(
            id,
            spec,
            algorithm,
            Feed::External(inbox),
            n,
            config,
        ))
    }

    fn start(
        id: SessionId,
        spec: AlgorithmSpec,
        algorithm: LaneAlgorithm,
        feed: Feed,
        n: usize,
        config: &SessionConfig,
    ) -> Self {
        let horizon = config
            .horizon
            .unwrap_or(doda_adversary::RandomizedAdversary::default_horizon(n) as u64);
        let mut engine = Engine::new();
        let progress = engine.begin_run(n, SINK, IdSet::singleton, EngineConfig::sweep(horizon));
        Session {
            id,
            spec,
            algorithm,
            engine,
            progress,
            feed,
            slice_budget: config.slice_budget.max(1),
        }
    }

    pub(crate) fn id(&self) -> SessionId {
        self.id
    }

    pub(crate) fn status(&self) -> SessionStatus {
        match &self.feed {
            Feed::External(inbox) if inbox.queue.is_empty() && !inbox.closed => {
                SessionStatus::AwaitingEvents
            }
            _ => SessionStatus::Runnable,
        }
    }

    pub(crate) fn push_event(&mut self, event: StepEvent) -> Result<(), ServiceError> {
        match &mut self.feed {
            Feed::External(inbox) => inbox.push(self.id, event),
            // A scenario feed generates its own events; tenant pushes
            // make no sense there.
            Feed::Scenario(_) => Err(ServiceError::NotExternallyFed(self.id)),
        }
    }

    /// Closes the event feed: an externally-fed session finishes once its
    /// inbox drains (instead of idling for more events).
    pub(crate) fn close(&mut self) {
        if let Feed::External(inbox) = &mut self.feed {
            inbox.closed = true;
        }
    }

    pub(crate) fn inbox_len(&self) -> usize {
        match &self.feed {
            Feed::External(inbox) => inbox.queue.len(),
            Feed::Scenario(_) => 0,
        }
    }

    pub(crate) fn shed_count(&self) -> u64 {
        match &self.feed {
            Feed::External(inbox) => inbox.shed,
            Feed::Scenario(_) => 0,
        }
    }

    pub(crate) fn inbox_high_water(&self) -> usize {
        match &self.feed {
            Feed::External(inbox) => inbox.high_water,
            Feed::Scenario(_) => 0,
        }
    }

    /// Runs one scheduler slice: up to `slice_budget` interactions through
    /// the resumable engine surface.
    pub(crate) fn run_slice(&mut self) -> Result<SliceOutcome, ServiceError> {
        let budget = self.slice_budget;
        let outcome = match &mut self.feed {
            Feed::Scenario(source) => self.engine.step_for(
                &mut self.progress,
                &mut self.algorithm,
                source,
                IdSet::singleton,
                budget,
                &mut DiscardTransmissions,
            )?,
            Feed::External(inbox) => self.engine.step_for(
                &mut self.progress,
                &mut self.algorithm,
                inbox,
                IdSet::singleton,
                budget,
                &mut DiscardTransmissions,
            )?,
        };
        Ok(match outcome {
            StepOutcome::BudgetSpent => SliceOutcome::Runnable,
            StepOutcome::Completed | StepOutcome::HorizonReached => {
                SliceOutcome::Finished(self.finish())
            }
            StepOutcome::SourceExhausted => match &self.feed {
                // A scenario source returning `None` is the end of the
                // process — exactly where a sweep's run would stop.
                Feed::Scenario(_) => SliceOutcome::Finished(self.finish()),
                Feed::External(inbox) if inbox.closed => SliceOutcome::Finished(self.finish()),
                Feed::External(_) => SliceOutcome::AwaitingEvents,
            },
        })
    }

    fn finish(&self) -> TrialResult {
        let stats = self.engine.finish_run(&self.progress);
        finish_trial(self.spec, &self.engine, stats, None)
    }
}
