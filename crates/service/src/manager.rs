//! The multi-tenant scheduler: thousands of sessions, one worker pool.
//!
//! [`SessionManager`] owns every live [`Session`](crate::session) and
//! steps the runnable ones in *slices* — each slice grants each session
//! up to its per-session interaction budget on a shared pool of worker
//! threads, then parks it again. Completions stream out through
//! [`SessionManager::poll_result`] **as they happen**, not at a join:
//! a finished session is retired from the map (keeping live memory
//! `O(active sessions + n)`) and its result queued immediately, while
//! the rest of the fleet keeps running. Failures are isolated the same
//! way: a session whose feed drives the engine into an invalid state is
//! killed and its error queued for [`SessionManager::poll_failure`] —
//! one tenant's bad input never wedges the scheduler.
//!
//! Scheduling: within a slice, the worker threads and the calling thread
//! claim runnable sessions one at a time from one cursor in session-id
//! order, each as it frees up, so a thread that drew short slices steps
//! more sessions instead of idling at the slice's end while another
//! finishes a long one. A slice with a single runnable session spawns no
//! thread.
//!
//! Determinism: sessions are independent (each owns its engine, RNG
//! stream, and feed), so neither the worker count nor which thread claims
//! which session ever changes a result — only wall-clock time. Each
//! session's outcome lands in its own slot, and results and failures are
//! queued in session-id order within a slice.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use doda_core::sequence::StepEvent;
use doda_sim::runner::claim_chunks;
use doda_sim::{AlgorithmSpec, FaultedScenario, TrialResult};

use crate::error::ServiceError;
use crate::session::{Session, SessionConfig, SessionId, SessionStatus, SliceOutcome};

/// Owns and schedules every live aggregation session.
///
/// See the [module docs](self) for the scheduling model and the crate
/// docs for a quickstart.
#[derive(Debug)]
pub struct SessionManager {
    sessions: BTreeMap<SessionId, Session>,
    completed: VecDeque<(SessionId, TrialResult)>,
    faulted: VecDeque<(SessionId, ServiceError)>,
    shed_total: u64,
    workers: usize,
}

impl Default for SessionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionManager {
    /// A manager whose worker pool matches the machine's parallelism.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::with_workers(workers)
    }

    /// A manager with an explicit worker-pool size (1 = serial). The
    /// worker count never changes results, only wall-clock time.
    pub fn with_workers(workers: usize) -> Self {
        SessionManager {
            sessions: BTreeMap::new(),
            completed: VecDeque::new(),
            faulted: VecDeque::new(),
            shed_total: 0,
            workers: workers.max(1),
        }
    }

    /// Opens a scenario-fed session: `scenario` streams the interactions,
    /// admitted and seeded by [`Sweep::stream`](doda_sim::Sweep::stream)
    /// as trial 0 of the [`Sweep`](doda_sim::Sweep) with the same `(spec,
    /// scenario, n, seed)` — the finished result is byte-identical to that
    /// sweep's.
    ///
    /// # Errors
    ///
    /// In this order: [`ServiceError::DuplicateSession`] if `id` is taken;
    /// [`ServiceError::InvalidScenario`] with the sweep's admission message
    /// if that sweep refuses the request (an adaptive scenario with a
    /// knowledge-based spec, out-of-range scenario parameters, an invalid
    /// fault or Byzantine plan, or `n` below the scenario's floor), then
    /// if the scenario carries a Byzantine plan, which sessions cannot
    /// audit; [`ServiceError::UnsupportedSpec`] if `spec` needs knowledge
    /// of the future.
    pub fn open_scenario(
        &mut self,
        id: SessionId,
        spec: AlgorithmSpec,
        scenario: impl Into<FaultedScenario>,
        n: usize,
        seed: u64,
        config: &SessionConfig,
    ) -> Result<(), ServiceError> {
        if self.sessions.contains_key(&id) {
            return Err(ServiceError::DuplicateSession(id));
        }
        let session = Session::open_scenario(id, spec, scenario.into(), n, seed, config)?;
        self.sessions.insert(id, session);
        Ok(())
    }

    /// Opens an externally-fed session: the tenant pushes
    /// [`StepEvent`]s via [`SessionManager::push_event`] into a bounded
    /// inbox (capacity and overflow policy from `config`).
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateSession`] if `id` is taken,
    /// [`ServiceError::EmptyPopulation`] if `n` is 0,
    /// [`ServiceError::UnsupportedSpec`] if `spec` needs knowledge of the
    /// future.
    pub fn open_external(
        &mut self,
        id: SessionId,
        spec: AlgorithmSpec,
        n: usize,
        config: &SessionConfig,
    ) -> Result<(), ServiceError> {
        if self.sessions.contains_key(&id) {
            return Err(ServiceError::DuplicateSession(id));
        }
        let session = Session::open_external(id, spec, n, config)?;
        self.sessions.insert(id, session);
        Ok(())
    }

    /// Feeds one event into an externally-fed session's bounded inbox.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] if no such session is live,
    /// [`ServiceError::NotExternallyFed`] if it is scenario-fed,
    /// [`ServiceError::SessionClosed`] if its feed was closed,
    /// [`ServiceError::InvalidEvent`] if the event names a node outside
    /// the session's population or a fault targets the sink, and — when
    /// the inbox is full — [`ServiceError::Backpressure`] under
    /// [`OverflowPolicy::Block`](crate::OverflowPolicy::Block). Under
    /// [`OverflowPolicy::Shed`](crate::OverflowPolicy::Shed) a full inbox
    /// drops the event, counts it, and reports success.
    pub fn push_event(&mut self, id: SessionId, event: StepEvent) -> Result<(), ServiceError> {
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(ServiceError::UnknownSession(id))?;
        session.push_event(event)
    }

    /// Closes an externally-fed session's feed: it finishes (and reports)
    /// once its inbox drains, instead of idling for more events.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] if no such session is live.
    pub fn close(&mut self, id: SessionId) -> Result<(), ServiceError> {
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(ServiceError::UnknownSession(id))?;
        session.close();
        Ok(())
    }

    /// Runs one scheduler slice: every runnable session advances by up to
    /// its per-session budget. Up to [`SessionManager::workers`] threads,
    /// the calling thread among them, claim the runnable sessions one at a
    /// time from one cursor as they free up
    /// ([`claim_chunks`]), so a long
    /// slice never holds sessions queued behind it on the same thread. A
    /// slice with one runnable session runs it on the calling thread and
    /// spawns none. Finished sessions are retired and their results
    /// queued (in session-id order) for [`SessionManager::poll_result`].
    ///
    /// A session whose slice errors — its event feed drove the engine
    /// into a state it rejects, e.g. a tenant-pushed crash of an
    /// already-dead node — is killed and retired the same way, its error
    /// queued for [`SessionManager::poll_failure`]. One misbehaving
    /// tenant never stalls the scheduler or the other sessions' results.
    ///
    /// Returns the number of sessions that were stepped.
    pub fn run_slice(&mut self) -> usize {
        // One outcome slot beside each runnable session, in session-id
        // order whoever steps it: the id-ordered retire loop below is
        // what keeps result order worker-count-independent.
        let mut runnable: Vec<(&mut Session, Option<Result<SliceOutcome, ServiceError>>)> = self
            .sessions
            .values_mut()
            .filter(|s| s.status() == SessionStatus::Runnable)
            .map(|s| (s, None))
            .collect();
        let stepped = runnable.len();
        claim_chunks(
            &mut runnable,
            self.workers,
            1,
            || (),
            |(), _, chunk| {
                for (session, outcome) in chunk {
                    *outcome = Some(session.run_slice());
                }
            },
        );

        let mut retire = Vec::new();
        for (session, outcome) in runnable {
            match outcome.expect("every runnable session was stepped") {
                Ok(SliceOutcome::Finished(result)) => retire.push((session.id(), Ok(result))),
                Ok(SliceOutcome::Runnable | SliceOutcome::AwaitingEvents) => {}
                Err(error) => retire.push((session.id(), Err(error))),
            }
        }
        for (id, outcome) in retire {
            if let Some(session) = self.sessions.remove(&id) {
                self.shed_total += session.shed_count();
            }
            match outcome {
                Ok(result) => self.completed.push_back((id, result)),
                // Attribute the engine's rejection to the session whose
                // feed caused it; the session is gone, the fleet is not.
                Err(ServiceError::Engine(cause)) => self
                    .faulted
                    .push_back((id, ServiceError::SessionFault { session: id, cause })),
                Err(error) => self.faulted.push_back((id, error)),
            }
        }
        stepped
    }

    /// Runs scheduler slices until no session is runnable (all finished,
    /// killed, or awaiting external events).
    pub fn run_until_idle(&mut self) {
        while self.run_slice() > 0 {}
    }

    /// Pops the next completed session's result, in completion order.
    /// Results stream out as sessions finish — polling mid-run is the
    /// intended use, not just at the end.
    pub fn poll_result(&mut self) -> Option<(SessionId, TrialResult)> {
        self.completed.pop_front()
    }

    /// Pops the next killed session's error, in kill order. A session
    /// lands here when its slice errored (see
    /// [`SessionManager::run_slice`]); by the time its error is polled
    /// the session is already retired.
    pub fn poll_failure(&mut self) -> Option<(SessionId, ServiceError)> {
        self.faulted.pop_front()
    }

    /// `true` when no session is runnable: every remaining session is
    /// waiting on external events (or the manager is empty).
    pub fn is_idle(&self) -> bool {
        self.sessions
            .values()
            .all(|s| s.status() != SessionStatus::Runnable)
    }

    /// Number of live (unfinished) sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no session is live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Number of queued completed results not yet polled.
    pub fn pending_results(&self) -> usize {
        self.completed.len()
    }

    /// The session's lifecycle status, or `None` once it finished (its
    /// result is in the completion queue) or was never opened.
    pub fn status(&self, id: SessionId) -> Option<SessionStatus> {
        self.sessions.get(&id).map(|s| s.status())
    }

    /// Current inbox length of an externally-fed session (0 for
    /// scenario-fed ones).
    pub fn inbox_len(&self, id: SessionId) -> Option<usize> {
        self.sessions.get(&id).map(|s| s.inbox_len())
    }

    /// Highest inbox length the session ever reached — the observable
    /// bound witness: never exceeds the configured capacity.
    pub fn inbox_high_water(&self, id: SessionId) -> Option<usize> {
        self.sessions.get(&id).map(|s| s.inbox_high_water())
    }

    /// Events shed so far by one live session's full inbox under
    /// [`OverflowPolicy::Shed`](crate::OverflowPolicy::Shed).
    pub fn session_shed_count(&self, id: SessionId) -> Option<u64> {
        self.sessions.get(&id).map(|s| s.shed_count())
    }

    /// Total events shed across all sessions, including retired ones.
    pub fn shed_count(&self) -> u64 {
        self.shed_total + self.sessions.values().map(|s| s.shed_count()).sum::<u64>()
    }

    /// The worker-pool size slices run on.
    pub fn workers(&self) -> usize {
        self.workers
    }
}
