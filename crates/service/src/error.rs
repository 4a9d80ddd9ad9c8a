//! The service-boundary error surface.
//!
//! Everything that can go wrong between a client and the
//! [`SessionManager`](crate::SessionManager) is a [`ServiceError`];
//! malformed bytes on the wire are the dedicated [`WireError`] (wrapped
//! as [`ServiceError::Wire`] when they surface at the service boundary).
//! Both are `#[non_exhaustive]` — new failure modes must not be breaking
//! changes — and chain their causes through
//! [`std::error::Error::source`].

use doda_core::error::{EngineError, FaultError};

use crate::session::SessionId;

/// A malformed or unsupported wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The frame ended before its declared payload did.
    Truncated,
    /// The version byte is not a version this decoder speaks.
    UnknownVersion(u8),
    /// The kind byte names no known frame kind.
    UnknownKind(u8),
    /// An enum tag inside the payload is out of range.
    UnknownTag {
        /// Which encoded enum carried the bad tag.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes,
    /// A length-prefixed string is not valid UTF-8.
    BadUtf8,
    /// A value to encode does not fit its fixed-width wire field (e.g. a
    /// node id or population size above `u32::MAX`). Raised at encode
    /// time instead of silently wrapping on the wire.
    OutOfRange {
        /// Which encoded field overflowed.
        what: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated before the payload ended"),
            WireError::UnknownVersion(v) => write!(f, "unknown wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag 0x{tag:02x}")
            }
            WireError::TrailingBytes => write!(f, "trailing bytes after the payload"),
            WireError::BadUtf8 => write!(f, "length-prefixed string is not valid UTF-8"),
            WireError::OutOfRange { what } => {
                write!(f, "{what} does not fit its fixed-width wire field")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Everything that can go wrong at the service boundary.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// The session id names no live session.
    UnknownSession(SessionId),
    /// The session id is already taken by a live session.
    DuplicateSession(SessionId),
    /// The session's bounded inbox is full and its overflow policy is
    /// [`OverflowPolicy::Block`](crate::OverflowPolicy::Block): the caller
    /// must drain the scheduler (or wait) before retrying.
    Backpressure {
        /// The session whose inbox is full.
        session: SessionId,
        /// The inbox bound that was hit.
        capacity: usize,
    },
    /// The session's event feed was closed; no further events are
    /// accepted.
    SessionClosed(SessionId),
    /// An event was pushed to a scenario-fed session: its interaction
    /// process streams from the registry scenario, so tenant-pushed
    /// events have nowhere to go.
    NotExternallyFed(SessionId),
    /// A pushed event is structurally invalid for the session's
    /// population — a node outside `0..n`, or a fault event targeting the
    /// sink — and was refused at push time, before it could reach the
    /// engine.
    InvalidEvent {
        /// The session the event was pushed to.
        session: SessionId,
        /// The model invariant the event violates.
        cause: FaultError,
    },
    /// The session was killed mid-run: its event feed produced a state
    /// the engine rejected (e.g. a crash of an already-dead node, which
    /// only liveness history — not push-time validation — can catch).
    /// The session is retired; other sessions are unaffected.
    SessionFault {
        /// The session that was killed.
        session: SessionId,
        /// The engine's rejection.
        cause: EngineError,
    },
    /// The algorithm spec cannot run incrementally: it requires knowledge
    /// of the future, so no streaming session can serve it.
    UnsupportedSpec {
        /// The spec's display label.
        spec: String,
    },
    /// An externally-fed session was requested over zero nodes: every
    /// session has a sink (node 0), so `n` must be at least 1.
    EmptyPopulation(SessionId),
    /// The scenario request is one the equivalent
    /// [`Sweep`](doda_sim::Sweep) refuses (e.g. `n` below the scenario's
    /// node floor, out-of-range scenario parameters, or a fault plan
    /// invalid for `n`), with the sweep's admission message; or it
    /// carries a Byzantine plan, which sessions cannot audit.
    InvalidScenario(String),
    /// The engine rejected an algorithm decision mid-session.
    Engine(EngineError),
    /// A frame failed to decode.
    Wire(WireError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServiceError::DuplicateSession(id) => write!(f, "session {id} already exists"),
            ServiceError::Backpressure { session, capacity } => write!(
                f,
                "session {session} inbox is full (capacity {capacity}); drain before retrying"
            ),
            ServiceError::SessionClosed(id) => write!(f, "session {id} is closed"),
            ServiceError::NotExternallyFed(id) => write!(
                f,
                "session {id} is scenario-fed and does not accept pushed events"
            ),
            ServiceError::InvalidEvent { session, cause } => {
                write!(f, "invalid event for session {session}: {cause}")
            }
            ServiceError::SessionFault { session, cause } => {
                write!(f, "session {session} killed by its event feed: {cause}")
            }
            ServiceError::UnsupportedSpec { spec } => write!(
                f,
                "{spec} requires knowledge of the future and cannot run as a streaming session"
            ),
            ServiceError::EmptyPopulation(id) => write!(
                f,
                "session {id} requested zero nodes; a session needs at least its sink"
            ),
            ServiceError::InvalidScenario(msg) => write!(f, "invalid scenario: {msg}"),
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            ServiceError::Wire(e) => Some(e),
            ServiceError::InvalidEvent { cause, .. } => Some(cause),
            ServiceError::SessionFault { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}
