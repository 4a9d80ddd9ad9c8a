//! Pluggable byte transports and the endpoint/client pair that speak the
//! wire format over them.
//!
//! [`Transport`] is the minimal contract: deliver whole frames, in
//! order, without blocking. A receiver drains every frame that has
//! arrived into a [`FrameBuf`] in one call
//! ([`recv_into`](Transport::recv_into)) and then decodes borrowed
//! slices of it. [`Loopback`] is the in-memory reference implementation
//! that the end-to-end tests and the `--service-guard` benchmark drive:
//! two crossed unbounded queues, each one [`FrameBuf`] behind a mutex,
//! so a send is one copy into the queue and a drain swaps whole buffers.
//! A socket-backed transport would implement the same two methods.
//!
//! [`ServiceEndpoint`] is the service side: it drains incoming frames,
//! applies them to its [`SessionManager`], runs scheduler slices, and
//! streams completed results back as [`WireResult::Result`] frames the
//! moment sessions finish. [`ServiceClient`] is the tenant side: typed
//! open/event/close calls that encode to frames, and a typed
//! [`poll_result`](ServiceClient::poll_result) that decodes replies.
//! Both ends encode into reused buffers, so once those have grown no
//! frame on the steady-state event path allocates.

use std::sync::{Arc, Mutex};

use doda_core::sequence::StepEvent;
use doda_sim::{AlgorithmSpec, FaultedScenario};

use crate::error::ServiceError;
use crate::manager::SessionManager;
use crate::session::{SessionConfig, SessionId};
use crate::wire::{
    decode_event, decode_result, encode_event_into, encode_result_into, WireEvent, WireResult,
};

/// An ordered run of whole frames in one byte buffer.
///
/// Frames are appended with [`push`](FrameBuf::push) and read back, in
/// order and each exactly as pushed, with [`pop`](FrameBuf::pop), which
/// borrows the frame instead of copying it out. Once every frame has
/// been popped, the next push reuses the buffer from the start, so a
/// `FrameBuf` that is filled and drained in turn stops allocating once
/// it has grown to its largest burst.
#[derive(Debug, Default)]
pub struct FrameBuf {
    bytes: Vec<u8>,
    /// End offset in `bytes` of each frame, in arrival order.
    ends: Vec<usize>,
    /// Index in `ends` of the next frame [`pop`](FrameBuf::pop) returns.
    next: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Frames pushed but not yet popped.
    fn len(&self) -> usize {
        self.ends.len() - self.next
    }

    /// Whether every pushed frame has been popped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one frame.
    pub fn push(&mut self, frame: &[u8]) {
        if self.is_empty() {
            self.clear();
        }
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
    }

    /// Takes the oldest frame not yet popped, borrowed from the buffer.
    pub fn pop(&mut self) -> Option<&[u8]> {
        let end = *self.ends.get(self.next)?;
        let start = self.read_offset();
        self.next += 1;
        Some(&self.bytes[start..end])
    }

    /// Moves every frame of `other` not yet popped to the back of this
    /// buffer, in order, and leaves `other` empty. When this buffer is
    /// empty the two buffers are swapped instead of copied, so draining
    /// a queue into a reader that has caught up costs no copy.
    pub(crate) fn append(&mut self, other: &mut FrameBuf) {
        if self.is_empty() {
            self.clear();
            std::mem::swap(self, other);
            return;
        }
        let (base, from) = (self.bytes.len(), other.read_offset());
        self.bytes.extend_from_slice(&other.bytes[from..]);
        self.ends.extend(
            other.ends[other.next..]
                .iter()
                .map(|&end| base + (end - from)),
        );
        other.clear();
    }

    /// Drops every frame, keeping the allocation.
    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.next = 0;
    }

    /// Start offset of the next frame to pop.
    fn read_offset(&self) -> usize {
        match self.next {
            0 => 0,
            next => self.ends[next - 1],
        }
    }
}

/// A non-blocking, ordered, frame-preserving byte transport.
///
/// Implementations carry each frame (length prefix included) intact —
/// the wire format's framing makes reassembly trivial for stream
/// transports, but this trait deals in whole frames.
pub trait Transport {
    /// Queues one frame for the peer.
    ///
    /// # Errors
    ///
    /// Transport-specific delivery failures (the in-memory [`Loopback`]
    /// never fails).
    fn send(&mut self, frame: &[u8]) -> Result<(), ServiceError>;

    /// Moves every frame that has arrived from the peer to the back of
    /// `frames`, after any frames it still holds: in the order they were
    /// sent, each exactly the bytes one [`send`](Transport::send)
    /// carried, never split or merged. Never blocks; moves nothing if
    /// nothing has arrived.
    fn recv_into(&mut self, frames: &mut FrameBuf);
}

type FrameQueue = Arc<Mutex<FrameBuf>>;

/// In-memory transport: two endpoints over crossed frame queues.
///
/// A send copies the frame into the peer's queue under its lock; a
/// [`recv_into`](Transport::recv_into) into a drained [`FrameBuf`]
/// swaps it with the whole queue under one lock, with no copy.
#[derive(Debug)]
pub struct Loopback {
    outgoing: FrameQueue,
    incoming: FrameQueue,
}

impl Loopback {
    /// A connected pair of endpoints: whatever one sends, the other
    /// receives, in order.
    pub fn pair() -> (Loopback, Loopback) {
        let a: FrameQueue = Arc::default();
        let b: FrameQueue = Arc::default();
        (
            Loopback {
                outgoing: Arc::clone(&a),
                incoming: Arc::clone(&b),
            },
            Loopback {
                outgoing: b,
                incoming: a,
            },
        )
    }
}

impl Transport for Loopback {
    fn send(&mut self, frame: &[u8]) -> Result<(), ServiceError> {
        self.outgoing
            .lock()
            .expect("loopback queue poisoned")
            .push(frame);
        Ok(())
    }

    fn recv_into(&mut self, frames: &mut FrameBuf) {
        frames.append(&mut self.incoming.lock().expect("loopback queue poisoned"));
    }
}

/// The service side of a connection: a [`SessionManager`] driven by
/// frames from a [`Transport`].
#[derive(Debug)]
pub struct ServiceEndpoint<T: Transport> {
    manager: SessionManager,
    transport: T,
    /// Client frames drained from the transport and not yet applied.
    incoming: FrameBuf,
    /// Scratch buffer each reply frame is encoded into.
    reply: Vec<u8>,
}

impl<T: Transport> ServiceEndpoint<T> {
    /// Wraps a manager and a transport into an endpoint.
    pub fn new(manager: SessionManager, transport: T) -> Self {
        ServiceEndpoint {
            manager,
            transport,
            incoming: FrameBuf::new(),
            reply: Vec::new(),
        }
    }

    /// One service turn: drain and apply every pending client frame, run
    /// one scheduler slice, and stream out any completions. Returns the
    /// number of sessions stepped (0 = idle).
    ///
    /// Per-session failures are *replied*, not returned: invalid opens,
    /// unknown sessions, refused events, backpressure under
    /// [`OverflowPolicy::Block`](crate::OverflowPolicy::Block), and
    /// sessions killed mid-run by their own event feed (see
    /// [`SessionManager::poll_failure`]) all come back as
    /// [`WireResult::Error`] frames, and the endpoint keeps serving its
    /// other tenants.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] if a frame fails to decode (a broken peer,
    /// not a tenant mistake), plus transport delivery failures. The
    /// frame that failed is consumed; the frames after it stay buffered
    /// and are applied by the next `pump`.
    pub fn pump(&mut self) -> Result<usize, ServiceError> {
        self.transport.recv_into(&mut self.incoming);
        while let Some(frame) = self.incoming.pop() {
            let event = decode_event(frame)?;
            let (session, outcome) = self.apply(event);
            if let Err(error) = outcome {
                self.reply_error(session, &error)?;
            }
        }
        let stepped = self.manager.run_slice();
        while let Some((session, error)) = self.manager.poll_failure() {
            self.reply_error(session, &error)?;
        }
        while let Some((session, result)) = self.manager.poll_result() {
            self.reply(&WireResult::Result { session, result })?;
        }
        Ok(stepped)
    }

    fn reply_error(
        &mut self,
        session: SessionId,
        error: &ServiceError,
    ) -> Result<(), ServiceError> {
        self.reply(&WireResult::Error {
            session,
            message: error.to_string(),
        })
    }

    fn reply(&mut self, reply: &WireResult) -> Result<(), ServiceError> {
        self.reply.clear();
        encode_result_into(reply, &mut self.reply)?;
        self.transport.send(&self.reply)
    }

    fn apply(&mut self, event: WireEvent) -> (SessionId, Result<(), ServiceError>) {
        match event {
            WireEvent::OpenScenario {
                session,
                spec,
                scenario,
                n,
                seed,
                horizon,
                slice_budget,
            } => {
                let mut config = SessionConfig {
                    horizon,
                    ..SessionConfig::default()
                };
                if let Some(budget) = slice_budget {
                    config.slice_budget = budget;
                }
                (
                    session,
                    self.manager
                        .open_scenario(session, spec, scenario, n, seed, &config),
                )
            }
            WireEvent::OpenExternal {
                session,
                spec,
                n,
                horizon,
                slice_budget,
                inbox_capacity,
                overflow,
            } => {
                let mut config = SessionConfig {
                    horizon,
                    overflow,
                    ..SessionConfig::default()
                };
                if let Some(budget) = slice_budget {
                    config.slice_budget = budget;
                }
                if let Some(capacity) = inbox_capacity {
                    config.inbox_capacity = capacity;
                }
                (
                    session,
                    self.manager.open_external(session, spec, n, &config),
                )
            }
            WireEvent::Event { session, event } => {
                (session, self.manager.push_event(session, event))
            }
            WireEvent::Close { session } => (session, self.manager.close(session)),
        }
    }

    /// Pumps until the manager is idle: every session finished (result
    /// frames sent) or awaiting external events.
    ///
    /// # Errors
    ///
    /// See [`ServiceEndpoint::pump`].
    pub fn run_until_idle(&mut self) -> Result<(), ServiceError> {
        while self.pump()? > 0 {}
        Ok(())
    }

    /// The underlying manager (for status probes).
    pub fn manager(&self) -> &SessionManager {
        &self.manager
    }
}

/// The tenant side of a connection: typed calls encoded to frames.
#[derive(Debug)]
pub struct ServiceClient<T: Transport> {
    transport: T,
    /// Scratch buffer each outgoing frame is encoded into.
    outgoing: Vec<u8>,
    /// Replies drained from the transport and not yet polled.
    incoming: FrameBuf,
}

impl<T: Transport> ServiceClient<T> {
    /// Wraps a transport into a client.
    pub fn new(transport: T) -> Self {
        ServiceClient {
            transport,
            outgoing: Vec::new(),
            incoming: FrameBuf::new(),
        }
    }

    fn send(&mut self, event: &WireEvent) -> Result<(), ServiceError> {
        self.outgoing.clear();
        encode_event_into(event, &mut self.outgoing)?;
        self.transport.send(&self.outgoing)
    }

    /// Requests a scenario-fed session (wire form of
    /// [`SessionManager::open_scenario`](crate::SessionManager::open_scenario)).
    ///
    /// # Errors
    ///
    /// Encode failures ([`WireError::OutOfRange`](crate::WireError::OutOfRange)
    /// for oversized fields) and transport delivery failures; service-side
    /// rejections arrive later as [`WireResult::Error`] frames.
    pub fn open_scenario(
        &mut self,
        session: SessionId,
        spec: AlgorithmSpec,
        scenario: impl Into<FaultedScenario>,
        n: usize,
        seed: u64,
        config: &SessionConfig,
    ) -> Result<(), ServiceError> {
        self.send(&WireEvent::OpenScenario {
            session,
            spec,
            scenario: scenario.into(),
            n,
            seed,
            horizon: config.horizon,
            slice_budget: Some(config.slice_budget),
        })
    }

    /// Requests an externally-fed session (wire form of
    /// [`SessionManager::open_external`](crate::SessionManager::open_external)).
    ///
    /// # Errors
    ///
    /// Encode and transport delivery failures (see
    /// [`ServiceClient::open_scenario`]).
    pub fn open_external(
        &mut self,
        session: SessionId,
        spec: AlgorithmSpec,
        n: usize,
        config: &SessionConfig,
    ) -> Result<(), ServiceError> {
        self.send(&WireEvent::OpenExternal {
            session,
            spec,
            n,
            horizon: config.horizon,
            slice_budget: Some(config.slice_budget),
            inbox_capacity: Some(config.inbox_capacity),
            overflow: config.overflow,
        })
    }

    /// Feeds one event to an externally-fed session.
    ///
    /// # Errors
    ///
    /// Encode and transport delivery failures; a full inbox under
    /// [`OverflowPolicy::Block`](crate::OverflowPolicy::Block) comes back
    /// as a [`WireResult::Error`] frame.
    pub fn send_event(&mut self, session: SessionId, event: StepEvent) -> Result<(), ServiceError> {
        self.send(&WireEvent::Event { session, event })
    }

    /// Closes an externally-fed session's feed so it finishes once its
    /// inbox drains.
    ///
    /// # Errors
    ///
    /// Transport delivery failures only.
    pub fn close(&mut self, session: SessionId) -> Result<(), ServiceError> {
        self.send(&WireEvent::Close { session })
    }

    /// Takes the next service reply, if one has arrived: a completed
    /// session's result or a per-session error.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] if the frame fails to decode. The frame is
    /// consumed either way, so the next call returns the reply after it.
    pub fn poll_result(&mut self) -> Result<Option<WireResult>, ServiceError> {
        if self.incoming.is_empty() {
            self.transport.recv_into(&mut self.incoming);
        }
        match self.incoming.pop() {
            None => Ok(None),
            Some(frame) => Ok(Some(decode_result(frame)?)),
        }
    }

    /// The underlying transport (e.g. to inspect or tear down). Replies
    /// already drained from it but not yet polled are dropped.
    pub fn into_transport(self) -> T {
        self.transport
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_core::Interaction;
    use doda_graph::NodeId;

    fn drain(frames: &mut FrameBuf) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| frames.pop().map(<[u8]>::to_vec)).collect()
    }

    #[test]
    fn frames_pop_in_order_with_their_boundaries() {
        let sent: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![4], vec![5, 6]];
        let mut frames = FrameBuf::new();
        for frame in &sent {
            frames.push(frame);
        }
        assert_eq!(frames.len(), 4);
        assert_eq!(drain(&mut frames), sent);
        assert!(frames.is_empty());
        assert_eq!(frames.pop(), None);
    }

    #[test]
    fn append_keeps_unread_frames_ahead_of_new_ones() {
        let mut reader = FrameBuf::new();
        reader.push(&[1]);
        reader.push(&[2, 2]);
        reader.push(&[3, 3, 3]);
        assert_eq!(reader.pop(), Some(&[1][..]));

        // The appended buffer was itself partly read, further in than
        // this one holds bytes.
        let mut queue = FrameBuf::new();
        queue.push(&[0; 32]);
        queue.push(&[4]);
        queue.push(&[5, 5]);
        queue.pop();
        reader.append(&mut queue);
        assert!(queue.is_empty());
        assert_eq!(
            drain(&mut reader),
            vec![vec![2, 2], vec![3, 3, 3], vec![4], vec![5, 5]]
        );
    }

    #[test]
    fn appending_into_a_drained_buffer_swaps_instead_of_copying() {
        let mut reader = FrameBuf::new();
        reader.push(&[9; 64]);
        reader.pop();
        let mut queue = FrameBuf::new();
        queue.push(&[7; 16]);
        let queued_at = queue.bytes.as_ptr();
        let drained_at = reader.bytes.as_ptr();

        reader.append(&mut queue);
        assert_eq!(reader.bytes.as_ptr(), queued_at);
        assert_eq!(queue.bytes.as_ptr(), drained_at);
        assert!(queue.is_empty());
        assert_eq!(drain(&mut reader), vec![vec![7; 16]]);
    }

    #[test]
    fn a_grown_connection_reuses_its_buffers() {
        let (client_end, service_end) = Loopback::pair();
        let mut client = ServiceClient::new(client_end);
        let mut service = ServiceEndpoint::new(SessionManager::with_workers(1), service_end);
        let session = SessionId(1);
        let config = SessionConfig {
            horizon: Some(u64::MAX),
            inbox_capacity: 1_024,
            ..SessionConfig::default()
        };
        client
            .open_external(session, AlgorithmSpec::Waiting, 8, &config)
            .expect("send");
        // Interactions that never meet the sink keep the session live.
        let event = StepEvent::Interaction(Interaction::new(NodeId(1), NodeId(2)));
        // The client's scratch frame, and the two buffers the endpoint's
        // drain swaps with the loopback queue, in address order.
        let buffers = |client: &ServiceClient<Loopback>, service: &ServiceEndpoint<Loopback>| {
            let queue = client.transport.outgoing.lock().expect("queue");
            let mut swapped = [
                service.incoming.bytes.as_ptr(),
                queue.bytes.as_ptr(),
                service.incoming.ends.as_ptr().cast(),
                queue.ends.as_ptr().cast(),
            ];
            swapped.sort_unstable();
            (client.outgoing.as_ptr(), swapped)
        };
        let mut grown = None;
        for turn in 0..10 {
            for _ in 0..256 {
                client.send_event(session, event).expect("send");
            }
            service.pump().expect("pump");
            if turn == 1 {
                grown = Some(buffers(&client, &service));
            }
        }
        assert_eq!(Some(buffers(&client, &service)), grown);
        assert_eq!(service.manager().len(), 1);
        assert_eq!(client.poll_result().expect("decode"), None);
    }
}
