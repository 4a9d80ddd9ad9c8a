//! Wire format v3: compact, versioned, length-prefixed binary frames.
//!
//! Every frame is `[payload_len: u32 LE][payload]`, and every payload
//! starts `[version: u8][kind: u8]`. Client→service payloads decode to
//! [`WireEvent`]; service→client payloads decode to [`WireResult`].
//! [`encode_event_into`] and [`encode_result_into`] append a frame to a
//! caller's buffer, so a reused buffer encodes without allocating;
//! [`encode_event`] and [`encode_result`] return the same bytes in a
//! fresh `Vec`, and the decoders read borrowed frames. The
//! byte layout is **pinned by a golden file**
//! (`tests/golden/wire_v3.hex`, checked by `tests/wire_schema.rs` the
//! way `BENCH_baseline.json`'s schema is) — changing any encoding below
//! requires bumping [`WIRE_VERSION`] and regenerating the golden file.
//! (v1 → v2 appended the aggregate summary to the trial result; v2 → v3
//! added the Byzantine plan to the scenario encoding and the audit
//! verdict to the trial result; see below.)
//!
//! ## Payload kinds
//!
//! | kind | direction | body |
//! |------|-----------|------|
//! | `0x01` OpenScenario | c→s | session `u64`, spec, scenario, `n: u32`, `seed: u64`, horizon `opt u64`, slice budget `opt u64` |
//! | `0x02` OpenExternal | c→s | session `u64`, spec, `n: u32`, horizon `opt u64`, slice budget `opt u64`, inbox capacity `opt u64`, overflow `u8` |
//! | `0x03` Event        | c→s | session `u64`, step event |
//! | `0x04` Close        | c→s | session `u64` |
//! | `0x81` Result       | s→c | session `u64`, trial result |
//! | `0x82` Error        | s→c | session `u64`, message `str16` |
//!
//! Scalars are little-endian; `opt u64` is a presence byte followed by
//! the value when present; `str16` is a `u16` length followed by UTF-8
//! bytes; enums are one tag byte (in declaration order) followed by
//! their fields. `u32` fields carrying `usize` values (node ids, `n`,
//! scenario parameters) are checked at encode time — a value above
//! `u32::MAX` is a typed [`WireError::OutOfRange`], never a silent
//! wrap — while `str16` text is advisory and truncates at a char
//! boundary to fit its length field. A scenario is the base tag and
//! fields, a fault-plan presence byte (`1` followed by the profile
//! fields when present), then a Byzantine-plan presence byte (`1`
//! followed by `fraction: f64` and a strategy tag — `0` forge, `1`
//! duplicate, `2` drop-carried, `3` equivocate — when present). A trial
//! result is: algorithm `str16`, `n: u32`,
//! termination time `opt u64`, interactions `u64`, transmissions `u64`,
//! ignored decisions `u64`, data conserved `u8`, completion `u8`, the
//! six fault-tally counters as `u64`s, a reserved cost byte (`0`;
//! service results never carry the paper's sequence-cost analysis),
//! the aggregate summary: one tag byte — `0` none, `1` count (`u64`),
//! `2` sum (`f64`), `3` min (`f64`), `4` max (`f64`), `5` distinct
//! estimate (`f64`), `6` quantile (`count: u64`, `median: f64`,
//! `p95: f64`) — followed by the tagged fields, and the audit verdict:
//! one tag byte — `0` unaudited, `1` clean, `2` detected followed by
//! the evidence (`time: u64`, `liar: u32`, strategy tag `u8`), `3`
//! tolerated, `4` corrupted.

use doda_core::algebra::AggregateSummary;
use doda_core::byzantine::{ByzantineProfile, ByzantineStrategy, Evidence, Verdict};
use doda_core::fault::{CrashPolicy, FaultProfile};
use doda_core::outcome::{Completion, FaultTally};
use doda_core::sequence::StepEvent;
use doda_core::{Interaction, Time};
use doda_graph::NodeId;
use doda_sim::{AlgorithmSpec, FaultedScenario, Scenario, TrialResult};

use crate::error::WireError;
use crate::session::{OverflowPolicy, SessionId};

/// The wire format version this module encodes and decodes.
pub const WIRE_VERSION: u8 = 3;

/// Initial capacity of the frames [`encode_event`] and [`encode_result`]
/// return: room for every event frame and most result frames, so the
/// allocating encoders usually allocate once.
const FRAME_CAPACITY: usize = 128;

const KIND_OPEN_SCENARIO: u8 = 0x01;
const KIND_OPEN_EXTERNAL: u8 = 0x02;
const KIND_EVENT: u8 = 0x03;
const KIND_CLOSE: u8 = 0x04;
const KIND_RESULT: u8 = 0x81;
const KIND_ERROR: u8 = 0x82;

/// A client→service message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// Open a scenario-fed session (see
    /// [`SessionManager::open_scenario`](crate::SessionManager::open_scenario)).
    OpenScenario {
        /// The session to open.
        session: SessionId,
        /// The algorithm to run.
        spec: AlgorithmSpec,
        /// The interaction process (with optional fault plan).
        scenario: FaultedScenario,
        /// Population size.
        n: usize,
        /// Sweep-compatible batch seed.
        seed: u64,
        /// Interaction horizon; `None` uses the sweep default.
        horizon: Option<u64>,
        /// Per-slice interaction budget; `None` uses the session default.
        slice_budget: Option<u64>,
    },
    /// Open an externally-fed session (see
    /// [`SessionManager::open_external`](crate::SessionManager::open_external)).
    OpenExternal {
        /// The session to open.
        session: SessionId,
        /// The algorithm to run.
        spec: AlgorithmSpec,
        /// Population size.
        n: usize,
        /// Interaction horizon; `None` uses the sweep default.
        horizon: Option<u64>,
        /// Per-slice interaction budget; `None` uses the session default.
        slice_budget: Option<u64>,
        /// Inbox bound; `None` uses the session default.
        inbox_capacity: Option<usize>,
        /// What a full inbox does with new events.
        overflow: OverflowPolicy,
    },
    /// Feed one step event into an externally-fed session.
    Event {
        /// The target session.
        session: SessionId,
        /// The event.
        event: StepEvent,
    },
    /// Close an externally-fed session's feed.
    Close {
        /// The target session.
        session: SessionId,
    },
}

/// A service→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResult {
    /// A session completed; its final result.
    Result {
        /// The completed session.
        session: SessionId,
        /// The session's trial result (byte-identical to the equivalent
        /// standalone sweep's for scenario sessions).
        result: TrialResult,
    },
    /// A per-session request failed service-side.
    Error {
        /// The session the failed request named.
        session: SessionId,
        /// Human-readable failure description.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Appends one frame to a borrowed buffer; [`frame`] reserves the
/// header, patches the length prefix and undoes a failed frame.
struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }

    /// Writes a length-prefixed string. Strings are advisory text
    /// (algorithm labels, error messages); anything past the `u16`
    /// length field is truncated at a char boundary rather than
    /// failing the frame.
    fn str16(&mut self, s: &str) {
        let mut end = s.len().min(usize::from(u16::MAX));
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        let len = u16::try_from(end).expect("end is clamped to u16::MAX above");
        self.u16(len);
        self.0.extend_from_slice(&s.as_bytes()[..end]);
    }

    /// Writes a `usize` into a `u32` field, refusing values that would
    /// silently wrap on the wire.
    fn usize32(&mut self, v: usize, what: &'static str) -> Result<(), WireError> {
        let v = u32::try_from(v).map_err(|_| WireError::OutOfRange { what })?;
        self.u32(v);
        Ok(())
    }

    fn node(&mut self, node: NodeId) -> Result<(), WireError> {
        self.usize32(node.0, "node id")
    }
}

/// Appends one `kind` frame whose body `body` writes to `buf`, then
/// patches its length prefix. On error `buf` is truncated back to the
/// length it had on entry, so a refused frame leaves no partial bytes.
/// A payload whose length would wrap the `u32` prefix (a ≥ 4 GiB frame
/// would otherwise decode as garbage) is refused the same way.
fn frame(
    buf: &mut Vec<u8>,
    kind: u8,
    body: impl FnOnce(&mut Writer<'_>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let start = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0, WIRE_VERSION, kind]);
    let written = body(&mut Writer(buf)).and_then(|()| {
        u32::try_from(buf.len() - start - 4).map_err(|_| WireError::OutOfRange {
            what: "frame length",
        })
    });
    match written {
        Ok(payload_len) => {
            buf[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
            Ok(())
        }
        Err(error) => {
            buf.truncate(start);
            Err(error)
        }
    }
}

fn put_spec(w: &mut Writer<'_>, spec: AlgorithmSpec) {
    match spec {
        AlgorithmSpec::Waiting => w.u8(0),
        AlgorithmSpec::Gathering => w.u8(1),
        AlgorithmSpec::WaitingGreedy { tau } => {
            w.u8(2);
            w.opt_u64(tau);
        }
        AlgorithmSpec::SpanningTree => w.u8(3),
        AlgorithmSpec::FutureBroadcast => w.u8(4),
        AlgorithmSpec::OfflineOptimal => w.u8(5),
    }
}

fn put_scenario(w: &mut Writer<'_>, scenario: Scenario) -> Result<(), WireError> {
    match scenario {
        Scenario::Uniform => w.u8(0),
        Scenario::Zipf { exponent } => {
            w.u8(1);
            w.f64(exponent);
        }
        Scenario::Community {
            communities,
            p_intra,
        } => {
            w.u8(2);
            w.usize32(communities, "community count")?;
            w.f64(p_intra);
        }
        Scenario::BodyArea => w.u8(3),
        Scenario::Vehicular => w.u8(4),
        Scenario::WeightedZipf { exponent } => {
            w.u8(5);
            w.f64(exponent);
        }
        Scenario::ObliviousTrap => w.u8(6),
        Scenario::AdaptiveIsolator => w.u8(7),
        Scenario::CrashAwareIsolator => w.u8(8),
        Scenario::RandomMatching => w.u8(9),
        Scenario::Tournament => w.u8(10),
        Scenario::IntervalConnected { t } => {
            w.u8(11);
            w.usize32(t, "connectivity window")?;
        }
        Scenario::RoundIsolator => w.u8(12),
        Scenario::TorusContact => w.u8(13),
    }
    Ok(())
}

fn put_crash_policy(w: &mut Writer<'_>, policy: CrashPolicy) {
    w.u8(match policy {
        CrashPolicy::DatumLost => 0,
        CrashPolicy::DatumRecoverable => 1,
    });
}

fn put_byzantine_strategy(w: &mut Writer<'_>, strategy: ByzantineStrategy) {
    w.u8(match strategy {
        ByzantineStrategy::Forge => 0,
        ByzantineStrategy::Duplicate => 1,
        ByzantineStrategy::DropCarried => 2,
        ByzantineStrategy::Equivocate => 3,
    });
}

fn put_faulted_scenario(w: &mut Writer<'_>, scenario: &FaultedScenario) -> Result<(), WireError> {
    put_scenario(w, scenario.base)?;
    match scenario.faults {
        None => w.u8(0),
        Some(profile) => {
            w.u8(1);
            w.f64(profile.crash);
            w.f64(profile.departure);
            w.f64(profile.arrival);
            w.f64(profile.loss);
            put_crash_policy(w, profile.crash_policy);
            w.usize32(profile.min_live, "live floor")?;
        }
    }
    match scenario.byzantine {
        None => w.u8(0),
        Some(profile) => {
            w.u8(1);
            w.f64(profile.fraction);
            put_byzantine_strategy(w, profile.strategy);
        }
    }
    Ok(())
}

fn put_step_event(w: &mut Writer<'_>, event: StepEvent) -> Result<(), WireError> {
    match event {
        StepEvent::Interaction(interaction) => {
            w.u8(0);
            let (a, b) = interaction.pair();
            w.node(a)?;
            w.node(b)?;
        }
        StepEvent::Lost(interaction) => {
            w.u8(1);
            let (a, b) = interaction.pair();
            w.node(a)?;
            w.node(b)?;
        }
        StepEvent::Crash { node, policy } => {
            w.u8(2);
            w.node(node)?;
            put_crash_policy(w, policy);
        }
        StepEvent::Departure(node) => {
            w.u8(3);
            w.node(node)?;
        }
        StepEvent::Arrival(node) => {
            w.u8(4);
            w.node(node)?;
        }
    }
    Ok(())
}

fn put_trial_result(w: &mut Writer<'_>, result: &TrialResult) -> Result<(), WireError> {
    w.str16(&result.algorithm);
    w.usize32(result.n, "population size")?;
    w.opt_u64(result.termination_time);
    w.u64(result.interactions_processed);
    w.u64(result.transmissions as u64);
    w.u64(result.ignored_decisions);
    w.u8(u8::from(result.data_conserved));
    w.u8(match result.completion {
        Completion::Aggregated => 0,
        Completion::AggregatedSurvivors => 1,
        Completion::Starved => 2,
    });
    w.u64(result.faults.crashes);
    w.u64(result.faults.departures);
    w.u64(result.faults.arrivals);
    w.u64(result.faults.lost_interactions);
    w.u64(result.faults.data_lost);
    w.u64(result.faults.data_recovered);
    // Reserved: the service path never computes the sequence-cost
    // analysis (it needs a materialised sequence).
    w.u8(0);
    put_aggregate_summary(w, result.aggregate);
    put_verdict(w, result.verdict)?;
    Ok(())
}

fn put_verdict(w: &mut Writer<'_>, verdict: Option<Verdict>) -> Result<(), WireError> {
    match verdict {
        None => w.u8(0),
        Some(Verdict::Clean) => w.u8(1),
        Some(Verdict::Detected { evidence }) => {
            w.u8(2);
            w.u64(evidence.time);
            w.node(evidence.liar)?;
            put_byzantine_strategy(w, evidence.strategy);
        }
        Some(Verdict::Tolerated) => w.u8(3),
        Some(Verdict::Corrupted) => w.u8(4),
    }
    Ok(())
}

fn put_aggregate_summary(w: &mut Writer<'_>, summary: Option<AggregateSummary>) {
    match summary {
        None => w.u8(0),
        Some(AggregateSummary::Count { value }) => {
            w.u8(1);
            w.u64(value);
        }
        Some(AggregateSummary::Sum { value }) => {
            w.u8(2);
            w.f64(value);
        }
        Some(AggregateSummary::Min { value }) => {
            w.u8(3);
            w.f64(value);
        }
        Some(AggregateSummary::Max { value }) => {
            w.u8(4);
            w.f64(value);
        }
        Some(AggregateSummary::Distinct { estimate }) => {
            w.u8(5);
            w.f64(estimate);
        }
        Some(AggregateSummary::Quantile { count, median, p95 }) => {
            w.u8(6);
            w.u64(count);
            w.f64(median);
            w.f64(p95);
        }
    }
}

/// Encodes a client→service message as one length-prefixed frame.
///
/// # Errors
///
/// [`WireError::OutOfRange`] if a node id or other `usize` field does
/// not fit its fixed-width `u32` wire field.
pub fn encode_event(event: &WireEvent) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(FRAME_CAPACITY);
    encode_event_into(event, &mut buf)?;
    Ok(buf)
}

/// Appends a client→service message to `buf` as one length-prefixed
/// frame, the same bytes [`encode_event`] returns. Bytes already in
/// `buf` are left as they are, so a reused buffer encodes without
/// allocating once it has grown.
///
/// # Errors
///
/// As [`encode_event`]; on error `buf` is left exactly as it was.
pub fn encode_event_into(event: &WireEvent, buf: &mut Vec<u8>) -> Result<(), WireError> {
    match event {
        WireEvent::OpenScenario {
            session,
            spec,
            scenario,
            n,
            seed,
            horizon,
            slice_budget,
        } => frame(buf, KIND_OPEN_SCENARIO, |w| {
            w.u64(session.0);
            put_spec(w, *spec);
            put_faulted_scenario(w, scenario)?;
            w.usize32(*n, "population size")?;
            w.u64(*seed);
            w.opt_u64(*horizon);
            w.opt_u64(*slice_budget);
            Ok(())
        }),
        WireEvent::OpenExternal {
            session,
            spec,
            n,
            horizon,
            slice_budget,
            inbox_capacity,
            overflow,
        } => frame(buf, KIND_OPEN_EXTERNAL, |w| {
            w.u64(session.0);
            put_spec(w, *spec);
            w.usize32(*n, "population size")?;
            w.opt_u64(*horizon);
            w.opt_u64(*slice_budget);
            w.opt_u64(inbox_capacity.map(|c| c as u64));
            w.u8(match overflow {
                OverflowPolicy::Shed => 0,
                OverflowPolicy::Block => 1,
            });
            Ok(())
        }),
        WireEvent::Event { session, event } => frame(buf, KIND_EVENT, |w| {
            w.u64(session.0);
            put_step_event(w, *event)
        }),
        WireEvent::Close { session } => frame(buf, KIND_CLOSE, |w| {
            w.u64(session.0);
            Ok(())
        }),
    }
}

/// Encodes a service→client message as one length-prefixed frame.
///
/// # Errors
///
/// [`WireError::OutOfRange`] if a `usize` field does not fit its
/// fixed-width `u32` wire field (strings never fail: they truncate, see
/// the module docs).
pub fn encode_result(result: &WireResult) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(FRAME_CAPACITY);
    encode_result_into(result, &mut buf)?;
    Ok(buf)
}

/// Appends a service→client message to `buf` as one length-prefixed
/// frame, the same bytes [`encode_result`] returns (see
/// [`encode_event_into`] for the append contract).
///
/// # Errors
///
/// As [`encode_result`]; on error `buf` is left exactly as it was.
pub fn encode_result_into(result: &WireResult, buf: &mut Vec<u8>) -> Result<(), WireError> {
    match result {
        WireResult::Result { session, result } => frame(buf, KIND_RESULT, |w| {
            w.u64(session.0);
            put_trial_result(w, result)
        }),
        WireResult::Error { session, message } => frame(buf, KIND_ERROR, |w| {
            w.u64(session.0);
            w.str16(message);
            Ok(())
        }),
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Strips and validates the frame header (length prefix + version),
    /// returning a reader over the body and the kind byte.
    fn open(frame: &'a [u8]) -> Result<(Self, u8), WireError> {
        if frame.len() < 6 {
            return Err(WireError::Truncated);
        }
        let declared = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        if frame.len() - 4 != declared {
            return Err(if frame.len() - 4 < declared {
                WireError::Truncated
            } else {
                WireError::TrailingBytes
            });
        }
        let version = frame[4];
        if version != WIRE_VERSION {
            return Err(WireError::UnknownVersion(version));
        }
        let kind = frame[5];
        Ok((
            Reader {
                bytes: frame,
                at: 6,
            },
            kind,
        ))
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(len).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            tag => Err(WireError::UnknownTag {
                what: "option",
                tag,
            }),
        }
    }

    fn str16(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn node(&mut self) -> Result<NodeId, WireError> {
        Ok(NodeId(self.u32()? as usize))
    }

    fn end(self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

fn get_spec(r: &mut Reader<'_>) -> Result<AlgorithmSpec, WireError> {
    Ok(match r.u8()? {
        0 => AlgorithmSpec::Waiting,
        1 => AlgorithmSpec::Gathering,
        2 => AlgorithmSpec::WaitingGreedy {
            tau: r.opt_u64()?.map(|t| t as Time),
        },
        3 => AlgorithmSpec::SpanningTree,
        4 => AlgorithmSpec::FutureBroadcast,
        5 => AlgorithmSpec::OfflineOptimal,
        tag => return Err(WireError::UnknownTag { what: "spec", tag }),
    })
}

fn get_crash_policy(r: &mut Reader<'_>) -> Result<CrashPolicy, WireError> {
    Ok(match r.u8()? {
        0 => CrashPolicy::DatumLost,
        1 => CrashPolicy::DatumRecoverable,
        tag => {
            return Err(WireError::UnknownTag {
                what: "crash policy",
                tag,
            })
        }
    })
}

fn get_faulted_scenario(r: &mut Reader<'_>) -> Result<FaultedScenario, WireError> {
    let base = match r.u8()? {
        0 => Scenario::Uniform,
        1 => Scenario::Zipf { exponent: r.f64()? },
        2 => Scenario::Community {
            communities: r.u32()? as usize,
            p_intra: r.f64()?,
        },
        3 => Scenario::BodyArea,
        4 => Scenario::Vehicular,
        5 => Scenario::WeightedZipf { exponent: r.f64()? },
        6 => Scenario::ObliviousTrap,
        7 => Scenario::AdaptiveIsolator,
        8 => Scenario::CrashAwareIsolator,
        9 => Scenario::RandomMatching,
        10 => Scenario::Tournament,
        11 => Scenario::IntervalConnected {
            t: r.u32()? as usize,
        },
        12 => Scenario::RoundIsolator,
        13 => Scenario::TorusContact,
        tag => {
            return Err(WireError::UnknownTag {
                what: "scenario",
                tag,
            })
        }
    };
    let faults = match r.u8()? {
        0 => None,
        1 => Some(FaultProfile {
            crash: r.f64()?,
            departure: r.f64()?,
            arrival: r.f64()?,
            loss: r.f64()?,
            crash_policy: get_crash_policy(r)?,
            min_live: r.u32()? as usize,
        }),
        tag => {
            return Err(WireError::UnknownTag {
                what: "fault plan",
                tag,
            })
        }
    };
    let byzantine = match r.u8()? {
        0 => None,
        1 => Some(ByzantineProfile {
            fraction: r.f64()?,
            strategy: get_byzantine_strategy(r)?,
        }),
        tag => {
            return Err(WireError::UnknownTag {
                what: "byzantine plan",
                tag,
            })
        }
    };
    Ok(FaultedScenario {
        base,
        faults,
        byzantine,
    })
}

fn get_byzantine_strategy(r: &mut Reader<'_>) -> Result<ByzantineStrategy, WireError> {
    Ok(match r.u8()? {
        0 => ByzantineStrategy::Forge,
        1 => ByzantineStrategy::Duplicate,
        2 => ByzantineStrategy::DropCarried,
        3 => ByzantineStrategy::Equivocate,
        tag => {
            return Err(WireError::UnknownTag {
                what: "byzantine strategy",
                tag,
            })
        }
    })
}

fn get_step_event(r: &mut Reader<'_>) -> Result<StepEvent, WireError> {
    Ok(match r.u8()? {
        0 => StepEvent::Interaction(Interaction::new(r.node()?, r.node()?)),
        1 => StepEvent::Lost(Interaction::new(r.node()?, r.node()?)),
        2 => StepEvent::Crash {
            node: r.node()?,
            policy: get_crash_policy(r)?,
        },
        3 => StepEvent::Departure(r.node()?),
        4 => StepEvent::Arrival(r.node()?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "step event",
                tag,
            })
        }
    })
}

/// Narrows a decoded `u64` into a host `usize`, refusing values that do
/// not fit (only reachable on 32-bit hosts decoding 64-bit frames).
fn usize_from(v: u64, what: &'static str) -> Result<usize, WireError> {
    usize::try_from(v).map_err(|_| WireError::OutOfRange { what })
}

fn get_trial_result(r: &mut Reader<'_>) -> Result<TrialResult, WireError> {
    let algorithm = r.str16()?;
    let n = r.u32()? as usize;
    let termination_time = r.opt_u64()?;
    let interactions_processed = r.u64()?;
    let transmissions = usize_from(r.u64()?, "transmissions")?;
    let ignored_decisions = r.u64()?;
    let data_conserved = r.u8()? != 0;
    let completion = match r.u8()? {
        0 => Completion::Aggregated,
        1 => Completion::AggregatedSurvivors,
        2 => Completion::Starved,
        tag => {
            return Err(WireError::UnknownTag {
                what: "completion",
                tag,
            })
        }
    };
    let faults = FaultTally {
        crashes: r.u64()?,
        departures: r.u64()?,
        arrivals: r.u64()?,
        lost_interactions: r.u64()?,
        data_lost: r.u64()?,
        data_recovered: r.u64()?,
    };
    match r.u8()? {
        0 => {}
        tag => return Err(WireError::UnknownTag { what: "cost", tag }),
    }
    let aggregate = get_aggregate_summary(r)?;
    let verdict = get_verdict(r)?;
    Ok(TrialResult {
        algorithm,
        n,
        termination_time,
        interactions_processed,
        transmissions,
        ignored_decisions,
        data_conserved,
        completion,
        faults,
        cost: None,
        aggregate,
        verdict,
    })
}

fn get_verdict(r: &mut Reader<'_>) -> Result<Option<Verdict>, WireError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(Verdict::Clean),
        2 => Some(Verdict::Detected {
            evidence: Evidence {
                time: r.u64()?,
                liar: r.node()?,
                strategy: get_byzantine_strategy(r)?,
            },
        }),
        3 => Some(Verdict::Tolerated),
        4 => Some(Verdict::Corrupted),
        tag => {
            return Err(WireError::UnknownTag {
                what: "verdict",
                tag,
            })
        }
    })
}

fn get_aggregate_summary(r: &mut Reader<'_>) -> Result<Option<AggregateSummary>, WireError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(AggregateSummary::Count { value: r.u64()? }),
        2 => Some(AggregateSummary::Sum { value: r.f64()? }),
        3 => Some(AggregateSummary::Min { value: r.f64()? }),
        4 => Some(AggregateSummary::Max { value: r.f64()? }),
        5 => Some(AggregateSummary::Distinct { estimate: r.f64()? }),
        6 => Some(AggregateSummary::Quantile {
            count: r.u64()?,
            median: r.f64()?,
            p95: r.f64()?,
        }),
        tag => {
            return Err(WireError::UnknownTag {
                what: "aggregate summary",
                tag,
            })
        }
    })
}

/// Decodes one client→service frame (including its length prefix).
///
/// # Errors
///
/// Any [`WireError`]: truncation, a version or kind this decoder does
/// not speak, out-of-range tags, or trailing bytes.
pub fn decode_event(frame: &[u8]) -> Result<WireEvent, WireError> {
    let (mut r, kind) = Reader::open(frame)?;
    let event = match kind {
        KIND_OPEN_SCENARIO => WireEvent::OpenScenario {
            session: SessionId(r.u64()?),
            spec: get_spec(&mut r)?,
            scenario: get_faulted_scenario(&mut r)?,
            n: r.u32()? as usize,
            seed: r.u64()?,
            horizon: r.opt_u64()?,
            slice_budget: r.opt_u64()?,
        },
        KIND_OPEN_EXTERNAL => WireEvent::OpenExternal {
            session: SessionId(r.u64()?),
            spec: get_spec(&mut r)?,
            n: r.u32()? as usize,
            horizon: r.opt_u64()?,
            slice_budget: r.opt_u64()?,
            inbox_capacity: match r.opt_u64()? {
                None => None,
                Some(c) => Some(usize_from(c, "inbox capacity")?),
            },
            overflow: match r.u8()? {
                0 => OverflowPolicy::Shed,
                1 => OverflowPolicy::Block,
                tag => {
                    return Err(WireError::UnknownTag {
                        what: "overflow policy",
                        tag,
                    })
                }
            },
        },
        KIND_EVENT => WireEvent::Event {
            session: SessionId(r.u64()?),
            event: get_step_event(&mut r)?,
        },
        KIND_CLOSE => WireEvent::Close {
            session: SessionId(r.u64()?),
        },
        kind => return Err(WireError::UnknownKind(kind)),
    };
    r.end()?;
    Ok(event)
}

/// Decodes one service→client frame (including its length prefix).
///
/// # Errors
///
/// Any [`WireError`] (see [`decode_event`]).
pub fn decode_result(frame: &[u8]) -> Result<WireResult, WireError> {
    let (mut r, kind) = Reader::open(frame)?;
    let result = match kind {
        KIND_RESULT => WireResult::Result {
            session: SessionId(r.u64()?),
            result: get_trial_result(&mut r)?,
        },
        KIND_ERROR => WireResult::Error {
            session: SessionId(r.u64()?),
            message: r.str16()?,
        },
        kind => return Err(WireError::UnknownKind(kind)),
    };
    r.end()?;
    Ok(result)
}
