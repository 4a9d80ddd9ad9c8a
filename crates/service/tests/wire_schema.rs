//! Pins the v3 wire format byte-for-byte against a committed golden
//! file, the way `bench_json_schema.rs` pins `BENCH_baseline.json`.
//!
//! A fixed corpus of frames — every kind, every enum arm — is encoded
//! and compared (as hex lines) to `tests/golden/wire_v3.hex`. Any codec
//! change that moves a byte fails here; intentional format changes must
//! bump `WIRE_VERSION` and regenerate the golden file by running this
//! test with `UPDATE_WIRE_GOLDEN=1`.
//!
//! The same corpus seeds the codec's other contracts: the `_into`
//! encoders append exactly the frame the allocating encoders return and
//! leave the buffer untouched on error, and the decoders answer every
//! byte string — arbitrary, truncated, bit-flipped or with a lying
//! length prefix — with a value or a typed [`WireError`], never a panic.

use doda_core::algebra::AggregateSummary;
use doda_core::byzantine::{ByzantineProfile, ByzantineStrategy, Evidence, Verdict};
use doda_core::fault::{CrashPolicy, FaultProfile};
use doda_core::outcome::{Completion, FaultTally};
use doda_core::sequence::StepEvent;
use doda_core::Interaction;
use doda_graph::NodeId;
use doda_service::{
    decode_event, decode_result, encode_event, encode_event_into, encode_result,
    encode_result_into, OverflowPolicy, SessionId, WireError, WireEvent, WireResult, WIRE_VERSION,
};
use doda_sim::{AlgorithmSpec, FaultedScenario, Scenario, TrialResult};
use proptest::prelude::*;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire_v3.hex");

fn sample_result() -> TrialResult {
    sample_result_with(None)
}

fn sample_verdict(verdict: Verdict) -> TrialResult {
    TrialResult {
        verdict: Some(verdict),
        ..sample_result()
    }
}

fn sample_result_with(aggregate: Option<AggregateSummary>) -> TrialResult {
    TrialResult {
        algorithm: "gathering".to_string(),
        n: 16,
        termination_time: Some(123),
        interactions_processed: 456,
        transmissions: 15,
        ignored_decisions: 3,
        data_conserved: true,
        completion: Completion::Aggregated,
        faults: FaultTally {
            crashes: 1,
            departures: 2,
            arrivals: 3,
            lost_interactions: 4,
            data_lost: 5,
            data_recovered: 6,
        },
        cost: None,
        aggregate,
        verdict: None,
    }
}

/// The pinned corpus: one frame per kind, collectively covering every
/// enum arm the codec can emit.
fn corpus() -> (Vec<WireEvent>, Vec<WireResult>) {
    let events = vec![
        WireEvent::OpenScenario {
            session: SessionId(1),
            spec: AlgorithmSpec::Waiting,
            scenario: Scenario::Uniform.into(),
            n: 16,
            seed: 42,
            horizon: None,
            slice_budget: None,
        },
        WireEvent::OpenScenario {
            session: SessionId(2),
            spec: AlgorithmSpec::WaitingGreedy { tau: Some(77) },
            scenario: FaultedScenario {
                base: Scenario::Zipf { exponent: 1.2 },
                faults: Some(FaultProfile {
                    crash: 0.001,
                    departure: 0.002,
                    arrival: 0.003,
                    loss: 0.05,
                    crash_policy: CrashPolicy::DatumRecoverable,
                    min_live: 4,
                }),
                byzantine: None,
            },
            n: 32,
            seed: 7,
            horizon: Some(10_000),
            slice_budget: Some(512),
        },
        WireEvent::OpenScenario {
            session: SessionId(3),
            spec: AlgorithmSpec::WaitingGreedy { tau: None },
            scenario: Scenario::Community {
                communities: 4,
                p_intra: 0.9,
            }
            .into(),
            n: 64,
            seed: 9,
            horizon: None,
            slice_budget: Some(128),
        },
        WireEvent::OpenScenario {
            session: SessionId(4),
            spec: AlgorithmSpec::SpanningTree,
            scenario: Scenario::IntervalConnected { t: 8 }.into(),
            n: 24,
            seed: 11,
            horizon: None,
            slice_budget: None,
        },
        WireEvent::OpenScenario {
            session: SessionId(5),
            spec: AlgorithmSpec::FutureBroadcast,
            scenario: Scenario::WeightedZipf { exponent: 1.2 }.into(),
            n: 12,
            seed: 13,
            horizon: None,
            slice_budget: None,
        },
        WireEvent::OpenScenario {
            session: SessionId(6),
            spec: AlgorithmSpec::OfflineOptimal,
            scenario: Scenario::RoundIsolator.into(),
            n: 10,
            seed: 17,
            horizon: None,
            slice_budget: None,
        },
        WireEvent::OpenScenario {
            session: SessionId(10),
            spec: AlgorithmSpec::Gathering,
            scenario: Scenario::Uniform.with_byzantine(ByzantineProfile::duplicate(0.25)),
            n: 20,
            seed: 19,
            horizon: None,
            slice_budget: None,
        },
        WireEvent::OpenScenario {
            session: SessionId(11),
            spec: AlgorithmSpec::Gathering,
            scenario: FaultedScenario {
                base: Scenario::Vehicular,
                faults: Some(FaultProfile::crash(0.002)),
                byzantine: Some(ByzantineProfile::drop_carried(0.1)),
            },
            n: 18,
            seed: 23,
            horizon: Some(4_000),
            slice_budget: None,
        },
        WireEvent::OpenExternal {
            session: SessionId(7),
            spec: AlgorithmSpec::Gathering,
            n: 8,
            horizon: None,
            slice_budget: Some(64),
            inbox_capacity: Some(16),
            overflow: OverflowPolicy::Block,
        },
        WireEvent::OpenExternal {
            session: SessionId(8),
            spec: AlgorithmSpec::Waiting,
            n: 6,
            horizon: Some(500),
            slice_budget: None,
            inbox_capacity: None,
            overflow: OverflowPolicy::Shed,
        },
        WireEvent::Event {
            session: SessionId(7),
            event: StepEvent::Interaction(Interaction::new(NodeId(1), NodeId(2))),
        },
        WireEvent::Event {
            session: SessionId(7),
            event: StepEvent::Lost(Interaction::new(NodeId(3), NodeId(4))),
        },
        WireEvent::Event {
            session: SessionId(7),
            event: StepEvent::Crash {
                node: NodeId(5),
                policy: CrashPolicy::DatumLost,
            },
        },
        WireEvent::Event {
            session: SessionId(7),
            event: StepEvent::Departure(NodeId(6)),
        },
        WireEvent::Event {
            session: SessionId(7),
            event: StepEvent::Arrival(NodeId(7)),
        },
        WireEvent::Close {
            session: SessionId(7),
        },
    ];
    let results = vec![
        WireResult::Result {
            session: SessionId(1),
            result: sample_result(),
        },
        WireResult::Result {
            session: SessionId(2),
            result: sample_result_with(Some(AggregateSummary::Count { value: 16 })),
        },
        WireResult::Result {
            session: SessionId(3),
            result: sample_result_with(Some(AggregateSummary::Sum { value: 8.125 })),
        },
        WireResult::Result {
            session: SessionId(4),
            result: sample_result_with(Some(AggregateSummary::Min { value: 0.0625 })),
        },
        WireResult::Result {
            session: SessionId(5),
            result: sample_result_with(Some(AggregateSummary::Max { value: 0.9375 })),
        },
        WireResult::Result {
            session: SessionId(6),
            result: sample_result_with(Some(AggregateSummary::Distinct { estimate: 15.5 })),
        },
        WireResult::Result {
            session: SessionId(7),
            result: sample_result_with(Some(AggregateSummary::Quantile {
                count: 16,
                median: 0.5,
                p95: 0.875,
            })),
        },
        WireResult::Result {
            session: SessionId(10),
            result: sample_verdict(Verdict::Clean),
        },
        WireResult::Result {
            session: SessionId(11),
            result: sample_verdict(Verdict::Detected {
                evidence: Evidence {
                    time: 321,
                    liar: NodeId(4),
                    strategy: ByzantineStrategy::Forge,
                },
            }),
        },
        WireResult::Result {
            session: SessionId(12),
            result: sample_verdict(Verdict::Detected {
                evidence: Evidence {
                    time: 654,
                    liar: NodeId(9),
                    strategy: ByzantineStrategy::Equivocate,
                },
            }),
        },
        WireResult::Result {
            session: SessionId(13),
            result: sample_verdict(Verdict::Tolerated),
        },
        WireResult::Result {
            session: SessionId(14),
            result: sample_verdict(Verdict::Corrupted),
        },
        WireResult::Error {
            session: SessionId(9),
            message: "unknown session #9".to_string(),
        },
    ];
    (events, results)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn corpus_hex() -> String {
    let (events, results) = corpus();
    let mut lines: Vec<String> = events
        .iter()
        .map(|e| hex(&encode_event(e).expect("encode event")))
        .collect();
    lines.extend(
        results
            .iter()
            .map(|r| hex(&encode_result(r).expect("encode result"))),
    );
    let mut joined = lines.join("\n");
    joined.push('\n');
    joined
}

#[test]
fn wire_v3_bytes_match_the_golden_file() {
    let actual = corpus_hex();
    if std::env::var_os("UPDATE_WIRE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden file");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file missing — run with UPDATE_WIRE_GOLDEN=1 to generate it, then commit it",
    );
    assert_eq!(
        actual, golden,
        "wire bytes changed: bump WIRE_VERSION and regenerate with UPDATE_WIRE_GOLDEN=1"
    );
}

#[test]
fn every_corpus_frame_round_trips() {
    let (events, results) = corpus();
    for event in &events {
        let decoded =
            decode_event(&encode_event(event).expect("encode event")).expect("decode event");
        assert_eq!(&decoded, event);
    }
    for result in &results {
        let decoded =
            decode_result(&encode_result(result).expect("encode result")).expect("decode result");
        assert_eq!(&decoded, result);
    }
}

#[test]
fn frames_carry_the_pinned_version_and_length_prefix() {
    let frame = encode_event(&WireEvent::Close {
        session: SessionId(3),
    })
    .expect("encode");
    let declared = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    assert_eq!(declared, frame.len() - 4);
    assert_eq!(frame[4], WIRE_VERSION);
    assert_eq!(frame[5], 0x04);
}

#[test]
fn malformed_frames_decode_to_precise_errors() {
    let frame = encode_event(&WireEvent::Close {
        session: SessionId(3),
    })
    .expect("encode");

    // Truncated mid-payload.
    assert_eq!(
        decode_event(&frame[..frame.len() - 1]),
        Err(WireError::Truncated)
    );
    // Declared length exceeds the buffer.
    assert_eq!(decode_event(&frame[..5]), Err(WireError::Truncated));
    // Bytes past the declared payload.
    let mut long = frame.clone();
    long.push(0);
    assert_eq!(decode_event(&long), Err(WireError::TrailingBytes));
    // A future version is refused, not misread.
    let mut vnext = frame.clone();
    vnext[4] = WIRE_VERSION + 1;
    assert_eq!(
        decode_event(&vnext),
        Err(WireError::UnknownVersion(WIRE_VERSION + 1))
    );
    // Result kinds are not client events and vice versa.
    let mut wrong_kind = frame.clone();
    wrong_kind[5] = 0x81;
    assert_eq!(decode_event(&wrong_kind), Err(WireError::UnknownKind(0x81)));
    assert_eq!(decode_result(&frame), Err(WireError::UnknownKind(0x04)));
    // An out-of-range enum tag inside the payload.
    let mut bad_tag = encode_event(&WireEvent::Event {
        session: SessionId(7),
        event: StepEvent::Departure(NodeId(6)),
    })
    .expect("encode");
    let tag_at = bad_tag.len() - 5;
    bad_tag[tag_at] = 0xee;
    assert_eq!(
        decode_event(&bad_tag),
        Err(WireError::UnknownTag {
            what: "step event",
            tag: 0xee
        })
    );
}

#[test]
#[cfg(target_pointer_width = "64")]
fn oversized_usize_fields_are_typed_errors_not_silent_wraps() {
    // A node id above u32::MAX must refuse to encode instead of wrapping
    // to a different node on the wire.
    let oversized = NodeId((u32::MAX as usize) + 1);
    let refused = encode_event(&WireEvent::Event {
        session: SessionId(1),
        event: StepEvent::Departure(oversized),
    });
    assert_eq!(refused, Err(WireError::OutOfRange { what: "node id" }));

    let refused = encode_event(&WireEvent::OpenExternal {
        session: SessionId(1),
        spec: AlgorithmSpec::Gathering,
        n: (u32::MAX as usize) + 2,
        horizon: None,
        slice_budget: None,
        inbox_capacity: None,
        overflow: OverflowPolicy::Shed,
    });
    assert_eq!(
        refused,
        Err(WireError::OutOfRange {
            what: "population size"
        })
    );
}

#[test]
fn oversized_error_messages_truncate_instead_of_panicking() {
    // Error text is advisory: a message past the str16 length field is
    // truncated at a char boundary, never a panic or a failed frame.
    let long = "é".repeat(40_000); // 80_000 bytes of two-byte chars
    let frame = encode_result(&WireResult::Error {
        session: SessionId(5),
        message: long.clone(),
    })
    .expect("long messages still encode");
    match decode_result(&frame).expect("decode truncated message") {
        WireResult::Error { session, message } => {
            assert_eq!(session, SessionId(5));
            assert!(message.len() <= usize::from(u16::MAX));
            assert!(!message.is_empty());
            assert!(
                long.starts_with(&message),
                "prefix survives, intact chars only"
            );
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
}

/// Every corpus frame, events first.
fn golden_frames() -> Vec<Vec<u8>> {
    let (events, results) = corpus();
    let mut frames: Vec<Vec<u8>> = events
        .iter()
        .map(|e| encode_event(e).expect("encode event"))
        .collect();
    frames.extend(
        results
            .iter()
            .map(|r| encode_result(r).expect("encode result")),
    );
    frames
}

fn bytes_from(words: &[u64]) -> Vec<u8> {
    words.iter().map(|w| w.to_le_bytes()[0]).collect()
}

/// Decodes `bytes` both ways. Neither decoder may panic; a frame that
/// decodes must re-encode to a frame that decodes to the same bytes
/// again (re-encoding is canonical: e.g. any nonzero flag byte becomes
/// `1`).
fn decodes_or_fails_typed(bytes: &[u8]) {
    if let Ok(event) = decode_event(bytes) {
        let canonical = encode_event(&event).expect("a decoded event re-encodes");
        let again = decode_event(&canonical).expect("a canonical event decodes");
        assert_eq!(encode_event(&again).expect("re-encode"), canonical);
    }
    if let Ok(result) = decode_result(bytes) {
        let canonical = encode_result(&result).expect("a decoded result re-encodes");
        let again = decode_result(&canonical).expect("a canonical result decodes");
        assert_eq!(encode_result(&again).expect("re-encode"), canonical);
    }
}

#[test]
fn every_truncation_of_a_golden_frame_is_truncated() {
    for frame in golden_frames() {
        for cut in 0..frame.len() {
            let cut = &frame[..cut];
            decodes_or_fails_typed(cut);
            assert_eq!(decode_event(cut), Err(WireError::Truncated), "{}", hex(cut));
            assert_eq!(
                decode_result(cut),
                Err(WireError::Truncated),
                "{}",
                hex(cut)
            );
        }
    }
}

#[test]
fn every_bit_flip_of_a_golden_frame_decodes_or_fails_typed() {
    for frame in golden_frames() {
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            decodes_or_fails_typed(&flipped);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_048))]

    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(words in prop::collection::vec(0u64..u64::MAX, 0..128)) {
        decodes_or_fails_typed(&bytes_from(&words));
    }

    #[test]
    fn arbitrary_payloads_behind_a_valid_header_decode_or_fail_typed(
        kind in 0usize..6,
        words in prop::collection::vec(0u64..u64::MAX, 0..128),
    ) {
        let body = bytes_from(&words);
        let kind = [0x01, 0x02, 0x03, 0x04, 0x81, 0x82][kind];
        let payload_len = u32::try_from(body.len() + 2).expect("short body");
        let mut frame = payload_len.to_le_bytes().to_vec();
        frame.extend_from_slice(&[WIRE_VERSION, kind]);
        frame.extend_from_slice(&body);
        decodes_or_fails_typed(&frame);
    }

    #[test]
    fn a_lying_length_prefix_is_truncated_or_trailing(
        pick in 0usize..1_000,
        declared in 0u64..(1 << 32),
    ) {
        let frames = golden_frames();
        let mut frame = frames[pick % frames.len()].clone();
        let actual = frame.len() as u64 - 4;
        let declared = u32::try_from(declared).expect("drawn below 2^32");
        frame[..4].copy_from_slice(&declared.to_le_bytes());
        let expected = match u64::from(declared).cmp(&actual) {
            std::cmp::Ordering::Greater => Err(WireError::Truncated),
            std::cmp::Ordering::Less => Err(WireError::TrailingBytes),
            std::cmp::Ordering::Equal => return Ok(()),
        };
        decodes_or_fails_typed(&frame);
        prop_assert_eq!(decode_event(&frame).map(|_| ()), expected.clone());
        prop_assert_eq!(decode_result(&frame).map(|_| ()), expected);
    }

    #[test]
    fn encoding_into_a_buffer_appends_exactly_the_frame(
        prefix in prop::collection::vec(0u64..u64::MAX, 0..48),
    ) {
        let prefix = bytes_from(&prefix);
        let (events, results) = corpus();
        for event in &events {
            let mut buf = prefix.clone();
            encode_event_into(event, &mut buf).expect("encode event");
            prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&buf[prefix.len()..], &encode_event(event).expect("encode")[..]);
        }
        for result in &results {
            let mut buf = prefix.clone();
            encode_result_into(result, &mut buf).expect("encode result");
            prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&buf[prefix.len()..], &encode_result(result).expect("encode")[..]);
        }
    }
}

#[test]
#[cfg(target_pointer_width = "64")]
fn a_refused_frame_leaves_the_buffer_exactly_as_it_was() {
    let oversized = NodeId((u32::MAX as usize) + 1);
    let prefix = encode_event(&WireEvent::Close {
        session: SessionId(3),
    })
    .expect("encode");

    // The second node fails after the header, session and first node
    // were already written.
    let mut buf = prefix.clone();
    let refused = encode_event_into(
        &WireEvent::Event {
            session: SessionId(1),
            event: StepEvent::Interaction(Interaction::new(NodeId(1), oversized)),
        },
        &mut buf,
    );
    assert_eq!(refused, Err(WireError::OutOfRange { what: "node id" }));
    assert_eq!(buf, prefix);

    let mut buf = prefix.clone();
    let refused = encode_result_into(
        &WireResult::Result {
            session: SessionId(1),
            result: sample_verdict(Verdict::Detected {
                evidence: Evidence {
                    time: 1,
                    liar: oversized,
                    strategy: ByzantineStrategy::Forge,
                },
            }),
        },
        &mut buf,
    );
    assert_eq!(refused, Err(WireError::OutOfRange { what: "node id" }));
    assert_eq!(buf, prefix);
}
