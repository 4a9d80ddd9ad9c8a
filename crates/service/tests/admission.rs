//! One admission check for sweeps and sessions, and no tenant frame that
//! can panic or hang the service.
//!
//! * A table of out-of-range scenario parameters: each is refused by
//!   [`Sweep`] with its admission message before any trial runs, and by
//!   [`SessionManager::open_scenario`] with
//!   [`ServiceError::InvalidScenario`] carrying the same message.
//! * One such frame through [`ServiceEndpoint::pump`] comes back as an
//!   `Error` frame.
//! * A property test sends arbitrary `OpenScenario` frames through
//!   `pump` and runs slices until nothing is runnable: every frame ends
//!   in exactly one `Result` or `Error` frame, and nothing panics.

use doda_core::byzantine::{ByzantineProfile, ByzantineStrategy};
use doda_core::fault::{CrashPolicy, FaultProfile};
use doda_service::encode_event;
use doda_service::prelude::*;
use doda_sim::{AlgorithmSpec, FaultedScenario, Scenario, Sweep};
use proptest::prelude::*;

/// Requests whose scenario parameters no constructor or stream accepts,
/// each with a node count its scenario's floor admits.
fn out_of_range() -> Vec<(Scenario, usize)> {
    let community = |communities, p_intra| Scenario::Community {
        communities,
        p_intra,
    };
    vec![
        (Scenario::IntervalConnected { t: 0 }, 8),
        (Scenario::IntervalConnected { t: 1 }, 8),
        (community(0, 0.9), 8),
        (community(4, 1.5), 16),
        (community(4, f64::NAN), 16),
        (Scenario::Zipf { exponent: f64::NAN }, 8),
        (Scenario::Zipf { exponent: -3.0 }, 8),
        (
            Scenario::Zipf {
                exponent: f64::INFINITY,
            },
            8,
        ),
        // Past the cap the hub takes almost every draw, so the redraw of
        // the second endpoint would spin for as long as it likes.
        (Scenario::Zipf { exponent: 50.0 }, 8),
        (Scenario::WeightedZipf { exponent: f64::NAN }, 8),
        (Scenario::WeightedZipf { exponent: 1e308 }, 8),
        (Scenario::WeightedZipf { exponent: 50.0 }, 8),
    ]
}

#[test]
fn out_of_range_parameters_are_refused_by_both_entry_points() {
    let mut manager = SessionManager::with_workers(1);
    for (id, (scenario, n)) in out_of_range().into_iter().enumerate() {
        let sweep = Sweep::scenario(AlgorithmSpec::Gathering, scenario)
            .n(n)
            .seed(1);
        let refusal = sweep
            .stream()
            .map(|_| ())
            .expect_err("the sweep must refuse")
            .to_string();
        assert!(
            refusal.contains("is out of range"),
            "{scenario:?}: {refusal}"
        );
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sweep.run()))
            .expect_err("run must panic");
        assert_eq!(
            panic.downcast_ref::<String>(),
            Some(&refusal),
            "{scenario:?}: run panics with the admission message"
        );
        match manager.open_scenario(
            SessionId(id as u64),
            AlgorithmSpec::Gathering,
            scenario,
            n,
            1,
            &SessionConfig::default(),
        ) {
            Err(ServiceError::InvalidScenario(message)) => {
                assert_eq!(message, refusal, "{scenario:?}")
            }
            other => panic!("{scenario:?}: expected InvalidScenario, got {other:?}"),
        }
    }
    assert!(manager.is_empty());
}

#[test]
fn an_out_of_range_frame_through_pump_gets_an_error_frame() {
    let (client_end, service_end) = Loopback::pair();
    let mut client = ServiceClient::new(client_end);
    let mut service = ServiceEndpoint::new(SessionManager::with_workers(1), service_end);
    let id = SessionId(3);
    client
        .open_scenario(
            id,
            AlgorithmSpec::Waiting,
            Scenario::Zipf { exponent: f64::NAN },
            8,
            1,
            &SessionConfig::default(),
        )
        .expect("send");
    service
        .run_until_idle()
        .expect("the endpoint keeps serving");
    match client.poll_result().expect("decode") {
        Some(WireResult::Error { session, message }) => {
            assert_eq!(session, id);
            assert!(message.contains("is out of range"), "{message}");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    assert_eq!(client.poll_result().expect("decode"), None);
}

/// Parameter values near every admission boundary, and beyond.
const F64_POOL: [f64; 16] = [
    0.0,
    -0.0,
    0.002,
    0.1,
    0.25,
    0.5,
    1.0,
    1.2,
    1.5,
    9.0,
    9.5,
    50.0,
    -3.0,
    1e308,
    f64::INFINITY,
    f64::NAN,
];

/// An `f64` from the pool, or from arbitrary bits one time in five.
fn any_f64() -> impl Strategy<Value = f64> {
    (0usize..F64_POOL.len() * 5 / 4, 0u64..u64::MAX).prop_map(|(pick, bits)| {
        F64_POOL
            .get(pick)
            .copied()
            .unwrap_or_else(|| f64::from_bits(bits))
    })
}

/// A count that is small most of the time and any `u32` otherwise.
fn any_count() -> impl Strategy<Value = usize> {
    (0u8..4, 0u32..u32::MAX).prop_map(|(small, bits)| {
        if small > 0 {
            bits as usize % 12
        } else {
            bits as usize
        }
    })
}

/// A fault rate: a valid one three times in four, so that whole plans
/// pass admission often enough to run.
fn any_rate() -> impl Strategy<Value = f64> {
    const RATES: [f64; 6] = [0.0, 0.002, 0.01, 0.05, 0.1, 0.25];
    (0usize..8, any_f64()).prop_map(|(pick, x)| RATES.get(pick).copied().unwrap_or(x))
}

/// Every spec tag of the wire, the two online specs twice as often.
fn any_spec() -> impl Strategy<Value = AlgorithmSpec> {
    (0u8..10, 0u64..u64::MAX).prop_map(|(tag, tau)| match tag {
        0 | 6 | 7 => AlgorithmSpec::Waiting,
        1 | 8 | 9 => AlgorithmSpec::Gathering,
        2 => AlgorithmSpec::WaitingGreedy {
            tau: (tau % 2 == 0).then_some(tau),
        },
        3 => AlgorithmSpec::SpanningTree,
        4 => AlgorithmSpec::FutureBroadcast,
        _ => AlgorithmSpec::OfflineOptimal,
    })
}

/// Every scenario tag of the wire, with arbitrary parameters.
fn any_scenario() -> impl Strategy<Value = Scenario> {
    (0u8..14, any_f64(), any_count(), any_f64()).prop_map(|(tag, x, count, p)| match tag {
        0 => Scenario::Uniform,
        1 => Scenario::Zipf { exponent: x },
        2 => Scenario::Community {
            communities: count,
            p_intra: p,
        },
        3 => Scenario::BodyArea,
        4 => Scenario::Vehicular,
        5 => Scenario::WeightedZipf { exponent: x },
        6 => Scenario::ObliviousTrap,
        7 => Scenario::AdaptiveIsolator,
        8 => Scenario::CrashAwareIsolator,
        9 => Scenario::RandomMatching,
        10 => Scenario::Tournament,
        11 => Scenario::IntervalConnected { t: count },
        12 => Scenario::RoundIsolator,
        _ => Scenario::TorusContact,
    })
}

/// No fault plan half the time, otherwise one with any rates and floor.
fn any_faults() -> impl Strategy<Value = Option<FaultProfile>> {
    (
        0u8..2,
        (any_rate(), any_rate(), any_rate(), any_rate()),
        0u8..2,
        any_count(),
    )
        .prop_map(
            |(some, (crash, departure, arrival, loss), policy, min_live)| {
                (some == 1).then_some(FaultProfile {
                    crash,
                    departure,
                    arrival,
                    loss,
                    crash_policy: if policy == 0 {
                        CrashPolicy::DatumLost
                    } else {
                        CrashPolicy::DatumRecoverable
                    },
                    min_live,
                })
            },
        )
}

/// No Byzantine plan most of the time, otherwise any strategy and
/// fraction.
fn any_byzantine() -> impl Strategy<Value = Option<ByzantineProfile>> {
    (0u8..4, any_f64(), 0u8..4).prop_map(|(some, fraction, strategy)| {
        (some == 0).then_some(ByzantineProfile {
            fraction,
            strategy: match strategy {
                0 => ByzantineStrategy::Forge,
                1 => ByzantineStrategy::Duplicate,
                2 => ByzantineStrategy::DropCarried,
                _ => ByzantineStrategy::Equivocate,
            },
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_024))]

    #[test]
    fn every_open_scenario_frame_ends_in_one_reply(
        spec in any_spec(),
        (base, faults, byzantine) in (any_scenario(), any_faults(), any_byzantine()),
        n in 0usize..65,
        seed in 0u64..u64::MAX,
        (horizon, budget) in (0u64..2_000, 0u64..600),
    ) {
        let (mut tenant, service_end) = Loopback::pair();
        let mut service = ServiceEndpoint::new(SessionManager::with_workers(1), service_end);
        let session = SessionId(seed);
        let frame = encode_event(&WireEvent::OpenScenario {
            session,
            spec,
            scenario: FaultedScenario { base, faults, byzantine },
            n,
            seed,
            horizon: Some(horizon),
            slice_budget: (budget > 0).then_some(budget),
        })
        .expect("encode");
        tenant.send(&frame).expect("loopback send");
        let mut client = ServiceClient::new(tenant);

        prop_assert!(service.run_until_idle().is_ok());
        prop_assert!(service.manager().is_empty(), "a session is still live");
        let reply = client.poll_result().expect("decode");
        prop_assert!(
            matches!(
                reply,
                Some(WireResult::Result { session: s, .. } | WireResult::Error { session: s, .. })
                    if s == session
            ),
            "expected one reply for {}, got {:?}",
            session,
            reply
        );
        prop_assert_eq!(client.poll_result().expect("decode"), None);
    }
}
