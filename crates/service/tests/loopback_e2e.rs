//! End-to-end over the in-memory loopback: the ISSUE's demo criterion.
//!
//! * ≥1000 concurrent scenario sessions driven over the wire produce
//!   results **byte-identical** to the equivalent standalone
//!   [`Sweep`] run per session;
//! * externally-fed sessions replayed over the wire match the same
//!   events replayed directly against the engine;
//! * backpressure is observable — the bounded inbox's high-water mark
//!   never exceeds its capacity, shed counts surface, and
//!   [`OverflowPolicy::Block`] refuses (then accepts after draining).

use doda_core::data::IdSet;
use doda_core::engine::{Engine, EngineConfig};
use doda_core::sequence::StepEvent;
use doda_core::{DiscardTransmissions, Interaction};
use doda_graph::NodeId;
use doda_service::prelude::*;
use doda_service::{encode_event, encode_result};
use doda_sim::{finish_trial, AlgorithmSpec, Scenario, Sweep, TrialResult};

/// The fleet: cycle specs and scenarios per tenant, vary seed and size.
fn fleet_shape(tenant: u64) -> (AlgorithmSpec, Scenario, usize, u64) {
    // Only the truly online specs can run as sessions; the rest need
    // knowledge of the future and are refused at open.
    let spec = if tenant % 2 == 0 {
        AlgorithmSpec::Waiting
    } else {
        AlgorithmSpec::Gathering
    };
    let scenario = match tenant % 4 {
        0 => Scenario::Uniform,
        1 => Scenario::Zipf { exponent: 1.2 },
        2 => Scenario::RandomMatching,
        _ => Scenario::Tournament,
    };
    let n = 8 + (tenant % 5) as usize;
    (spec, scenario, n, 1_000 + tenant)
}

fn reference_sweep(spec: AlgorithmSpec, scenario: Scenario, n: usize, seed: u64) -> TrialResult {
    let mut results = Sweep::scenario(spec, scenario)
        .n(n)
        .trials(1)
        .seed(seed)
        .run();
    assert_eq!(results.len(), 1);
    results.remove(0)
}

#[test]
fn thousand_sessions_over_loopback_match_standalone_sweeps() {
    const SESSIONS: u64 = 1_000;

    let (client_end, service_end) = Loopback::pair();
    let mut client = ServiceClient::new(client_end);
    let mut service = ServiceEndpoint::new(SessionManager::with_workers(4), service_end);

    // Small slice budget so sessions genuinely interleave: every session
    // is paused and resumed many times before it resolves.
    let config = SessionConfig {
        slice_budget: 64,
        ..SessionConfig::default()
    };
    for tenant in 0..SESSIONS {
        let (spec, scenario, n, seed) = fleet_shape(tenant);
        client
            .open_scenario(SessionId(tenant), spec, scenario, n, seed, &config)
            .expect("loopback send");
    }

    service.run_until_idle().expect("service run");
    assert!(service.manager().is_empty(), "every session retired");

    let mut seen = 0;
    while let Some(reply) = client.poll_result().expect("decode reply") {
        let (session, result) = match reply {
            WireResult::Result { session, result } => (session, result),
            WireResult::Error { session, message } => {
                panic!("session {session} failed: {message}")
            }
        };
        let (spec, scenario, n, seed) = fleet_shape(session.0);
        let reference = reference_sweep(spec, scenario, n, seed);
        assert_eq!(
            result, reference,
            "session {session} diverged from its standalone sweep"
        );
        seen += 1;
    }
    assert_eq!(seen, SESSIONS);
}

/// Completed results, then failures with their messages, in queue order.
type FleetOutcomes = (Vec<(SessionId, TrialResult)>, Vec<(SessionId, String)>);

/// Every result and every failure of a mixed fleet run to idle on
/// `workers` scheduler workers, in the order the manager queued them:
/// scenario-fed sessions, externally-fed sessions replaying scripted
/// events, and one external session killed mid-run by a feed that crashes
/// the same node twice.
fn mixed_fleet(workers: usize) -> FleetOutcomes {
    use doda_core::fault::CrashPolicy;
    const SESSIONS: u64 = 40;
    const EXTERNAL: usize = 6;

    let mut manager = SessionManager::with_workers(workers);
    let config = SessionConfig {
        slice_budget: 32,
        inbox_capacity: 1_024,
        ..SessionConfig::default()
    };
    for tenant in 0..SESSIONS {
        let (spec, scenario, n, seed) = fleet_shape(tenant);
        manager
            .open_scenario(SessionId(tenant), spec, scenario, n, seed, &config)
            .expect("open");
    }
    let crash = StepEvent::Crash {
        node: NodeId(3),
        policy: CrashPolicy::DatumLost,
    };
    for k in 0..=EXTERNAL {
        let id = SessionId(SESSIONS + k as u64);
        let n = 8 + k;
        // The last session runs Waiting: its first four rounds bring only
        // three nodes to the sink, so it is still live when, past its
        // first slice, its feed crashes node 3 a second time.
        let events = if k == EXTERNAL {
            let mut events = event_script(n, 4);
            events.extend([crash, crash]);
            events.extend(event_script(n, 2));
            events
        } else {
            event_script(n, 2 + k)
        };
        manager
            .open_external(id, fleet_shape(k as u64).0, n, &config)
            .expect("open external");
        for event in events {
            manager.push_event(id, event).expect("push");
        }
        manager.close(id).expect("close");
    }
    manager.run_until_idle();
    assert!(manager.is_empty(), "every session retired");

    let results = std::iter::from_fn(|| manager.poll_result()).collect();
    let failures = std::iter::from_fn(|| manager.poll_failure())
        .map(|(id, error)| (id, error.to_string()))
        .collect();
    (results, failures)
}

#[test]
fn worker_count_never_changes_results() {
    let (results, failures) = mixed_fleet(1);
    assert_eq!(results.len(), 46, "40 scenario-fed and 6 external results");
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert_eq!(failures[0].0, SessionId(46));
    assert!(
        failures[0].1.contains("killed by its event feed"),
        "{failures:?}"
    );
    for workers in [2, 3, 8] {
        let (pooled_results, pooled_failures) = mixed_fleet(workers);
        assert_eq!(pooled_results, results, "{workers} workers");
        assert_eq!(pooled_failures, failures, "{workers} workers");
    }
}

/// A deterministic little event script for externally-fed sessions.
fn event_script(n: usize, rounds: usize) -> Vec<StepEvent> {
    let mut events = Vec::new();
    for round in 0..rounds {
        for i in 1..n {
            let peer = (i + round) % n;
            if peer != i {
                events.push(StepEvent::Interaction(Interaction::new(
                    NodeId(i),
                    NodeId(peer),
                )));
            }
        }
    }
    events
}

#[test]
fn external_sessions_match_a_direct_engine_replay() {
    let n = 10;
    let spec = AlgorithmSpec::Gathering;
    let events = event_script(n, 6);

    // Reference: the same events straight through the engine, one run.
    let reference = {
        struct Replay(std::collections::VecDeque<StepEvent>);
        impl doda_core::sequence::InteractionSource for Replay {
            fn node_count(&self) -> usize {
                10
            }
            fn next_interaction(
                &mut self,
                t: doda_core::Time,
                view: &doda_core::sequence::AdversaryView<'_>,
            ) -> Option<Interaction> {
                while let Some(event) = self.next_event(t, view) {
                    if let StepEvent::Interaction(i) = event {
                        return Some(i);
                    }
                }
                None
            }
            fn next_event(
                &mut self,
                _t: doda_core::Time,
                _view: &doda_core::sequence::AdversaryView<'_>,
            ) -> Option<StepEvent> {
                self.0.pop_front()
            }
        }
        let horizon = doda_adversary::RandomizedAdversary::default_horizon(n) as u64;
        let mut engine = Engine::new();
        let mut algorithm = spec.instantiate_online().expect("online");
        let mut run =
            engine.begin_run(n, NodeId(0), IdSet::singleton, EngineConfig::sweep(horizon));
        let mut source = Replay(events.iter().copied().collect());
        while engine
            .step_for(
                &mut run,
                algorithm.as_mut(),
                &mut source,
                IdSet::singleton,
                u64::MAX,
                &mut DiscardTransmissions,
            )
            .expect("step")
            .can_continue()
        {}
        finish_trial(spec, &engine, engine.finish_run(&run), None)
    };

    // Same events over the wire, drip-fed in small bursts so the session
    // repeatedly drains, parks as AwaitingEvents, and resumes.
    let (client_end, service_end) = Loopback::pair();
    let mut client = ServiceClient::new(client_end);
    let mut service = ServiceEndpoint::new(SessionManager::with_workers(2), service_end);
    let id = SessionId(77);
    let config = SessionConfig {
        slice_budget: 4,
        inbox_capacity: 1_024,
        ..SessionConfig::default()
    };
    client
        .open_external(id, spec, n, &config)
        .expect("loopback send");
    for burst in events.chunks(7) {
        for event in burst {
            client.send_event(id, *event).expect("loopback send");
        }
        service.run_until_idle().expect("service run");
    }
    client.close(id).expect("loopback send");
    service.run_until_idle().expect("service run");

    let reply = client
        .poll_result()
        .expect("decode reply")
        .expect("one result frame");
    match reply {
        WireResult::Result { session, result } => {
            assert_eq!(session, id);
            assert_eq!(result, reference, "wire replay diverged from direct replay");
        }
        WireResult::Error { message, .. } => panic!("session failed: {message}"),
    }
}

#[test]
fn shed_policy_bounds_the_inbox_and_counts_drops() {
    let mut manager = SessionManager::with_workers(1);
    let id = SessionId(1);
    let config = SessionConfig {
        inbox_capacity: 8,
        overflow: OverflowPolicy::Shed,
        ..SessionConfig::default()
    };
    manager
        .open_external(id, AlgorithmSpec::Gathering, 6, &config)
        .expect("open");

    // Overfill without ever draining: pushes keep succeeding, the
    // overflow is shed and counted, and the bound is never exceeded.
    for k in 0..50u64 {
        let a = 1 + (k % 5) as usize;
        let event = StepEvent::Interaction(Interaction::new(NodeId(0), NodeId(a)));
        manager.push_event(id, event).expect("shed push succeeds");
        assert!(manager.inbox_len(id).unwrap() <= 8);
    }
    assert_eq!(manager.inbox_high_water(id), Some(8));
    assert_eq!(manager.session_shed_count(id), Some(42));
    assert_eq!(manager.shed_count(), 42);
}

#[test]
fn block_policy_refuses_until_the_scheduler_drains() {
    let mut manager = SessionManager::with_workers(1);
    let id = SessionId(2);
    let config = SessionConfig {
        inbox_capacity: 4,
        overflow: OverflowPolicy::Block,
        ..SessionConfig::default()
    };
    manager
        .open_external(id, AlgorithmSpec::Gathering, 6, &config)
        .expect("open");

    let event = |k: u64| {
        let a = 1 + (k % 5) as usize;
        StepEvent::Interaction(Interaction::new(NodeId(0), NodeId(a)))
    };
    for k in 0..4 {
        manager.push_event(id, event(k)).expect("below capacity");
    }
    let refused = manager.push_event(id, event(4));
    assert!(
        matches!(
            refused,
            Err(ServiceError::Backpressure {
                session,
                capacity: 4
            }) if session == id
        ),
        "full Block inbox must refuse, got {refused:?}"
    );

    // Draining the scheduler frees capacity; the retry lands.
    manager.run_slice();
    manager.push_event(id, event(4)).expect("after drain");
    assert!(manager.inbox_high_water(id).unwrap() <= 4);
}

#[test]
fn tenant_mistakes_come_back_as_error_frames_not_poison() {
    let (client_end, service_end) = Loopback::pair();
    let mut client = ServiceClient::new(client_end);
    let mut service = ServiceEndpoint::new(SessionManager::with_workers(1), service_end);
    let config = SessionConfig::default();

    // An offline-optimal spec needs the whole sequence up front; the
    // session tier must refuse it.
    client
        .open_scenario(
            SessionId(1),
            AlgorithmSpec::OfflineOptimal,
            Scenario::Uniform,
            8,
            1,
            &config,
        )
        .expect("send");
    // An event for a session that was never opened.
    client
        .send_event(
            SessionId(9),
            StepEvent::Interaction(Interaction::new(NodeId(0), NodeId(1))),
        )
        .expect("send");
    // A healthy session alongside the mistakes.
    client
        .open_scenario(
            SessionId(2),
            AlgorithmSpec::Gathering,
            Scenario::Uniform,
            8,
            5,
            &config,
        )
        .expect("send");

    service.run_until_idle().expect("mistakes must not poison");

    let mut errors = 0;
    let mut results = 0;
    while let Some(reply) = client.poll_result().expect("decode") {
        match reply {
            WireResult::Error { session, .. } => {
                assert!(session == SessionId(1) || session == SessionId(9));
                errors += 1;
            }
            WireResult::Result { session, .. } => {
                assert_eq!(session, SessionId(2));
                results += 1;
            }
        }
    }
    assert_eq!((errors, results), (2, 1));
}

#[test]
fn results_stream_out_before_the_fleet_finishes() {
    // One tiny session and one huge one: the tiny session's result must
    // be pollable while the huge one is still running.
    let mut manager = SessionManager::with_workers(2);
    let config = SessionConfig {
        slice_budget: 16,
        ..SessionConfig::default()
    };
    manager
        .open_scenario(
            SessionId(1),
            AlgorithmSpec::Gathering,
            Scenario::Uniform,
            8,
            3,
            &config,
        )
        .expect("open small");
    manager
        .open_scenario(
            SessionId(2),
            AlgorithmSpec::Waiting,
            Scenario::Uniform,
            256,
            3,
            &config,
        )
        .expect("open large");

    let mut small_done_while_large_live = false;
    while !manager.is_idle() {
        manager.run_slice();
        if manager.pending_results() > 0 && !manager.is_empty() {
            small_done_while_large_live = true;
            break;
        }
    }
    assert!(
        small_done_while_large_live,
        "completion must stream out while other sessions still run"
    );
    let (id, _) = manager.poll_result().expect("the small session's result");
    assert_eq!(id, SessionId(1));
}

#[test]
fn a_faulted_session_in_a_slice_never_discards_other_sessions_results() {
    // Session 1's feed is inconsistent (a second crash of the same node);
    // session 2 finishes in the same slice. The faulted session must be
    // killed and queued as a failure while session 2's result is queued —
    // not discarded, on one worker or two.
    for workers in [1, 2] {
        a_faulted_session_keeps_the_slices_other_result(workers);
    }
}

fn a_faulted_session_keeps_the_slices_other_result(workers: usize) {
    use doda_core::fault::CrashPolicy;

    let mut manager = SessionManager::with_workers(workers);
    let external = SessionId(1);
    let scenario = SessionId(2);
    manager
        .open_external(
            external,
            AlgorithmSpec::Gathering,
            8,
            &SessionConfig::default(),
        )
        .expect("open external");
    manager
        .open_scenario(
            scenario,
            AlgorithmSpec::Gathering,
            Scenario::Uniform,
            8,
            3,
            &SessionConfig {
                slice_budget: u64::MAX,
                ..SessionConfig::default()
            },
        )
        .expect("open scenario");

    let crash = StepEvent::Crash {
        node: NodeId(3),
        policy: CrashPolicy::DatumLost,
    };
    manager
        .push_event(external, crash)
        .expect("first crash is valid");
    manager
        .push_event(external, crash)
        .expect("push-time checks cannot see liveness; the engine catches this at drain");

    let stepped = manager.run_slice();
    assert_eq!(stepped, 2);
    assert!(manager.is_empty(), "both sessions retired in one slice");

    let (failed, error) = manager.poll_failure().expect("the faulted session's error");
    assert_eq!(failed, external);
    assert!(
        matches!(error, ServiceError::SessionFault { session, .. } if session == external),
        "engine rejection must be attributed to its session, got {error:?}"
    );
    let (done, result) = manager.poll_result().expect("the healthy session's result");
    assert_eq!(done, scenario);
    assert!(result.completion.terminated());
    assert!(manager.poll_failure().is_none());
    assert!(manager.poll_result().is_none());
}

#[test]
fn a_poisonous_tenant_cannot_wedge_the_endpoint() {
    use doda_core::fault::CrashPolicy;

    let (client_end, service_end) = Loopback::pair();
    let mut client = ServiceClient::new(client_end);
    let mut service = ServiceEndpoint::new(SessionManager::with_workers(2), service_end);
    let config = SessionConfig::default();

    let attacker = SessionId(7);
    let victim = SessionId(8);
    client
        .open_external(attacker, AlgorithmSpec::Gathering, 8, &config)
        .expect("send");
    client
        .open_scenario(
            victim,
            AlgorithmSpec::Gathering,
            Scenario::Uniform,
            8,
            5,
            &config,
        )
        .expect("send");

    // Well-formed frames, hostile content: a crash of the sink and a
    // crash of a node outside the population are refused at push time...
    client
        .send_event(
            attacker,
            StepEvent::Crash {
                node: NodeId(0),
                policy: CrashPolicy::DatumLost,
            },
        )
        .expect("send");
    client
        .send_event(
            attacker,
            StepEvent::Crash {
                node: NodeId(99),
                policy: CrashPolicy::DatumLost,
            },
        )
        .expect("send");
    // ...while a double crash only liveness history can catch reaches the
    // engine, which kills the attacker's session — and nothing else.
    for _ in 0..2 {
        client
            .send_event(
                attacker,
                StepEvent::Crash {
                    node: NodeId(3),
                    policy: CrashPolicy::DatumLost,
                },
            )
            .expect("send");
    }

    service
        .run_until_idle()
        .expect("a tenant's bad events must never error the endpoint");
    assert!(
        service.manager().is_empty(),
        "attacker killed, victim finished — nothing left running"
    );

    let mut errors = Vec::new();
    let mut results = Vec::new();
    while let Some(reply) = client.poll_result().expect("decode") {
        match reply {
            WireResult::Error { session, message } => errors.push((session, message)),
            WireResult::Result { session, .. } => results.push(session),
        }
    }
    assert_eq!(
        results,
        vec![victim],
        "the victim's result still streams out"
    );
    assert_eq!(errors.len(), 3, "two refused pushes + one killed session");
    assert!(errors.iter().all(|(session, _)| *session == attacker));
    assert!(
        errors.iter().any(|(_, m)| m.contains("killed")),
        "the kill must be reported to the tenant: {errors:?}"
    );

    // The endpoint keeps serving new tenants afterwards.
    let late = SessionId(9);
    client
        .open_scenario(
            late,
            AlgorithmSpec::Waiting,
            Scenario::Uniform,
            8,
            11,
            &config,
        )
        .expect("send");
    service.run_until_idle().expect("service still serves");
    match client.poll_result().expect("decode").expect("late result") {
        WireResult::Result { session, .. } => assert_eq!(session, late),
        WireResult::Error { message, .. } => panic!("late session failed: {message}"),
    }
}

#[test]
fn an_external_open_over_zero_nodes_is_refused_not_fatal() {
    // A decoded `OpenExternal { n: 0 }` used to reach the engine's state
    // reset, whose `n > 0` assertion took the whole endpoint down.
    let (client_end, service_end) = Loopback::pair();
    let mut client = ServiceClient::new(client_end);
    let mut service = ServiceEndpoint::new(SessionManager::with_workers(1), service_end);
    let config = SessionConfig::default();
    client
        .open_external(SessionId(1), AlgorithmSpec::Waiting, 0, &config)
        .expect("send");
    // The smallest valid population: the sink alone.
    client
        .open_external(SessionId(3), AlgorithmSpec::Waiting, 1, &config)
        .expect("send");
    client.close(SessionId(3)).expect("send");
    client
        .open_scenario(
            SessionId(2),
            AlgorithmSpec::Gathering,
            Scenario::Uniform,
            8,
            5,
            &config,
        )
        .expect("send");

    service
        .run_until_idle()
        .expect("a zero-node open must not take the endpoint down");

    let mut replies = Vec::new();
    while let Some(reply) = client.poll_result().expect("decode") {
        replies.push(reply);
    }
    assert_eq!(replies.len(), 3, "{replies:?}");
    for reply in replies {
        match reply {
            WireResult::Error { session, message } => {
                assert_eq!(session, SessionId(1));
                assert!(message.contains("zero nodes"), "{message}");
            }
            WireResult::Result { session, .. } => {
                assert!(session == SessionId(2) || session == SessionId(3));
            }
        }
    }
}

#[test]
fn scenario_admission_refuses_with_typed_errors() {
    use doda_core::byzantine::ByzantineProfile;

    let mut manager = SessionManager::with_workers(1);
    let config = SessionConfig::default();
    let greedy = AlgorithmSpec::WaitingGreedy { tau: None };
    let mut open = |id, spec, scenario: doda_sim::FaultedScenario, n| {
        manager.open_scenario(SessionId(id), spec, scenario, n, 1, &config)
    };

    // A spec the sweep would materialise has no incremental form.
    assert!(matches!(
        open(1, greedy, Scenario::Uniform.into(), 8),
        Err(ServiceError::UnsupportedSpec { .. })
    ));
    // Oracles over an adaptive stream are refused before anything else.
    assert!(matches!(
        open(2, greedy, Scenario::AdaptiveIsolator.into(), 8),
        Err(ServiceError::InvalidScenario(_))
    ));
    // Sessions cannot audit the data plane.
    let forged = Scenario::Uniform.with_byzantine(ByzantineProfile::forge(0.1));
    assert!(matches!(
        open(3, AlgorithmSpec::Gathering, forged, 8),
        Err(ServiceError::InvalidScenario(_))
    ));
    // The oblivious trap needs at least 4 nodes.
    assert!(matches!(
        open(
            4,
            AlgorithmSpec::Gathering,
            Scenario::ObliviousTrap.into(),
            3
        ),
        Err(ServiceError::InvalidScenario(_))
    ));
    assert!(open(
        5,
        AlgorithmSpec::Gathering,
        Scenario::ObliviousTrap.into(),
        4
    )
    .is_ok());
}

/// Malformed copies of the valid `frame`, one per way a broken peer can
/// get framing wrong, each with the error it must decode to.
fn malformed_variants(frame: &[u8]) -> Vec<(Vec<u8>, WireError)> {
    let edited = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut bad = frame.to_vec();
        edit(&mut bad);
        bad
    };
    let declared = u32::from_le_bytes(frame[..4].try_into().expect("prefix"));
    vec![
        (
            edited(&|bad| {
                bad.pop();
            }),
            WireError::Truncated,
        ),
        (edited(&|bad| bad.push(0)), WireError::TrailingBytes),
        (
            edited(&|bad| bad[4] = WIRE_VERSION + 1),
            WireError::UnknownVersion(WIRE_VERSION + 1),
        ),
        (
            edited(&|bad| bad[..4].copy_from_slice(&(declared + 9).to_le_bytes())),
            WireError::Truncated,
        ),
        (edited(&|bad| bad[5] = 0x7f), WireError::UnknownKind(0x7f)),
    ]
}

fn scenario_open(id: u64) -> WireEvent {
    let (spec, scenario, n, seed) = fleet_shape(id);
    WireEvent::OpenScenario {
        session: SessionId(id),
        spec,
        scenario: scenario.into(),
        n,
        seed,
        horizon: None,
        slice_budget: Some(16),
    }
}

#[test]
fn a_malformed_frame_fails_alone_and_the_frames_after_it_apply_next_pump() {
    let (mut tenant_end, service_end) = Loopback::pair();
    let mut service = ServiceEndpoint::new(SessionManager::with_workers(2), service_end);

    // valid, malformed, valid, valid, malformed, ... valid: each malformed
    // frame sits between two valid ones, all queued before the first pump.
    let never_opened = encode_event(&scenario_open(100)).expect("encode");
    let malformed = malformed_variants(&never_opened);
    let mut next_id = 0;
    let mut send_open = |end: &mut Loopback| {
        let frame = encode_event(&scenario_open(next_id)).expect("encode");
        end.send(&frame).expect("loopback send");
        next_id += 1;
    };
    send_open(&mut tenant_end);
    for (bad, _) in &malformed {
        tenant_end.send(bad).expect("loopback send");
        send_open(&mut tenant_end);
        send_open(&mut tenant_end);
    }
    let opened = next_id;
    let mut client = ServiceClient::new(tenant_end);

    let mut replies = Vec::new();
    let poll = |client: &mut ServiceClient<Loopback>, replies: &mut Vec<WireResult>| {
        while let Some(reply) = client.poll_result().expect("decode reply") {
            replies.push(reply);
        }
    };
    for (k, (_, expected)) in malformed.iter().enumerate() {
        match service.pump() {
            Err(ServiceError::Wire(error)) => assert_eq!(&error, expected, "malformed frame {k}"),
            other => panic!("malformed frame {k}: expected {expected:?}, got {other:?}"),
        }
        poll(&mut client, &mut replies);
        // Exactly the valid frames ahead of the malformed one are applied:
        // the first open, then two more per earlier malformed frame.
        assert_eq!(
            service.manager().len() + replies.len(),
            1 + 2 * k,
            "sessions opened before malformed frame {k}"
        );
    }
    service
        .run_until_idle()
        .expect("the rest of the queue is valid");
    poll(&mut client, &mut replies);

    assert_eq!(replies.len() as u64, opened, "{replies:?}");
    for reply in &replies {
        let WireResult::Result { session, .. } = reply else {
            panic!("unexpected reply {reply:?}");
        };
        let (spec, scenario, n, seed) = fleet_shape(session.0);
        let reference = WireResult::Result {
            session: *session,
            result: reference_sweep(spec, scenario, n, seed),
        };
        assert_eq!(
            encode_result(reply).expect("encode"),
            encode_result(&reference).expect("encode"),
            "session {session} differs from its sweep's trial 0"
        );
    }
}

#[test]
fn a_reply_that_fails_to_decode_is_consumed_and_the_next_one_follows() {
    let (client_end, mut service_end) = Loopback::pair();
    let mut client = ServiceClient::new(client_end);

    let reply = |id: u64| {
        let (spec, scenario, n, seed) = fleet_shape(id);
        WireResult::Result {
            session: SessionId(id),
            result: reference_sweep(spec, scenario, n, seed),
        }
    };
    let malformed = malformed_variants(&encode_result(&reply(100)).expect("encode"));
    service_end
        .send(&encode_result(&reply(0)).expect("encode"))
        .expect("loopback send");
    for (k, (bad, _)) in malformed.iter().enumerate() {
        service_end.send(bad).expect("loopback send");
        service_end
            .send(&encode_result(&reply(k as u64 + 1)).expect("encode"))
            .expect("loopback send");
    }

    assert_eq!(client.poll_result().expect("decode"), Some(reply(0)));
    for (k, (_, expected)) in malformed.iter().enumerate() {
        match client.poll_result() {
            Err(ServiceError::Wire(error)) => assert_eq!(&error, expected, "malformed reply {k}"),
            other => panic!("malformed reply {k}: expected {expected:?}, got {other:?}"),
        }
        assert_eq!(
            client.poll_result().expect("decode"),
            Some(reply(k as u64 + 1))
        );
    }
    assert_eq!(client.poll_result().expect("decode"), None);
}
