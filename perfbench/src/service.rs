//! The `service-mixed` workload: an open loop of independent tenants
//! driving `ServiceClient` → `Loopback` → `ServiceEndpoint`, closed loops
//! of the same mix that measure the service's capacity, and, in traced
//! runs, a backpressure probe.
//!
//! Tenants arrive at a fixed offered rate whether or not earlier ones are
//! done (an open loop), and each session is timed from when it was due to
//! when its result frame is polled, so a stall also delays the sessions
//! queued behind it. Nine in ten tenants open a scenario-fed session; the
//! rest open an externally-fed one and stream seeded uniform interactions
//! as `Event` frames, one burst no larger than the inbox per service turn,
//! until their result arrives (or their stream ends, when they send
//! `Close`). While the service keeps up, an open loop completes sessions
//! at the rate it offers them, so the capacity comes from closed loops, in
//! which each of a fixed number of clients opens its next session as soon
//! as its previous one resolves.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use doda_adversary::RandomizedAdversary;
use doda_core::data::IdSet;
use doda_core::engine::{DiscardTransmissions, Engine, EngineConfig};
use doda_core::sequence::{AdversaryView, InteractionSource, StepEvent};
use doda_graph::NodeId;
use doda_service::{
    decode_event, decode_result, encode_event, encode_result, Loopback, OverflowPolicy,
    ServiceClient, ServiceEndpoint, ServiceError, SessionConfig, SessionId, SessionManager,
    WireEvent, WireResult,
};
use doda_sim::{finish_trial, AlgorithmSpec, Scenario, Sweep, TrialResult};
use doda_stats::rng::SeedSequence;
use doda_workloads::{UniformWorkload, Workload};

use crate::trace::{span, Prefetch, Trace};
use crate::{Gate, Scale};

/// Population of every session of the mix.
pub const N: usize = 64;
/// Offered sessions per second at full and probe scale.
const RATE: f64 = 500.0;
/// Offered sessions per second at tiny scale.
const TINY_RATE: f64 = 200.0;
/// One tenant in this many feeds its session externally. A fixed pattern
/// rather than a random draw keeps external sessions from clustering,
/// which would swing the latency of the sessions sharing those turns.
const EXTERNAL_EVERY: u64 = 10;
/// Horizon of externally-fed sessions and length of their tenants'
/// streams: twice the sweep default, so that no external session stops
/// short of aggregating.
const EXTERNAL_HORIZON: u64 = 16 * (N * N) as u64;
/// Every external session, and every this-many-th session, is checked
/// against its equivalent `Sweep`.
const SAMPLE_EVERY: u64 = 8;
/// Sessions of the closed warm-up batch in each set-up.
const SETUP_SESSIONS: u64 = 64;
/// How many times a run sets up, to report the median set-up time. A
/// set-up takes about 50 ms and varies by half from one to the next.
const SETUP_REPS: usize = 21;
/// Sessions and clients of each closed capacity loop at full and probe
/// scale: each client runs several sessions in turn.
const CAPACITY: (u64, usize) = (1_500, 200);
/// Sessions and clients of each closed capacity loop at tiny scale.
const TINY_CAPACITY: (u64, usize) = (40, 8);
/// Closed capacity loops per run; the run reports their median rate,
/// which the first loop on a fresh endpoint, often the slowest, cannot
/// move.
const CAPACITY_REPS: u64 = 5;
/// How long a loop waits for outstanding results after its last arrival.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);
/// Scenario sessions the traced run replays through `Engine::step_for`.
const STEP_FOR_REPLAYS: usize = 32;
/// Frames encoded and decoded by the wire probe, per frame kind.
const WIRE_FRAMES: usize = 1 << 16;
/// Sessions of the backpressure probe.
const PRESSURE_SESSIONS: u64 = 4;
/// Population of the probe's sessions: large enough that a session rarely
/// aggregates within the probe, so its producer keeps producing.
const PRESSURE_N: usize = 512;
/// Events per second each probe producer offers: a small share of what
/// the loop can carry, so that only long service turns leave a backlog.
/// A producer that offers more than the loop carries keeps every inbox
/// full, and the refused events it resends slow the loop further.
const PRESSURE_RATE: f64 = 100_000.0;
/// Slice budget of the probe's sessions: half the inbox, so that service
/// turns longer than this many events take to arrive fill the inbox.
const PRESSURE_BUDGET: u64 = 128;

const WARM_LABEL: u64 = 0x3A7;
const CAPACITY_LABEL: u64 = 0xCA9;
const PRESSURE_LABEL: u64 = 0xB10C;

/// One tenant of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tenant {
    /// Its session id.
    pub id: u64,
    /// When its session is due, after the loop starts.
    pub due: Duration,
    /// The session's sweep-compatible seed.
    pub seed: u64,
    /// Whether the tenant feeds the session itself.
    pub external: bool,
}

/// Offered rate and length of the open loop at `scale`.
pub fn offered(scale: Scale, seconds: f64) -> (f64, f64) {
    match scale {
        Scale::Full => (RATE, seconds),
        Scale::Probe => (RATE, seconds.min(1.0)),
        Scale::Tiny => (TINY_RATE, seconds.min(0.25)),
    }
}

/// `count` tenants due `spacing` apart (all at once for a zero spacing),
/// every [`EXTERNAL_EVERY`]th one external, with session seeds drawn from
/// `seeds`. Ids start at `first_id`.
pub fn plan(seeds: SeedSequence, count: u64, spacing: Duration, first_id: u64) -> Vec<Tenant> {
    (0..count)
        .map(|i| Tenant {
            id: first_id + i,
            due: spacing * u32::try_from(i).expect("a plan holds fewer than 2^32 tenants"),
            seed: seeds.seed(i),
            external: i % EXTERNAL_EVERY == EXTERNAL_EVERY - 1,
        })
        .collect()
}

/// A client wired to an endpoint over an in-memory loopback.
#[derive(Debug)]
pub struct Service {
    client: ServiceClient<Loopback>,
    endpoint: ServiceEndpoint<Loopback>,
}

impl Service {
    /// A fresh endpoint with `workers` scheduler workers.
    pub fn new(workers: usize) -> Self {
        let (client_end, service_end) = Loopback::pair();
        Service {
            client: ServiceClient::new(client_end),
            endpoint: ServiceEndpoint::new(SessionManager::with_workers(workers), service_end),
        }
    }
}

/// The configuration tenants open their sessions with.
fn session_config(external: bool) -> SessionConfig {
    if external {
        SessionConfig {
            overflow: OverflowPolicy::Block,
            horizon: Some(EXTERNAL_HORIZON),
            ..SessionConfig::default()
        }
    } else {
        SessionConfig::default()
    }
}

/// What one drive of a loop observed.
#[derive(Debug, Default)]
pub struct Drive {
    /// Sessions in the plan.
    pub attempted: u64,
    /// Due-to-result latency of every completed session, in ms.
    pub latencies_ms: Vec<f64>,
    /// The same latencies, by the half second in which each session was
    /// due.
    pub windows_ms: Vec<Vec<f64>>,
    /// The latencies of the externally-fed sessions alone.
    pub external_ms: Vec<f64>,
    /// Seconds from the loop's start to its last result.
    pub elapsed_s: f64,
    /// Seconds from the loop's start to the opening of its last session.
    pub last_open_s: f64,
    /// Error frames, external sessions that did not aggregate, and lost
    /// sessions.
    pub failures: Vec<String>,
    /// How late the generator opened its latest session, in ms.
    pub lag_ms_max: f64,
    /// Duration of every service turn that stepped a session, in ms.
    pub pump_ms: Vec<f64>,
    /// Sessions stepped by each of those turns.
    pub stepped: Vec<usize>,
    /// Events sent to external sessions that finished before using them.
    pub events_after_finish: u64,
    /// Results of the sampled sessions, for the identity check.
    pub sampled: Vec<(Tenant, TrialResult)>,
}

/// An external tenant's feed.
struct Feed {
    source: Box<dyn InteractionSource + Send>,
    sent: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The view every generated stream is drawn against: only the sink is
/// read from it.
fn view(owns: &[bool]) -> AdversaryView<'_> {
    AdversaryView {
        owns_data: owns,
        sink: NodeId(0),
    }
}

/// Drives `plan` through the service until every session resolved or the
/// drain limit passed. With `clients` `None` each tenant opens when it is
/// due (an open loop); with `Some(c)`, `c` sessions are kept in flight and
/// the next tenant opens as soon as one resolves (a closed loop, in which
/// due times, latencies and lag mean nothing). With a trace, client calls
/// and service turns are recorded as spans.
///
/// # Errors
///
/// A client call or service turn that fails outright (an undecodable
/// frame), which no tenant input here should cause.
pub fn drive(
    service: &mut Service,
    plan: &[Tenant],
    clients: Option<usize>,
    trace: Option<&Trace>,
) -> Result<Drive, String> {
    let first_id = plan.first().map_or(0, |t| t.id);
    let index_of = |session: SessionId| -> usize {
        usize::try_from(session.0 - first_id).expect("session ids index the plan")
    };
    let owns = vec![true; N];
    let view = view(&owns);
    let scenario_config = session_config(false);
    let external_config = session_config(true);
    let burst = external_config.inbox_capacity as u64;

    let mut out = Drive {
        attempted: plan.len() as u64,
        ..Drive::default()
    };
    let mut feeds: Vec<Option<Feed>> = plan.iter().map(|_| None).collect();
    let mut feeding: Vec<usize> = Vec::new();
    let mut resolved = vec![false; plan.len()];
    let mut unresolved = plan.len();
    let mut next = 0;
    let mut turns = 0u64;
    let last_due = plan.last().map_or(Duration::ZERO, |t| t.due);
    let start = Instant::now();
    while unresolved > 0 {
        let now = start.elapsed();
        if now > last_due + DRAIN_LIMIT {
            break;
        }
        while next < plan.len()
            && clients.map_or(plan[next].due <= now, |c| {
                next - (plan.len() - unresolved) < c
            })
        {
            let tenant = plan[next];
            out.lag_ms_max = out.lag_ms_max.max(ms(now.saturating_sub(tenant.due)));
            out.last_open_s = now.as_secs_f64();
            let session = SessionId(tenant.id);
            span(trace, "tenant.open", tenant.id, || {
                if tenant.external {
                    service.client.open_external(
                        session,
                        AlgorithmSpec::Waiting,
                        N,
                        &external_config,
                    )
                } else {
                    service.client.open_scenario(
                        session,
                        AlgorithmSpec::Waiting,
                        Scenario::Uniform,
                        N,
                        tenant.seed,
                        &scenario_config,
                    )
                }
            })
            .map_err(|e| e.to_string())?;
            if tenant.external {
                feeds[next] = Some(Feed {
                    source: Scenario::Uniform.source(N, SeedSequence::new(tenant.seed).seed(0)),
                    sent: 0,
                });
                feeding.push(next);
            }
            next += 1;
        }

        for &index in &feeding {
            let tenant = plan[index];
            let feed = feeds[index].as_mut().expect("feeding tenants have a feed");
            let count = burst.min(EXTERNAL_HORIZON - feed.sent);
            span(trace, "tenant.feed", tenant.id, || {
                for t in feed.sent..feed.sent + count {
                    let interaction = feed
                        .source
                        .next_interaction(t, &view)
                        .expect("uniform streams are infinite");
                    service
                        .client
                        .send_event(SessionId(tenant.id), StepEvent::Interaction(interaction))?;
                }
                feed.sent += count;
                if feed.sent == EXTERNAL_HORIZON {
                    service.client.close(SessionId(tenant.id))?;
                }
                Ok::<(), ServiceError>(())
            })
            .map_err(|e| e.to_string())?;
        }
        feeding.retain(|&index| {
            feeds[index]
                .as_ref()
                .is_some_and(|f| f.sent < EXTERNAL_HORIZON)
        });

        let turn_start = Instant::now();
        let stepped = span(trace, "service.pump", turns, || service.endpoint.pump())
            .map_err(|e| e.to_string())?;
        if stepped > 0 {
            out.pump_ms.push(ms(turn_start.elapsed()));
            out.stepped.push(stepped);
        }

        while let Some(reply) = span(trace, "tenant.poll", turns, || service.client.poll_result())
            .map_err(|e| e.to_string())?
        {
            let done = start.elapsed();
            let (session, result) = match reply {
                WireResult::Result { session, result } => (session, Some(result)),
                WireResult::Error { session, message } => {
                    out.failures.push(format!("session {session}: {message}"));
                    (session, None)
                }
            };
            let index = index_of(session);
            if resolved[index] {
                continue;
            }
            resolved[index] = true;
            unresolved -= 1;
            feeding.retain(|&i| i != index);
            out.elapsed_s = done.as_secs_f64();
            let Some(result) = result else { continue };
            let tenant = plan[index];
            out.latencies_ms.push(ms(done - tenant.due));
            let window = usize::try_from(tenant.due.as_millis() / 500).expect("runs last seconds");
            if out.windows_ms.len() <= window {
                out.windows_ms.resize_with(window + 1, Vec::new);
            }
            out.windows_ms[window].push(ms(done - tenant.due));
            if tenant.external {
                out.external_ms.push(ms(done - tenant.due));
            }
            if let Some(feed) = &feeds[index] {
                out.events_after_finish += feed.sent - result.interactions_processed;
                if !(result.terminated() && result.data_conserved) {
                    out.failures.push(format!(
                        "external session {session} ended without aggregating its data"
                    ));
                }
            }
            if tenant.external || tenant.id.is_multiple_of(SAMPLE_EVERY) {
                out.sampled.push((tenant, result));
            }
        }
        turns += 1;

        if stepped == 0 && feeding.is_empty() && unresolved > 0 {
            // Idle until the next arrival: sleep most of the gap, then
            // spin, so sessions open on time.
            let wait = match plan.get(next) {
                Some(tenant) => tenant.due.saturating_sub(start.elapsed()),
                None => Duration::from_millis(1),
            };
            span(trace, "loop.idle", turns, || {
                let until = Instant::now() + wait;
                if let Some(sleep) = wait.checked_sub(Duration::from_micros(100)) {
                    std::thread::sleep(sleep);
                }
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    }
    if unresolved > 0 {
        out.failures
            .push(format!("{unresolved} sessions returned no result"));
    }
    Ok(out)
}

/// The equivalent sweep's trial 0 for a tenant's session.
fn reference(tenant: &Tenant) -> TrialResult {
    let sweep = Sweep::scenario(AlgorithmSpec::Waiting, Scenario::Uniform)
        .n(N)
        .seed(tenant.seed);
    let sweep = if tenant.external {
        sweep.horizon(Some(EXTERNAL_HORIZON as usize))
    } else {
        sweep
    };
    sweep.run().remove(0)
}

fn result_frame(tenant: &Tenant, result: TrialResult) -> Result<Vec<u8>, String> {
    encode_result(&WireResult::Result {
        session: SessionId(tenant.id),
        result,
    })
    .map_err(|e| e.to_string())
}

/// Checks a drive: its failures, and that every sampled session's result
/// frame is byte-identical to the frame of its equivalent sweep's trial 0.
pub fn gate(drive: &Drive) -> Result<Gate, String> {
    let mut gate = Gate {
        checked: drive.attempted,
        failures: drive.failures.clone(),
    };
    for (tenant, result) in &drive.sampled {
        let got = result_frame(tenant, result.clone())?;
        let expected = result_frame(tenant, reference(tenant))?;
        gate.check(got == expected, || {
            format!(
                "session {} differs from trial 0 of its equivalent sweep",
                tenant.id
            )
        });
    }
    Ok(gate)
}

/// The untraced measurement of the service workload.
#[derive(Debug)]
pub struct Measure {
    /// Seconds per set-up: endpoint and loopback creation plus a closed
    /// warm-up batch.
    pub setup_s: Vec<f64>,
    /// The warm-up batches' drives.
    pub warm_ups: Vec<Drive>,
    /// The open loop's drive.
    pub drive: Drive,
    /// The closed capacity loops' drives.
    pub capacity: Vec<Drive>,
    /// Sessions per second each capacity loop completed while every
    /// client was busy: those resolved by the time the last session
    /// opened, over that time.
    pub capacity_per_s: Vec<f64>,
}

/// Sets up [`SETUP_REPS`] times, then, on the last endpoint, drives the
/// open loop and after it [`CAPACITY_REPS`] closed capacity loops.
///
/// # Errors
///
/// See [`drive`].
pub fn measure(seed: u64, scale: Scale, seconds: f64, workers: usize) -> Result<Measure, String> {
    let seeds = SeedSequence::new(seed);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut warm_ups = Vec::with_capacity(SETUP_REPS);
    let mut service = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let mut fresh = Service::new(workers);
        let batch = plan(seeds.child(WARM_LABEL), SETUP_SESSIONS, Duration::ZERO, 0);
        warm_ups.push(drive(&mut fresh, &batch, None, None)?);
        setup_s.push(start.elapsed().as_secs_f64());
        service = Some(fresh);
    }
    let mut service = service.expect("set up at least once");
    let (rate, seconds) = offered(scale, seconds);
    let open = plan(
        seeds,
        (rate * seconds).round() as u64,
        Duration::from_secs_f64(1.0 / rate),
        SETUP_SESSIONS,
    );
    let open_drive = drive(&mut service, &open, None, None)?;

    let (sessions, clients) = match scale {
        Scale::Full | Scale::Probe => CAPACITY,
        Scale::Tiny => TINY_CAPACITY,
    };
    let mut first_id = SETUP_SESSIONS + open.len() as u64;
    let mut capacity = Vec::new();
    let mut capacity_per_s = Vec::new();
    for rep in 0..CAPACITY_REPS {
        let batch = plan(
            seeds.child(CAPACITY_LABEL + rep),
            sessions,
            Duration::ZERO,
            first_id,
        );
        first_id += sessions;
        let closed = drive(&mut service, &batch, Some(clients), None)?;
        // When the last session opens, all but the sessions then in
        // flight have resolved.
        let resolved = sessions - clients as u64;
        capacity_per_s.push(resolved as f64 / closed.last_open_s.max(f64::MIN_POSITIVE));
        capacity.push(closed);
    }
    Ok(Measure {
        setup_s,
        warm_ups,
        drive: open_drive,
        capacity,
        capacity_per_s,
    })
}

/// The traced run of the service workload.
#[derive(Debug)]
pub struct Traced {
    /// The open loop's drive.
    pub drive: Drive,
    /// Scenario sessions replayed through `Engine::step_for`.
    pub replayed: u64,
    /// Frames round-tripped by the wire probe.
    pub frames: u64,
    /// Replays, round trips and probe sessions that did not reproduce
    /// their input.
    pub mismatches: Vec<String>,
    /// What the backpressure probe observed.
    pub pressure: Pressure,
}

/// Drives the open loop with spans, then replays sampled scenario
/// sessions slice by slice through `Engine::step_for` and round-trips
/// event and result frames through `encode_*`/`decode_*`, all inside a
/// span named after the workload; then runs the backpressure probe in a
/// span of its own.
///
/// # Errors
///
/// See [`drive`].
pub fn trace(
    seed: u64,
    scale: Scale,
    seconds: f64,
    workers: usize,
    trace: &Trace,
) -> Result<Traced, String> {
    let mut service = Service::new(workers);
    let (rate, loop_s) = offered(scale, seconds);
    let open = plan(
        SeedSequence::new(seed),
        (rate * loop_s).round() as u64,
        Duration::from_secs_f64(1.0 / rate),
        0,
    );
    let (drive, replayed, frames, mut mismatches) = span(Some(trace), "service-mixed", 0, || {
        let drive = drive(&mut service, &open, None, Some(trace))?;
        let mut mismatches = Vec::new();
        let scenario_sessions: Vec<_> = drive
            .sampled
            .iter()
            .filter(|(tenant, _)| !tenant.external)
            .take(STEP_FOR_REPLAYS)
            .collect();
        for (tenant, result) in &scenario_sessions {
            if replay_session(tenant, result, trace) != *result {
                mismatches.push(format!(
                    "the step_for replay of session {} differs from the service's result",
                    tenant.id
                ));
            }
        }
        let replayed = scenario_sessions.len() as u64;
        let results: Vec<_> = drive.sampled.iter().map(|(_, r)| r.clone()).collect();
        let frames = wire_probe(seed, &results, trace, &mut mismatches)?;
        Ok::<_, String>((drive, replayed, frames, mismatches))
    })?;
    let pressure = span(Some(trace), "service.pressure", 0, || {
        pressure(seed, scale, seconds, workers)
    })?;
    mismatches.extend(pressure.failures.iter().cloned());
    Ok(Traced {
        drive,
        replayed,
        frames,
        mismatches,
        pressure,
    })
}

/// Replays a scenario session's engine work: its stream generated ahead,
/// then `Engine::step_for` slices of the session's budget.
fn replay_session(tenant: &Tenant, expected: &TrialResult, trace: &Trace) -> TrialResult {
    let id = tenant.id;
    let config = session_config(false);
    let layer = "workloads.uniform";
    span(Some(trace), "session.replay", id, || {
        let base = span(Some(trace), layer, id, || {
            Scenario::Uniform.source(N, SeedSequence::new(tenant.seed).seed(0))
        });
        let mut source = Prefetch::new(
            base,
            expected.interactions_processed,
            layer,
            id,
            trace,
            false,
        );
        let mut algorithm = AlgorithmSpec::Waiting
            .instantiate_online()
            .expect("Waiting is knowledge-free");
        let mut engine = Engine::<IdSet>::new();
        // Scenario sessions run to the sweep's default horizon.
        let horizon = RandomizedAdversary::default_horizon(N) as u64;
        let mut progress =
            engine.begin_run(N, NodeId(0), IdSet::singleton, EngineConfig::sweep(horizon));
        loop {
            let outcome = span(Some(trace), "engine.step_for", id, || {
                engine.step_for(
                    &mut progress,
                    algorithm.as_mut(),
                    &mut source,
                    IdSet::singleton,
                    config.slice_budget,
                    &mut DiscardTransmissions,
                )
            })
            .expect("Waiting never emits invalid decisions");
            if !outcome.can_continue() {
                break;
            }
        }
        trace
            .borrow_mut()
            .count("engine.step_for", progress.interactions_processed());
        finish_trial(
            AlgorithmSpec::Waiting,
            &engine,
            engine.finish_run(&progress),
            None,
        )
    })
}

/// Round-trips [`WIRE_FRAMES`] event frames of a seeded uniform stream
/// and as many result frames (cycling through `results`) through the
/// codec, counting frames and bytes; a frame that does not decode to its
/// input is a mismatch.
fn wire_probe(
    seed: u64,
    results: &[TrialResult],
    trace: &Trace,
    mismatches: &mut Vec<String>,
) -> Result<u64, String> {
    let mut source = UniformWorkload::new(N).source(seed);
    let owns = vec![true; N];
    let view = view(&owns);
    let events: Vec<WireEvent> = (0..WIRE_FRAMES as u64)
        .map(|t| WireEvent::Event {
            session: SessionId(t % 1_024),
            event: StepEvent::Interaction(
                source
                    .next_interaction(t, &view)
                    .expect("uniform streams are infinite"),
            ),
        })
        .collect();
    let replies: Vec<WireResult> = results
        .iter()
        .cycle()
        .take(if results.is_empty() { 0 } else { WIRE_FRAMES })
        .enumerate()
        .map(|(i, result)| WireResult::Result {
            session: SessionId(i as u64),
            result: result.clone(),
        })
        .collect();

    let mut event_bytes = 0;
    let mut event_errors = 0;
    span(Some(trace), "wire.event_codec", 0, || {
        for event in &events {
            let frame = encode_event(event).map_err(|e| e.to_string())?;
            event_bytes += frame.len() as u64;
            let decoded = decode_event(&frame).map_err(|e| e.to_string())?;
            event_errors += u64::from(decoded != *event);
            black_box(decoded);
        }
        Ok::<(), String>(())
    })?;
    let mut result_bytes = 0;
    let mut result_errors = 0;
    span(Some(trace), "wire.result_codec", 0, || {
        for reply in &replies {
            let frame = encode_result(reply).map_err(|e| e.to_string())?;
            result_bytes += frame.len() as u64;
            let decoded = decode_result(&frame).map_err(|e| e.to_string())?;
            result_errors += u64::from(decoded != *reply);
            black_box(decoded);
        }
        Ok::<(), String>(())
    })?;
    if event_errors + result_errors > 0 {
        mismatches.push(format!(
            "{event_errors} event and {result_errors} result frames did not round-trip"
        ));
    }
    let mut tracer = trace.borrow_mut();
    tracer.count("wire.event_codec", events.len() as u64);
    tracer.count("wire.event_bytes", event_bytes);
    tracer.count("wire.result_codec", replies.len() as u64);
    tracer.count("wire.result_bytes", result_bytes);
    Ok((events.len() + replies.len()) as u64)
}

/// What the backpressure probe observed.
#[derive(Debug, Default)]
pub struct Pressure {
    /// Sessions probed.
    pub sessions: u64,
    /// Events the service refused with `ServiceError::Backpressure`; each
    /// was sent again.
    pub refusals: u64,
    /// Deepest inbox any probed session reached.
    pub high_water: usize,
    /// Other error frames, sessions that consumed other than the events
    /// they accepted, and sessions that returned no result.
    pub failures: Vec<String>,
}

/// A probe producer: its session, its stream, and the events generated
/// but not yet accepted, oldest first.
struct Producer {
    session: SessionId,
    source: Box<dyn InteractionSource + Send>,
    generated: u64,
    pending: VecDeque<StepEvent>,
    accepted: u64,
    sent: u64,
    refused: u64,
    closed: bool,
    finished: bool,
    result: Option<TrialResult>,
}

/// The backpressure probe: [`PRESSURE_SESSIONS`] externally-fed sessions
/// (`OverflowPolicy::Block`) whose producers offer [`PRESSURE_RATE`]
/// events per second in real time for up to a second, then close.
///
/// Each turn a producer sends what it has pending, at most one inbox. A
/// session drains [`PRESSURE_BUDGET`] events per slice, so its inbox
/// fills only when service turns run long. Within a turn the service
/// applies frames in order, so the events it refuses are the last of a
/// burst, and the producer sends them again, in order, the next turn:
/// every session consumes exactly the events it accepted.
fn pressure(seed: u64, scale: Scale, seconds: f64, workers: usize) -> Result<Pressure, String> {
    let duration = Duration::from_secs_f64(
        match scale {
            Scale::Tiny => 0.05_f64,
            Scale::Full | Scale::Probe => 1.0,
        }
        .min(seconds),
    );
    let config = SessionConfig {
        slice_budget: PRESSURE_BUDGET,
        overflow: OverflowPolicy::Block,
        ..SessionConfig::default()
    };
    let capacity = config.inbox_capacity;
    let owns = vec![true; PRESSURE_N];
    let view = view(&owns);
    let seeds = SeedSequence::new(seed).child(PRESSURE_LABEL);
    let mut service = Service::new(workers);
    let mut out = Pressure {
        sessions: PRESSURE_SESSIONS,
        ..Pressure::default()
    };
    let mut producers = Vec::new();
    for i in 0..PRESSURE_SESSIONS {
        let session = SessionId(i);
        service
            .client
            .open_external(session, AlgorithmSpec::Waiting, PRESSURE_N, &config)
            .map_err(|e| e.to_string())?;
        producers.push(Producer {
            session,
            source: Scenario::Uniform.source(PRESSURE_N, seeds.seed(i)),
            generated: 0,
            pending: VecDeque::new(),
            accepted: 0,
            sent: 0,
            refused: 0,
            closed: false,
            finished: false,
            result: None,
        });
    }

    let start = Instant::now();
    while producers.iter().any(|p| !p.finished) {
        let now = start.elapsed();
        if now > duration + DRAIN_LIMIT {
            break;
        }
        let due = (PRESSURE_RATE * now.min(duration).as_secs_f64()) as u64;
        for p in producers.iter_mut().filter(|p| !p.finished) {
            while p.generated < due {
                let interaction = p
                    .source
                    .next_interaction(p.generated, &view)
                    .expect("uniform streams are infinite");
                p.pending.push_back(StepEvent::Interaction(interaction));
                p.generated += 1;
            }
            for &event in p.pending.iter().take(capacity) {
                service
                    .client
                    .send_event(p.session, event)
                    .map_err(|e| e.to_string())?;
                p.sent += 1;
            }
            if now >= duration && p.pending.is_empty() && !p.closed {
                service.client.close(p.session).map_err(|e| e.to_string())?;
                p.closed = true;
            }
        }

        service.endpoint.pump().map_err(|e| e.to_string())?;
        let manager = service.endpoint.manager();
        for p in &producers {
            if let Some(depth) = manager.inbox_high_water(p.session) {
                out.high_water = out.high_water.max(depth);
            }
        }

        while let Some(reply) = service.client.poll_result().map_err(|e| e.to_string())? {
            let (session, result) = match reply {
                WireResult::Result { session, result } => (session, Ok(result)),
                WireResult::Error { session, message } => (session, Err(message)),
            };
            let refusal = ServiceError::Backpressure { session, capacity }.to_string();
            let p = usize::try_from(session.0)
                .ok()
                .and_then(|i| producers.get_mut(i))
                .ok_or_else(|| format!("a reply names the unknown session {session}"))?;
            match result {
                Ok(result) => {
                    p.finished = true;
                    p.result = Some(result);
                }
                Err(message) if message == refusal => {
                    p.refused += 1;
                    out.refusals += 1;
                }
                Err(message) => {
                    p.finished = true;
                    out.failures
                        .push(format!("probe session {session}: {message}"));
                }
            }
        }
        for p in &mut producers {
            let accepted = p.sent - p.refused;
            p.pending
                .drain(..usize::try_from(accepted).expect("at most one inbox per turn"));
            p.accepted += accepted;
            p.sent = 0;
            p.refused = 0;
        }
    }

    for p in &producers {
        match &p.result {
            None => out
                .failures
                .push(format!("probe session {} returned no result", p.session)),
            // A session that aggregated stops consuming; one that did not
            // consumed every event it accepted.
            Some(r) if r.terminated() && r.interactions_processed <= p.accepted => {}
            Some(r) if r.interactions_processed == p.accepted => {}
            Some(r) => out.failures.push(format!(
                "probe session {} consumed {} events but accepted {}",
                p.session, r.interactions_processed, p.accepted
            )),
        }
    }
    Ok(out)
}
