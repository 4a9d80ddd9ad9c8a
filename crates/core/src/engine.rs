//! The execution engine.
//!
//! The engine plays the role of the "system" in the paper's model: at each
//! time step it obtains the interaction from the adversary (an
//! [`InteractionSource`]), presents it to the algorithm together with the
//! control information both nodes would exchange, applies the algorithm's
//! decision under the model's rules, and stops when the sink is the only
//! node owning data (or when a step budget / the source is exhausted).
//!
//! Two entry points are provided:
//!
//! * [`run`] (and [`run_with_id_sets`]) build a full [`ExecutionOutcome`]
//!   per call — convenient for demos, tests and one-off executions;
//! * [`Engine`] is the allocation-free stepping core behind them: its
//!   scratch state is preallocated once and reused across executions via
//!   [`NetworkState::reset`], the hot loop performs no per-step heap
//!   allocation, and transmissions are only observed through a caller-
//!   provided [`TransmissionSink`]. Monte-Carlo sweeps (see `doda-sim`)
//!   keep one `Engine` per worker thread and run thousands of trials
//!   through it.
//!
//! Every execution — honest or audited, run to completion or in slices,
//! pairwise or a flattened round stream ([`crate::round::FlattenedRounds`])
//! — goes through one event loop, [`Engine::step_for`], and every
//! presented interaction through one step. The
//! audited Byzantine path differs only in its data plane: what a transfer
//! carries and which receipts it leaves.

use doda_graph::NodeId;

use crate::algorithm::{Decision, DodaAlgorithm, InteractionContext};
use crate::byzantine::{ByzantineInjector, ByzantineStrategy, Receipt, ReceiptSink};
use crate::data::Aggregate;
use crate::error::{EngineError, FaultError, TransmissionError};
use crate::fault::CrashPolicy;
use crate::interaction::{Interaction, Time};
use crate::outcome::{Completion, ExecutionOutcome, FaultTally, Transmission};
use crate::sequence::{AdversaryView, InteractionSource, StepEvent, PULL_BATCH};
use crate::state::NetworkState;

/// Configuration of a single execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum number of interactions to process before giving up.
    ///
    /// Adversarial constructions (Theorems 1–3) never let some algorithms
    /// terminate, so an execution horizon is required to make experiments
    /// finite.
    pub max_interactions: u64,
    /// Whether [`run`] records every transmission in the outcome. Useful
    /// for small demos and tests; parameter sweeps must disable it (or use
    /// [`Engine::run`] with [`DiscardTransmissions`], which ignores this
    /// flag entirely and is driven by the sink argument instead).
    pub record_transmissions: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_interactions: 10_000_000,
            record_transmissions: true,
        }
    }
}

impl EngineConfig {
    /// Configuration with an explicit interaction budget.
    pub fn with_max_interactions(max_interactions: u64) -> Self {
        EngineConfig {
            max_interactions,
            ..EngineConfig::default()
        }
    }

    /// Configuration for parameter sweeps: an explicit interaction budget
    /// and no transmission recording. This is the configuration every
    /// batch/sweep path should use — recording is only for small demos and
    /// tests that inspect individual transmissions.
    pub fn sweep(max_interactions: u64) -> Self {
        EngineConfig {
            max_interactions,
            record_transmissions: false,
        }
    }

    /// [`EngineConfig::sweep`] with the default interaction budget.
    pub fn sweep_default() -> Self {
        EngineConfig::sweep(EngineConfig::default().max_interactions)
    }
}

/// Observer of applied transmissions, called once per transmission in time
/// order by [`Engine::run`].
///
/// The engine itself never buffers transmissions: callers that want them
/// pass a `Vec<Transmission>` (or any custom observer), callers that do not
/// pass [`DiscardTransmissions`] and pay nothing.
pub trait TransmissionSink {
    /// Records one applied transmission.
    fn record(&mut self, transmission: Transmission);
}

/// A [`TransmissionSink`] that drops every transmission — the zero-cost
/// choice for parameter sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscardTransmissions;

impl TransmissionSink for DiscardTransmissions {
    #[inline]
    fn record(&mut self, _transmission: Transmission) {}
}

impl TransmissionSink for Vec<Transmission> {
    #[inline]
    fn record(&mut self, transmission: Transmission) {
        self.push(transmission);
    }
}

mod plane {
    use super::*;

    /// The data plane of [`Engine::step_for`]: what a transfer moves and
    /// who observes it. The step rule — decide, the one-transmission
    /// rule, the "output is ignored" rule, fault bookkeeping — is the
    /// engine's; a plane only carries the payload.
    ///
    /// Every [`TransmissionSink`] is the zero-sized *honest* plane; the
    /// *audited* plane ([`Audited`]) lets liars corrupt their transfer
    /// and keeps the unit ledger behind the receipts.
    pub trait DataPlane<A> {
        /// Moves the sender's data to the receiver and reports the
        /// transfer. Fails, touching nothing, if the model forbids it.
        fn transfer<F>(
            &mut self,
            state: &mut NetworkState<A>,
            transmission: Transmission,
            initial_data: &mut F,
        ) -> Result<(), TransmissionError>
        where
            F: FnMut(NodeId) -> A;

        /// `node` arrived with a fresh datum. (Crashes and departures
        /// need no hook: a dead node can neither send nor receive until it
        /// arrives again.)
        #[inline]
        fn on_admitted(&mut self, _node: NodeId) {}
    }

    impl<A: Aggregate, T: TransmissionSink + ?Sized> DataPlane<A> for T {
        #[inline]
        fn transfer<F>(
            &mut self,
            state: &mut NetworkState<A>,
            transmission: Transmission,
            _initial_data: &mut F,
        ) -> Result<(), TransmissionError>
        where
            F: FnMut(NodeId) -> A,
        {
            state.transmit(transmission.sender, transmission.receiver)?;
            self.record(transmission);
            Ok(())
        }
    }

    /// The audited data plane behind [`Engine::run_audited`]: nodes the
    /// injector marks as liars corrupt their one transfer, and every
    /// transfer produces a [`Receipt`] from the unit ledger.
    pub struct Audited<'a, T: ?Sized, R: ?Sized> {
        transmissions: &'a mut T,
        injector: &'a mut ByzantineInjector,
        receipts: &'a mut R,
        /// The original data units each live node currently carries.
        /// Every node starts with its own single datum; honest transfers
        /// move units, corrupting ones mint, double, or void them — which
        /// is exactly what the receipts expose. A dead node's entry is
        /// never read; arrival resets it.
        units: Vec<u64>,
    }

    impl<'a, T: ?Sized, R: ?Sized> Audited<'a, T, R> {
        /// A plane for a fresh run over `node_count` nodes (the injector
        /// restarts its forgery stream).
        pub fn new(
            node_count: usize,
            transmissions: &'a mut T,
            injector: &'a mut ByzantineInjector,
            receipts: &'a mut R,
        ) -> Self {
            injector.reset();
            Audited {
                transmissions,
                injector,
                receipts,
                units: vec![1; node_count],
            }
        }
    }

    impl<A, T, R> DataPlane<A> for Audited<'_, T, R>
    where
        A: Aggregate,
        T: TransmissionSink + ?Sized,
        R: ReceiptSink + ?Sized,
    {
        fn transfer<F>(
            &mut self,
            state: &mut NetworkState<A>,
            transmission: Transmission,
            initial_data: &mut F,
        ) -> Result<(), TransmissionError>
        where
            F: FnMut(NodeId) -> A,
        {
            let Transmission {
                time,
                sender,
                receiver,
            } = transmission;
            let carried = self.units[sender.index()];
            let corruption = self
                .injector
                .is_liar(sender)
                .then(|| self.injector.strategy());
            let delivered = match corruption {
                None => {
                    state.transmit(sender, receiver)?;
                    carried
                }
                Some(ByzantineStrategy::Forge) => {
                    let origin = self.injector.forged_origin(state.node_count());
                    state.transmit_forged(sender, receiver, initial_data(origin))?;
                    carried + 1
                }
                Some(ByzantineStrategy::Duplicate) => {
                    state.transmit_duplicated(sender, receiver)?;
                    2 * carried
                }
                Some(ByzantineStrategy::DropCarried) => {
                    state.transmit_voided(sender, receiver)?;
                    0
                }
                Some(ByzantineStrategy::Equivocate) => {
                    state.transmit_equivocated(sender, receiver, initial_data(sender))?;
                    1
                }
            };
            self.units[receiver.index()] += delivered;
            self.units[sender.index()] = 0;
            self.transmissions.record(transmission);
            self.receipts.record(Receipt {
                time,
                sender,
                receiver,
                carried_units: carried,
                delivered_units: delivered,
                corruption,
            });
            Ok(())
        }

        #[inline]
        fn on_admitted(&mut self, node: NodeId) {
            self.units[node.index()] = 1;
        }
    }
}

use plane::{Audited, DataPlane};

/// The counters produced by one [`Engine::run`] execution.
///
/// This is the allocation-free subset of [`ExecutionOutcome`]; the final
/// aggregate and ownership details remain inspectable on
/// [`Engine::state`] until the next run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Number of nodes in the dynamic graph.
    pub node_count: usize,
    /// The sink node.
    pub sink: NodeId,
    /// `Some(t)` if the aggregation completed at interaction index `t`
    /// (`Some(0)` for the degenerate single-node graph).
    pub termination_time: Option<Time>,
    /// Number of interactions presented to the algorithm.
    pub interactions_processed: u64,
    /// Number of transmissions applied. For a terminating execution over
    /// `n` nodes this is always `n − 1`.
    pub transmissions: u64,
    /// Number of `Transmit` decisions ignored by the engine (the paper's
    /// "output is ignored" rule).
    pub ignored_decisions: u64,
    /// Number of nodes still owning data at the end.
    pub remaining_owners: usize,
    /// How the execution ended: full aggregation, survivors-only
    /// aggregation, or starvation (see [`Completion`]).
    pub completion: Completion,
    /// Counters of the fault events applied (all zero for fault-free
    /// sources).
    pub faults: FaultTally,
}

impl RunStats {
    /// Returns `true` if the aggregation completed (sink is the sole owner).
    pub fn terminated(&self) -> bool {
        self.termination_time.is_some()
    }

    /// Number of data introduced over the whole execution: the initial
    /// `n` plus one fresh datum per churn arrival.
    pub fn data_introduced(&self) -> u64 {
        self.node_count as u64 + self.faults.arrivals
    }
}

/// The loop-carried state of a resumable execution: every counter
/// [`Engine::run`] used to keep on its stack, packaged so a run can pause
/// between [`Engine::step_for`] slices (and be checkpointed via
/// [`Engine::checkpoint`]).
///
/// A `RunProgress` is only meaningful together with the engine that
/// produced it (the engine scratch holds the network state); it is `Copy`
/// so schedulers can store it inline per session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProgress {
    node_count: usize,
    sink: NodeId,
    max_interactions: u64,
    processed: u64,
    applied: u64,
    ignored: u64,
    faults: FaultTally,
    termination_time: Option<Time>,
}

impl RunProgress {
    /// Returns `true` if the aggregation completed (sink is the sole
    /// owner).
    pub fn terminated(&self) -> bool {
        self.termination_time.is_some()
    }

    /// `Some(t)` if the aggregation completed at interaction index `t`.
    pub fn termination_time(&self) -> Option<Time> {
        self.termination_time
    }

    /// Number of interactions processed so far.
    pub fn interactions_processed(&self) -> u64 {
        self.processed
    }

    /// Number of transmissions applied so far.
    pub fn transmissions(&self) -> u64 {
        self.applied
    }

    /// Number of `Transmit` decisions ignored so far.
    pub fn ignored_decisions(&self) -> u64 {
        self.ignored
    }

    /// The fault events applied so far.
    pub fn faults(&self) -> FaultTally {
        self.faults
    }

    /// The run's interaction horizon ([`EngineConfig::max_interactions`]).
    pub fn max_interactions(&self) -> u64 {
        self.max_interactions
    }

    /// The sink node of this run.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// The node count of this run.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Why a slice ending at `slice_end` stops before the next event, if
    /// it does.
    #[inline]
    fn pause(&self, slice_end: u64) -> Option<StepOutcome> {
        if self.termination_time.is_some() {
            Some(StepOutcome::Completed)
        } else if self.processed >= self.max_interactions {
            Some(StepOutcome::HorizonReached)
        } else if self.processed >= slice_end {
            Some(StepOutcome::BudgetSpent)
        } else {
            None
        }
    }
}

/// Why one [`Engine::step_for`] slice stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The aggregation completed (or had already completed): the sink is
    /// the sole owner. Call [`Engine::finish_run`] to package the stats.
    Completed,
    /// The source returned `None`. A streamed scenario source is
    /// exhausted for good; an incrementally fed source (a session inbox)
    /// may simply be empty — the run can resume when more events arrive.
    SourceExhausted,
    /// The run's interaction horizon was reached; the execution is over
    /// and ended starved.
    HorizonReached,
    /// The per-call budget was spent with the run still live; call
    /// [`Engine::step_for`] again to continue.
    BudgetSpent,
}

impl StepOutcome {
    /// `true` when the run can take another slice from the same source
    /// (budget spent — not completed, exhausted, or out of horizon).
    pub fn can_continue(&self) -> bool {
        matches!(self, StepOutcome::BudgetSpent)
    }
}

/// A point-in-time snapshot of one resumable run: the engine-side state
/// (network, ownership, liveness) plus the [`RunProgress`] counters.
///
/// Restoring a checkpoint into any [`Engine`] (via [`Engine::restore`])
/// and continuing with the same algorithm and a source positioned at the
/// checkpointed time reproduces the uninterrupted run byte for byte —
/// pinned by `tests/checkpoint_resume.rs`. The snapshot does **not**
/// capture the algorithm or the source; the caller owns their continuity.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint<A> {
    state: NetworkState<A>,
    ownership: Vec<bool>,
    owners: usize,
    live: Vec<bool>,
    progress: RunProgress,
}

impl<A> EngineCheckpoint<A> {
    /// The run counters as of the snapshot.
    pub fn progress(&self) -> RunProgress {
        self.progress
    }

    /// The network state as of the snapshot.
    pub fn state(&self) -> &NetworkState<A> {
        &self.state
    }
}

/// The reusable stepping core.
///
/// An `Engine` owns the scratch an execution needs — the
/// [`NetworkState`] and the ownership bitmap handed to adaptive
/// adversaries — and reuses it across calls to [`Engine::run`], so a sweep
/// of thousands of trials allocates the scratch once. The hot loop
/// performs no heap allocation per interaction: ownership is maintained
/// incrementally (instead of re-deriving a fresh bitmap every step) and
/// completion is detected from an owner counter (instead of an `O(n)`
/// scan per transmission). Pulling an oblivious source in bursts costs
/// one buffer of at most [`PULL_BATCH`] interactions per
/// [`Engine::step_for`] call, so one per trial or per service slice. The
/// engine keeps no burst buffer between calls: every service session
/// owns an `Engine`, and a buffer per session would raise its resident
/// memory.
#[derive(Debug)]
pub struct Engine<A> {
    state: NetworkState<A>,
    ownership: Vec<bool>,
    owners: usize,
    /// `live[v]` is `false` once `v` crashed or departed; dead nodes show
    /// as non-owners in the adversary view and must never appear in a
    /// presented interaction.
    live: Vec<bool>,
}

impl<A: Aggregate> Default for Engine<A> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<A: Aggregate> Engine<A> {
    /// Creates an engine with empty scratch; the first [`Engine::run`]
    /// sizes it to the source's node count.
    pub fn new() -> Self {
        Engine {
            state: NetworkState::empty(),
            ownership: Vec::new(),
            owners: 0,
            live: Vec::new(),
        }
    }

    /// The network state left behind by the most recent run (empty before
    /// the first run). Use it to read the sink's final aggregate or the
    /// per-node ownership after [`Engine::run`] returns.
    pub fn state(&self) -> &NetworkState<A> {
        &self.state
    }

    /// Runs `algorithm` over the interactions produced by `source`,
    /// reusing this engine's scratch, reporting applied transmissions to
    /// `transmissions` and returning the execution counters.
    ///
    /// Unlike [`run`], the `config.record_transmissions` flag is ignored:
    /// whether transmissions are observed is decided entirely by the sink
    /// argument, any [`TransmissionSink`] ([`DiscardTransmissions`] for
    /// none, `&mut Vec<Transmission>` to collect them).
    ///
    /// A non-oblivious source is driven through
    /// [`InteractionSource::next_event`] (an oblivious one in bursts, see
    /// [`Engine::step_for`]), so fault-injecting sources
    /// ([`crate::fault::FaultedSource`]) compose
    /// transparently: crash / churn / loss events update the ownership
    /// bitmap and the accounting bins, and [`RunStats::completion`]
    /// distinguishes full aggregation from survivors-only aggregation
    /// and starvation.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] if the algorithm produces a structurally
    /// invalid decision (a sender/receiver outside the current
    /// interaction), or if the source emits a fault event inconsistent
    /// with the execution's fault state (a typed
    /// [`crate::error::FaultError`]: sink targeted, double kill, arrival
    /// of a live node, or an interaction involving a dead node).
    /// Decisions whose endpoints do not both own data are *ignored*
    /// (counted in [`RunStats::ignored_decisions`]), per the paper's
    /// convention.
    ///
    /// # Panics
    ///
    /// Panics if `sink` is out of range for `source.node_count()` or the
    /// node count is zero (propagated from [`NetworkState::reset`]).
    pub fn run<F, S, D, P>(
        &mut self,
        algorithm: &mut D,
        source: &mut S,
        sink: NodeId,
        mut initial_data: F,
        config: EngineConfig,
        transmissions: &mut P,
    ) -> Result<RunStats, EngineError>
    where
        F: FnMut(NodeId) -> A,
        S: InteractionSource + ?Sized,
        D: DodaAlgorithm + ?Sized,
        P: DataPlane<A> + ?Sized,
    {
        let n = source.node_count();
        let mut run = self.begin_run(n, sink, &mut initial_data, config);
        while self
            .step_for(
                &mut run,
                algorithm,
                source,
                &mut initial_data,
                u64::MAX,
                transmissions,
            )?
            .can_continue()
        {}
        Ok(self.finish_run(&run))
    }

    /// Runs `algorithm` like [`Engine::run`], but through the **audited
    /// data plane**: nodes the `injector` marks as liars corrupt their
    /// one transmission per their [`ByzantineStrategy`], and every
    /// applied transmission — honest or not — produces a
    /// [`Receipt`] into `receipts` (a [`crate::byzantine::Tally`] to
    /// classify the run, a `Vec<Receipt>` for the full transfer log).
    ///
    /// The schedule is untouched — the source is pulled exactly as the
    /// honest path pulls it, so fault plans and adaptive adversaries
    /// compose unchanged — and an injector with zero liars reproduces
    /// [`Engine::run`] byte for byte (pinned by
    /// `tests/byzantine_conformance.rs`). The per-transfer unit ledger
    /// (how many original data each sender carried and delivered) is
    /// kept internally and surfaces only through the receipts.
    ///
    /// # Errors
    ///
    /// Exactly as [`Engine::run`]: corruption changes payloads, never
    /// the model rules, so the error surface is identical.
    ///
    /// # Panics
    ///
    /// As [`Engine::run`]; additionally the injector must have been
    /// built for the source's node count.
    #[allow(clippy::too_many_arguments)]
    pub fn run_audited<F, S, D, T, R>(
        &mut self,
        algorithm: &mut D,
        source: &mut S,
        sink: NodeId,
        initial_data: F,
        config: EngineConfig,
        transmissions: &mut T,
        injector: &mut ByzantineInjector,
        receipts: &mut R,
    ) -> Result<RunStats, EngineError>
    where
        F: FnMut(NodeId) -> A,
        S: InteractionSource + ?Sized,
        D: DodaAlgorithm + ?Sized,
        T: TransmissionSink + ?Sized,
        R: ReceiptSink + ?Sized,
    {
        let mut plane = Audited::new(source.node_count(), transmissions, injector, receipts);
        self.run(algorithm, source, sink, initial_data, config, &mut plane)
    }

    /// Starts a resumable run: resets the engine scratch for `node_count`
    /// nodes and returns the [`RunProgress`] that [`Engine::step_for`]
    /// advances. Run-to-completion ([`Engine::run`]) is exactly a loop
    /// over [`Engine::step_for`] after this call.
    ///
    /// # Panics
    ///
    /// Panics if `sink` is out of range for `node_count` or the node count
    /// is zero (propagated from [`NetworkState::reset`]).
    pub fn begin_run<F>(
        &mut self,
        node_count: usize,
        sink: NodeId,
        mut initial_data: F,
        config: EngineConfig,
    ) -> RunProgress
    where
        F: FnMut(NodeId) -> A,
    {
        self.state.reset(node_count, sink, &mut initial_data);
        self.ownership.clear();
        self.ownership.resize(node_count, true);
        self.live.clear();
        self.live.resize(node_count, true);
        self.owners = node_count;
        RunProgress {
            node_count,
            sink,
            max_interactions: config.max_interactions,
            processed: 0,
            applied: 0,
            ignored: 0,
            faults: FaultTally::default(),
            termination_time: if self.owners == 1 { Some(0) } else { None },
        }
    }

    /// Advances a resumable run by at most `budget` events and reports why
    /// the slice stopped.
    ///
    /// This is the engine's only event loop: [`Engine::run`] and
    /// [`Engine::run_audited`] are one unbounded slice, so a run advanced
    /// in arbitrary slices is byte-identical to an uninterrupted one
    /// (pinned by `tests/checkpoint_resume.rs`). `transmissions` is the
    /// data plane: any [`TransmissionSink`] runs the honest plane, and
    /// [`Engine::run_audited`] passes the audited one.
    ///
    /// A [`StepOutcome::SourceExhausted`] slice is resumable: if the
    /// source later yields more events (an incrementally fed session
    /// inbox), calling `step_for` again continues the run where it
    /// paused.
    ///
    /// An [`InteractionSource::is_oblivious`] source is pulled in bursts
    /// of up to [`PULL_BATCH`] interactions, one
    /// [`InteractionSource::next_interaction_batch`] call each, under a
    /// view sampled once per burst; any other source is pulled one
    /// [`InteractionSource::next_event`] per step. Both give the same
    /// results bit for bit. A burst never reaches past the budget or the
    /// horizon, so a slice that pauses (`BudgetSpent`, `HorizonReached`
    /// or `SourceExhausted`) leaves the source at exactly
    /// [`RunProgress::interactions_processed`] pulls, as checkpointing
    /// and sliced sessions need. Only a `Completed` slice may leave an
    /// oblivious source up to `PULL_BATCH − 1` interactions ahead of the
    /// run. The burst buffer is allocated once per call, never per
    /// interaction.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`]: a structurally invalid decision or an
    /// inconsistent fault event is a typed [`EngineError`].
    pub fn step_for<F, S, D, P>(
        &mut self,
        run: &mut RunProgress,
        algorithm: &mut D,
        source: &mut S,
        mut initial_data: F,
        budget: u64,
        transmissions: &mut P,
    ) -> Result<StepOutcome, EngineError>
    where
        F: FnMut(NodeId) -> A,
        S: InteractionSource + ?Sized,
        D: DodaAlgorithm + ?Sized,
        P: DataPlane<A> + ?Sized,
    {
        let sink = run.sink;
        let slice_end = run
            .processed
            .saturating_add(budget)
            .min(run.max_interactions);
        if source.is_oblivious() {
            return self.step_bursts(
                run,
                algorithm,
                source,
                &mut initial_data,
                slice_end,
                transmissions,
            );
        }
        loop {
            if let Some(outcome) = run.pause(slice_end) {
                return Ok(outcome);
            }
            let t = run.processed;
            let view = AdversaryView {
                owns_data: &self.ownership,
                sink,
            };
            let Some(event) = source.next_event(t, &view) else {
                return Ok(StepOutcome::SourceExhausted);
            };
            run.processed += 1;

            match event {
                StepEvent::Interaction(interaction) => self.apply_interaction(
                    run,
                    algorithm,
                    t,
                    interaction,
                    transmissions,
                    &mut initial_data,
                )?,
                StepEvent::Lost(_) => run.faults.lost_interactions += 1,
                StepEvent::Crash { node, policy } => {
                    self.remove_node(run, node, Some(policy), t)?
                }
                StepEvent::Departure(node) => self.remove_node(run, node, None, t)?,
                StepEvent::Arrival(node) => {
                    run.faults.arrivals += 1;
                    self.admit_node(node, sink, &mut initial_data, t)?;
                    transmissions.on_admitted(node);
                }
            }
        }
    }

    /// The oblivious arm of [`Engine::step_for`]: pulls up to
    /// [`PULL_BATCH`] interactions per call, never past `slice_end`, and
    /// applies them in order until the run completes. A short burst means
    /// the source ran out.
    fn step_bursts<F, S, D, P>(
        &mut self,
        run: &mut RunProgress,
        algorithm: &mut D,
        source: &mut S,
        initial_data: &mut F,
        slice_end: u64,
        plane: &mut P,
    ) -> Result<StepOutcome, EngineError>
    where
        F: FnMut(NodeId) -> A,
        S: InteractionSource + ?Sized,
        D: DodaAlgorithm + ?Sized,
        P: DataPlane<A> + ?Sized,
    {
        let mut burst = Vec::new();
        loop {
            if let Some(outcome) = run.pause(slice_end) {
                return Ok(outcome);
            }
            let t0 = run.processed;
            let want = (slice_end - t0).min(PULL_BATCH as u64) as usize;
            burst.clear();
            // The first burst is the largest, so this allocates once.
            burst.reserve_exact(want);
            let view = AdversaryView {
                owns_data: &self.ownership,
                sink: run.sink,
            };
            source.next_interaction_batch(t0, &view, &mut burst, want);
            for &interaction in &burst {
                let t = run.processed;
                run.processed += 1;
                self.apply_interaction(run, algorithm, t, interaction, plane, initial_data)?;
                if run.termination_time.is_some() {
                    return Ok(StepOutcome::Completed);
                }
            }
            if burst.len() < want {
                return Ok(StepOutcome::SourceExhausted);
            }
        }
    }

    /// Packages a resumable run's counters into the same [`RunStats`] a
    /// run-to-completion call would have returned. Valid at any pause
    /// point; a run finished early simply reports `Starved`.
    pub fn finish_run(&self, run: &RunProgress) -> RunStats {
        let completion = match run.termination_time {
            Some(_) if run.faults.data_lost == 0 && run.faults.data_recovered == 0 => {
                Completion::Aggregated
            }
            Some(_) => Completion::AggregatedSurvivors,
            None => Completion::Starved,
        };
        RunStats {
            node_count: run.node_count,
            sink: run.sink,
            termination_time: run.termination_time,
            interactions_processed: run.processed,
            transmissions: run.applied,
            ignored_decisions: run.ignored,
            remaining_owners: self.owners,
            completion,
            faults: run.faults,
        }
    }

    /// Snapshots a paused resumable run: the engine-side state plus the
    /// run counters, cloneable and independent of this engine's lifetime.
    pub fn checkpoint(&self, run: &RunProgress) -> EngineCheckpoint<A> {
        EngineCheckpoint {
            state: self.state.clone(),
            ownership: self.ownership.clone(),
            owners: self.owners,
            live: self.live.clone(),
            progress: *run,
        }
    }

    /// Restores a checkpoint into this engine (reusing its scratch
    /// allocations) and returns the [`RunProgress`] to continue stepping
    /// from. Continuing with the same algorithm and a source positioned at
    /// the checkpointed time reproduces the uninterrupted run exactly.
    pub fn restore(&mut self, checkpoint: &EngineCheckpoint<A>) -> RunProgress {
        self.state.clone_from(&checkpoint.state);
        self.ownership.clone_from(&checkpoint.ownership);
        self.owners = checkpoint.owners;
        self.live.clone_from(&checkpoint.live);
        checkpoint.progress
    }

    /// Applies one presented interaction — the step shared by both arms of
    /// [`Engine::step_for`]: dead-endpoint check, algorithm decision,
    /// transmission bookkeeping, and completion when the transfer leaves
    /// the sink the sole owner. The transfer itself runs through `plane`.
    ///
    /// Always inlined: it is the body of both pull loops, and a call per
    /// interaction costs about as much as the step itself.
    #[inline(always)]
    fn apply_interaction<D, P, F>(
        &mut self,
        run: &mut RunProgress,
        algorithm: &mut D,
        t: Time,
        interaction: Interaction,
        plane: &mut P,
        initial_data: &mut F,
    ) -> Result<(), EngineError>
    where
        D: DodaAlgorithm + ?Sized,
        P: DataPlane<A> + ?Sized,
        F: FnMut(NodeId) -> A,
    {
        // Until a crash or departure is first tried, every node in range
        // is live, so the per-endpoint loads are needed only then (or for
        // an out-of-range endpoint, which reads as dead).
        let none_removed = run.faults.crashes == 0 && run.faults.departures == 0;
        if !none_removed || interaction.max().index() >= self.live.len() {
            for endpoint in [interaction.min(), interaction.max()] {
                if !self.live.get(endpoint.index()).copied().unwrap_or(false) {
                    return Err(EngineError::InvalidFault {
                        time: t,
                        cause: FaultError::DeadParticipant {
                            interaction,
                            node: endpoint,
                        },
                    });
                }
            }
        }

        let sink = run.sink;
        let ctx = InteractionContext {
            time: t,
            interaction,
            min_owns_data: self.owns(interaction.min()),
            max_owns_data: self.owns(interaction.max()),
            sink,
        };
        let Decision::Transmit { sender, receiver } = algorithm.decide(&ctx) else {
            return Ok(());
        };
        if !interaction.involves(sender) || !interaction.involves(receiver) || sender == receiver {
            return Err(EngineError::DecisionOutsideInteraction {
                time: t,
                interaction,
                sender,
                receiver,
            });
        }
        if !ctx.both_own_data() || sender == sink {
            // "The output is ignored if the interacting nodes do not both
            // have data." A decision asking the sink to transmit is
            // likewise ignored rather than fatal: it can only come from an
            // algorithm treating the sink as a regular node, and the model
            // simply forbids the transfer.
            run.ignored += 1;
            return Ok(());
        }
        let transmission = Transmission {
            time: t,
            sender,
            receiver,
        };
        plane
            .transfer(&mut self.state, transmission, initial_data)
            .map_err(|cause| EngineError::InvalidTransmission { time: t, cause })?;
        self.disown(run, sender, t);
        run.applied += 1;
        algorithm.on_transmission(t, sender, receiver);
        Ok(())
    }

    /// `node` stops owning data at `t`, by transmission or by fault. The
    /// sink can never transmit and never dies, so it always owns data: a
    /// single remaining owner must be the sink, and the run completes.
    #[inline]
    fn disown(&mut self, run: &mut RunProgress, node: NodeId, t: Time) {
        self.ownership[node.index()] = false;
        self.owners -= 1;
        if self.owners == 1 {
            run.termination_time = Some(t);
        }
    }

    /// Applies a crash (`policy` set) or departure (`policy` `None`):
    /// the node goes dead, and its datum — if it still owned one — moves
    /// to the lost or recovered accounting bin.
    fn remove_node(
        &mut self,
        run: &mut RunProgress,
        node: NodeId,
        policy: Option<CrashPolicy>,
        time: Time,
    ) -> Result<(), EngineError> {
        let faults = &mut run.faults;
        match policy {
            Some(_) => faults.crashes += 1,
            None => faults.departures += 1,
        }
        let fault = |cause| EngineError::InvalidFault { time, cause };
        if node == run.sink {
            return Err(fault(FaultError::TargetsSink { node }));
        }
        if node.index() >= self.live.len() {
            return Err(fault(FaultError::UnknownNode { node }));
        }
        if !self.live[node.index()] {
            return Err(fault(FaultError::NotLive { node }));
        }
        self.live[node.index()] = false;
        if self.ownership[node.index()] {
            match policy {
                Some(CrashPolicy::DatumRecoverable) => {
                    self.state.fault_recover(node);
                    faults.data_recovered += 1;
                }
                Some(CrashPolicy::DatumLost) | None => {
                    self.state.fault_lose(node);
                    faults.data_lost += 1;
                }
            }
            self.disown(run, node, time);
        }
        Ok(())
    }

    /// Applies a churn arrival: the node comes back live with a fresh
    /// datum (a new incarnation — its transmission allowance restarts).
    fn admit_node<F>(
        &mut self,
        node: NodeId,
        sink: NodeId,
        initial_data: &mut F,
        time: Time,
    ) -> Result<(), EngineError>
    where
        F: FnMut(NodeId) -> A,
    {
        let fault = |cause| EngineError::InvalidFault { time, cause };
        if node == sink {
            return Err(fault(FaultError::TargetsSink { node }));
        }
        if node.index() >= self.live.len() {
            return Err(fault(FaultError::UnknownNode { node }));
        }
        if self.live[node.index()] {
            return Err(fault(FaultError::AlreadyLive { node }));
        }
        self.live[node.index()] = true;
        self.state.revive(node, initial_data(node));
        self.ownership[node.index()] = true;
        self.owners += 1;
        Ok(())
    }

    #[inline]
    fn owns(&self, v: NodeId) -> bool {
        self.ownership.get(v.index()).copied().unwrap_or(false)
    }
}

/// Runs `algorithm` over the interactions produced by `source`, starting
/// from the initial data assignment `initial_data`.
///
/// This is a thin convenience wrapper over [`Engine::run`] that allocates
/// fresh scratch and packages the full [`ExecutionOutcome`] (including the
/// transmission log when `config.record_transmissions` is set). Sweeps
/// that run many executions should hold an [`Engine`] instead.
///
/// # Errors
///
/// Returns an [`EngineError`] if the algorithm produces a structurally
/// invalid decision (a sender/receiver outside the current interaction).
/// Decisions whose endpoints do not both own data are *ignored* (counted
/// in [`ExecutionOutcome::ignored_decisions`]), per the paper's convention.
///
/// # Panics
///
/// Panics if `sink` is out of range for `source.node_count()` or the node
/// count is zero (propagated from [`NetworkState::new`]).
pub fn run<A, F, S, D>(
    algorithm: &mut D,
    source: &mut S,
    sink: NodeId,
    initial_data: F,
    config: EngineConfig,
) -> Result<ExecutionOutcome<A>, EngineError>
where
    A: Aggregate,
    F: FnMut(NodeId) -> A,
    S: InteractionSource + ?Sized,
    D: DodaAlgorithm + ?Sized,
{
    let mut engine: Engine<A> = Engine::new();
    let mut transmissions = Vec::new();
    let stats = if config.record_transmissions {
        engine.run(
            algorithm,
            source,
            sink,
            initial_data,
            config,
            &mut transmissions,
        )?
    } else {
        engine.run(
            algorithm,
            source,
            sink,
            initial_data,
            config,
            &mut DiscardTransmissions,
        )?
    };
    Ok(ExecutionOutcome {
        node_count: stats.node_count,
        sink,
        termination_time: stats.termination_time,
        interactions_processed: stats.interactions_processed,
        transmissions,
        ignored_decisions: stats.ignored_decisions,
        sink_data: engine.state().data_of(sink).cloned(),
        final_ownership: engine.state().ownership_bitmap(),
        completion: stats.completion,
        faults: stats.faults,
    })
}

/// Convenience wrapper: runs with [`crate::data::IdSet`] data (each node
/// starts with the singleton of its own id), which makes the
/// data-conservation invariant directly checkable on the outcome.
pub fn run_with_id_sets<S, D>(
    algorithm: &mut D,
    source: &mut S,
    sink: NodeId,
    config: EngineConfig,
) -> Result<ExecutionOutcome<crate::data::IdSet>, EngineError>
where
    S: InteractionSource + ?Sized,
    D: DodaAlgorithm + ?Sized,
{
    run(
        algorithm,
        source,
        sink,
        crate::data::IdSet::singleton,
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Gathering, Waiting};
    use crate::interaction::Interaction;
    use crate::sequence::InteractionSequence;

    fn star_sequence(n: usize, rounds: usize) -> InteractionSequence {
        // Each round: every non-sink node meets the sink once.
        let mut seq = InteractionSequence::new(n);
        for _ in 0..rounds {
            for i in 1..n {
                seq.push(Interaction::new(NodeId(0), NodeId(i)));
            }
        }
        seq
    }

    #[test]
    fn waiting_terminates_on_star_sequence() {
        let seq = star_sequence(5, 1);
        let mut algo = Waiting::new();
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(outcome.terminated());
        assert_eq!(outcome.termination_time, Some(3));
        assert_eq!(outcome.transmission_count(), 4);
        assert!(outcome.sink_data.as_ref().unwrap().covers_all(5));
        assert_eq!(outcome.remaining_owners(), 1);
    }

    #[test]
    fn gathering_respects_one_transmission_rule() {
        // Path-ish sequence where intermediate aggregation happens.
        let seq = InteractionSequence::from_pairs(4, vec![(2, 3), (1, 2), (0, 1), (0, 2), (0, 3)]);
        let mut algo = Gathering::new();
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        // Each node transmits at most once.
        let mut senders: Vec<_> = outcome.transmissions.iter().map(|t| t.sender).collect();
        senders.sort();
        senders.dedup();
        assert_eq!(senders.len(), outcome.transmissions.len());
        // Data conservation: whatever the sink holds is the union of the
        // origins that reached it.
        if outcome.terminated() {
            assert!(outcome.sink_data.as_ref().unwrap().covers_all(4));
        }
    }

    #[test]
    fn engine_stops_when_source_is_exhausted() {
        let seq = InteractionSequence::from_pairs(4, vec![(1, 2)]);
        let mut algo = Waiting::new();
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(!outcome.terminated());
        assert_eq!(outcome.interactions_processed, 1);
        assert_eq!(outcome.remaining_owners(), 4);
    }

    #[test]
    fn engine_respects_interaction_budget() {
        let seq = InteractionSequence::from_pairs(3, vec![(1, 2)]);
        let mut algo = Waiting::new();
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(true), // cycles forever, never involves the sink
            NodeId(0),
            EngineConfig::with_max_interactions(500),
        )
        .unwrap();
        assert!(!outcome.terminated());
        assert_eq!(outcome.interactions_processed, 500);
    }

    #[test]
    fn single_node_graph_is_complete_immediately() {
        let seq = InteractionSequence::new(1);
        let mut algo = Gathering::new();
        let outcome = run_with_id_sets(
            &mut algo,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(outcome.terminated());
        assert_eq!(outcome.termination_time, Some(0));
        assert_eq!(outcome.interactions_processed, 0);
    }

    #[test]
    fn invalid_decisions_outside_interaction_are_rejected() {
        struct Rogue;
        impl DodaAlgorithm for Rogue {
            fn name(&self) -> &str {
                "rogue"
            }
            fn decide(&mut self, _ctx: &InteractionContext) -> Decision {
                Decision::Transmit {
                    sender: NodeId(7),
                    receiver: NodeId(8),
                }
            }
        }
        let seq = InteractionSequence::from_pairs(3, vec![(1, 2)]);
        let err = run_with_id_sets(
            &mut Rogue,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::DecisionOutsideInteraction { .. }
        ));
    }

    #[test]
    fn decisions_without_data_are_ignored_not_fatal() {
        // An algorithm that always orders min -> max regardless of ownership.
        struct Pushy;
        impl DodaAlgorithm for Pushy {
            fn name(&self) -> &str {
                "pushy"
            }
            fn decide(&mut self, ctx: &InteractionContext) -> Decision {
                Decision::Transmit {
                    sender: ctx.interaction.min(),
                    receiver: ctx.interaction.max(),
                }
            }
        }
        // 1 transmits to 2; then the pair {1,2} interacts again: 1 has no
        // data so the decision must be ignored. Also {0,1}: the sink-as-
        // sender decision is ignored as well.
        let seq = InteractionSequence::from_pairs(3, vec![(1, 2), (1, 2), (0, 1)]);
        let outcome = run_with_id_sets(
            &mut Pushy,
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.transmission_count(), 1);
        assert_eq!(outcome.ignored_decisions, 2);
        assert!(!outcome.terminated());
    }

    #[test]
    fn recorded_transmissions_can_be_disabled() {
        let seq = star_sequence(4, 1);
        let mut algo = Waiting::new();
        let config = EngineConfig {
            record_transmissions: false,
            ..EngineConfig::default()
        };
        let outcome =
            run_with_id_sets(&mut algo, &mut seq.source(false), NodeId(0), config).unwrap();
        assert!(outcome.terminated());
        assert_eq!(outcome.transmission_count(), 0);
    }

    #[test]
    fn sweep_config_disables_recording() {
        let config = EngineConfig::sweep(1_000);
        assert_eq!(config.max_interactions, 1_000);
        assert!(!config.record_transmissions);
        assert!(EngineConfig::with_max_interactions(1_000).record_transmissions);
    }

    #[test]
    fn engine_reuse_matches_fresh_runs_and_handles_shape_changes() {
        use crate::data::IdSet;

        let mut engine: Engine<IdSet> = Engine::new();
        // Alternate node counts to exercise scratch resizing in both
        // directions; every reused run must match a fresh `run` exactly.
        for &(n, rounds) in &[(5usize, 1usize), (3, 2), (8, 1), (2, 1)] {
            let seq = star_sequence(n, rounds);
            let mut algo = Waiting::new();
            let stats = engine
                .run(
                    &mut algo,
                    &mut seq.source(false),
                    NodeId(0),
                    IdSet::singleton,
                    EngineConfig::default(),
                    &mut DiscardTransmissions,
                )
                .unwrap();
            let mut fresh_algo = Waiting::new();
            let outcome = run_with_id_sets(
                &mut fresh_algo,
                &mut seq.source(false),
                NodeId(0),
                EngineConfig::default(),
            )
            .unwrap();
            assert_eq!(stats.termination_time, outcome.termination_time);
            assert_eq!(stats.interactions_processed, outcome.interactions_processed);
            assert_eq!(stats.transmissions as usize, outcome.transmission_count());
            assert_eq!(stats.ignored_decisions, outcome.ignored_decisions);
            assert_eq!(stats.remaining_owners, outcome.remaining_owners());
            assert_eq!(
                engine.state().data_of(NodeId(0)).cloned(),
                outcome.sink_data
            );
            assert_eq!(engine.state().ownership_bitmap(), outcome.final_ownership);
        }
    }

    #[test]
    fn step_for_slices_reproduce_run_to_completion() {
        use crate::data::IdSet;

        let seq = star_sequence(9, 2);
        let config = EngineConfig::sweep(1_000);
        let mut reference: Engine<IdSet> = Engine::new();
        let expected = reference
            .run(
                &mut Waiting::new(),
                &mut seq.stream(false),
                NodeId(0),
                IdSet::singleton,
                config,
                &mut DiscardTransmissions,
            )
            .unwrap();

        for budget in [1u64, 3, 7, 1_000] {
            let mut engine: Engine<IdSet> = Engine::new();
            let mut algo = Waiting::new();
            let mut source = seq.stream(false);
            let mut run = engine.begin_run(9, NodeId(0), IdSet::singleton, config);
            let mut slices = 0u64;
            loop {
                let outcome = engine
                    .step_for(
                        &mut run,
                        &mut algo,
                        &mut source,
                        IdSet::singleton,
                        budget,
                        &mut DiscardTransmissions,
                    )
                    .unwrap();
                slices += 1;
                match outcome {
                    StepOutcome::BudgetSpent => continue,
                    StepOutcome::Completed => break,
                    other => panic!("a star stream completes; got {other:?}"),
                }
            }
            assert_eq!(engine.finish_run(&run), expected, "budget {budget}");
            assert!(slices >= expected.interactions_processed / budget.max(1));
            assert_eq!(
                engine.state().ownership_bitmap(),
                reference.state().ownership_bitmap()
            );
        }
    }

    /// The audited plane slices like the honest one: `step_for` at any
    /// budget, with or without a crash plan, reproduces `run_audited` —
    /// the counters, the receipt log and the verdict.
    #[test]
    fn audited_step_for_slices_reproduce_run_audited() {
        use crate::byzantine::{ByzantineProfile, Tally};
        use crate::data::IdSet;
        use crate::fault::{FaultProfile, FaultedSource};

        let n = 12;
        let seq = star_sequence(n, 4);
        let config = EngineConfig::sweep(1_000);
        let injector =
            || ByzantineInjector::new(ByzantineProfile::forge(0.3), n, NodeId(0), 5).unwrap();
        let verdict = |log: &[Receipt]| {
            let mut tally = Tally::new();
            log.iter().for_each(|receipt| tally.record(*receipt));
            tally.verdict::<IdSet>()
        };
        for faults in [FaultProfile::none(), FaultProfile::crash(0.1)] {
            let crash = faults.crash;
            let source = || FaultedSource::new(seq.stream(false), faults, 9);
            let mut reference: Engine<IdSet> = Engine::new();
            let mut expected = Vec::new();
            let stats = reference
                .run_audited(
                    &mut Gathering::new(),
                    &mut source().unwrap(),
                    NodeId(0),
                    IdSet::singleton,
                    config,
                    &mut DiscardTransmissions,
                    &mut injector(),
                    &mut expected,
                )
                .unwrap();
            assert!(expected.iter().any(|r| !r.is_honest()), "crash {crash}");
            assert_eq!(stats.faults.crashes > 0, crash > 0.0);

            for budget in [1u64, 3, u64::MAX] {
                let mut engine: Engine<IdSet> = Engine::new();
                let mut injector = injector();
                let mut log = Vec::new();
                let mut discard = DiscardTransmissions;
                let mut plane = Audited::new(n, &mut discard, &mut injector, &mut log);
                let mut algo = Gathering::new();
                let mut source = source().unwrap();
                let mut run = engine.begin_run(n, NodeId(0), IdSet::singleton, config);
                while engine
                    .step_for(
                        &mut run,
                        &mut algo,
                        &mut source,
                        IdSet::singleton,
                        budget,
                        &mut plane,
                    )
                    .unwrap()
                    .can_continue()
                {}
                assert_eq!(
                    engine.finish_run(&run),
                    stats,
                    "crash {crash}, budget {budget}"
                );
                assert_eq!(log, expected, "crash {crash}, budget {budget}");
                assert_eq!(verdict(&log), verdict(&expected), "crash {crash}");
            }
        }
    }

    #[test]
    fn checkpoint_restore_continues_byte_identically() {
        use crate::data::IdSet;

        let seq = star_sequence(8, 2);
        let config = EngineConfig::sweep(1_000);
        let mut reference: Engine<IdSet> = Engine::new();
        let expected = reference
            .run(
                &mut Waiting::new(),
                &mut seq.stream(false),
                NodeId(0),
                IdSet::singleton,
                config,
                &mut DiscardTransmissions,
            )
            .unwrap();

        // Pause after 3 interactions, snapshot, then continue the run in a
        // brand-new engine restored from the snapshot.
        let mut engine: Engine<IdSet> = Engine::new();
        let mut algo = Waiting::new();
        let mut source = seq.stream(false);
        let mut run = engine.begin_run(8, NodeId(0), IdSet::singleton, config);
        let outcome = engine
            .step_for(
                &mut run,
                &mut algo,
                &mut source,
                IdSet::singleton,
                3,
                &mut DiscardTransmissions,
            )
            .unwrap();
        assert_eq!(outcome, StepOutcome::BudgetSpent);
        let snapshot = engine.checkpoint(&run);
        assert_eq!(snapshot.progress().interactions_processed(), 3);

        let mut resumed: Engine<IdSet> = Engine::new();
        let mut run = resumed.restore(&snapshot);
        while resumed
            .step_for(
                &mut run,
                &mut algo,
                &mut source,
                IdSet::singleton,
                2,
                &mut DiscardTransmissions,
            )
            .unwrap()
            .can_continue()
        {}
        assert_eq!(resumed.finish_run(&run), expected);
        assert_eq!(
            resumed.state().ownership_bitmap(),
            reference.state().ownership_bitmap()
        );
    }

    #[test]
    fn empty_source_pauses_as_exhausted_and_resumes() {
        use crate::data::Count;
        use crate::sequence::{AdversaryView, StepEvent};

        // A source backed by a queue the test refills between slices —
        // the session-inbox shape: exhaustion is a pause, not an end.
        struct Queue(std::collections::VecDeque<StepEvent>);
        impl InteractionSource for Queue {
            fn node_count(&self) -> usize {
                3
            }
            fn next_interaction(
                &mut self,
                t: Time,
                view: &AdversaryView<'_>,
            ) -> Option<Interaction> {
                self.next_event(t, view).and_then(|e| match e {
                    StepEvent::Interaction(i) => Some(i),
                    _ => None,
                })
            }
            fn next_event(&mut self, _t: Time, _v: &AdversaryView<'_>) -> Option<StepEvent> {
                self.0.pop_front()
            }
        }

        let mut engine: Engine<Count> = Engine::new();
        let mut algo = Waiting::new();
        let mut queue = Queue(std::collections::VecDeque::new());
        let mut run = engine.begin_run(3, NodeId(0), |_| Count::unit(), EngineConfig::sweep(100));
        let paused = engine
            .step_for(
                &mut run,
                &mut algo,
                &mut queue,
                |_| Count::unit(),
                10,
                &mut DiscardTransmissions,
            )
            .unwrap();
        assert_eq!(paused, StepOutcome::SourceExhausted);
        assert_eq!(run.interactions_processed(), 0);

        queue.0.push_back(StepEvent::Interaction(Interaction::new(
            NodeId(0),
            NodeId(1),
        )));
        queue.0.push_back(StepEvent::Interaction(Interaction::new(
            NodeId(0),
            NodeId(2),
        )));
        let done = engine
            .step_for(
                &mut run,
                &mut algo,
                &mut queue,
                |_| Count::unit(),
                10,
                &mut DiscardTransmissions,
            )
            .unwrap();
        assert_eq!(done, StepOutcome::Completed);
        let stats = engine.finish_run(&run);
        assert!(stats.terminated());
        assert_eq!(stats.transmissions, 2);
    }

    #[test]
    fn unfaulted_runs_report_clean_completion() {
        let seq = star_sequence(4, 1);
        let outcome = run_with_id_sets(
            &mut Waiting::new(),
            &mut seq.source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.completion, crate::outcome::Completion::Aggregated);
        assert!(outcome.faults.is_clean());

        let starved = run_with_id_sets(
            &mut Waiting::new(),
            &mut InteractionSequence::from_pairs(4, vec![(1, 2)]).source(false),
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(starved.completion, crate::outcome::Completion::Starved);
    }

    #[test]
    fn faulted_execution_applies_crash_churn_and_loss() {
        use crate::fault::{FaultProfile, FaultedSource};
        use crate::outcome::Completion;

        // A crash-heavy plan over a cycling star (everyone keeps meeting
        // the sink, so Waiting always terminates): crashes destroy some
        // data along the way, and every run must account for each origin
        // as either aggregated or lost.
        let seq = star_sequence(8, 1);
        let mut survivor_runs = 0;
        for seed in 0..10u64 {
            let profile = FaultProfile::crash(0.2);
            let mut faulted = FaultedSource::new(seq.stream(true), profile, seed).unwrap();
            let outcome = run_with_id_sets(
                &mut Waiting::new(),
                &mut faulted,
                NodeId(0),
                EngineConfig::sweep(50_000),
            )
            .unwrap();
            assert!(outcome.terminated(), "seed {seed}");
            assert!(outcome.faults.crashes >= outcome.faults.data_lost);
            let sink_set = outcome.sink_data.unwrap();
            assert_eq!(
                sink_set.len() + outcome.faults.data_lost as usize,
                8,
                "every origin is either aggregated or lost (seed {seed})"
            );
            match outcome.completion {
                Completion::AggregatedSurvivors => {
                    assert!(outcome.faults.data_lost > 0, "seed {seed}");
                    survivor_runs += 1;
                }
                Completion::Aggregated => assert_eq!(outcome.faults.data_lost, 0),
                Completion::Starved => panic!("a star stream cannot starve Waiting"),
            }
        }
        assert!(
            survivor_runs > 0,
            "a 20% crash rate must cost data in some of 10 runs"
        );
    }

    #[test]
    fn recoverable_crashes_fill_the_recovered_bin() {
        use crate::data::IdSet;
        use crate::fault::{FaultProfile, FaultedSource};

        let seq = star_sequence(8, 1);
        let mut engine: Engine<IdSet> = Engine::new();
        let mut recovered_runs = 0;
        for seed in 0..10u64 {
            let profile = FaultProfile::crash_recoverable(0.2);
            let mut faulted = FaultedSource::new(seq.stream(true), profile, seed).unwrap();
            let stats = engine
                .run(
                    &mut Waiting::new(),
                    &mut faulted,
                    NodeId(0),
                    IdSet::singleton,
                    EngineConfig::sweep(50_000),
                    &mut DiscardTransmissions,
                )
                .unwrap();
            assert_eq!(stats.faults.data_lost, 0);
            assert!(engine.state().lost_data().is_none());
            if stats.faults.data_recovered > 0 {
                assert_eq!(
                    engine.state().recovered_data().unwrap().len() as u64,
                    stats.faults.data_recovered
                );
                assert_eq!(
                    stats.completion,
                    crate::outcome::Completion::AggregatedSurvivors
                );
                recovered_runs += 1;
            }
        }
        assert!(recovered_runs > 0, "some run must recover a datum");
    }

    #[test]
    fn lossy_interactions_are_counted_and_never_seen() {
        use crate::fault::{FaultProfile, FaultedSource};

        let seq = star_sequence(5, 4_000);
        let mut faulted =
            FaultedSource::new(seq.stream(true), FaultProfile::lossy(0.5), 7).unwrap();
        let outcome = run_with_id_sets(
            &mut Waiting::new(),
            &mut faulted,
            NodeId(0),
            EngineConfig::sweep(10_000),
        )
        .unwrap();
        // Losses slow Waiting down but cannot destroy data.
        assert!(outcome.terminated());
        assert_eq!(outcome.completion, crate::outcome::Completion::Aggregated);
        assert!(outcome.faults.lost_interactions > 0);
        assert!(outcome.sink_data.unwrap().covers_all(5));
    }

    #[test]
    fn churn_arrivals_introduce_fresh_data() {
        use crate::data::Count;
        use crate::fault::{FaultProfile, FaultedSource};

        // A stream that never involves the sink: Waiting never transmits,
        // so the population churns for the whole budget and the exact
        // Count-conservation identity is checked over a long window.
        let seq = InteractionSequence::from_pairs(6, vec![(1, 2), (3, 4), (2, 5)]);
        let profile = FaultProfile::churn(0.05, 0.1);
        let mut faulted = FaultedSource::new(seq.stream(true), profile, 3).unwrap();
        let mut engine: Engine<Count> = Engine::new();
        let stats = engine
            .run(
                &mut Waiting::new(),
                &mut faulted,
                NodeId(0),
                |_| Count::unit(),
                EngineConfig::sweep(2_000),
                &mut DiscardTransmissions,
            )
            .unwrap();
        assert!(stats.faults.departures > 0);
        assert!(stats.faults.arrivals > 0);
        assert_eq!(stats.data_introduced(), 6 + stats.faults.arrivals);
        // Exact conservation: every introduced datum is at the sink, in a
        // bin, or still owned by a live node.
        let at_nodes: u64 = (0..6)
            .filter_map(|i| engine.state().data_of(NodeId(i)))
            .map(|c| c.0)
            .sum();
        let lost = engine.state().lost_data().map_or(0, |c| c.0);
        assert_eq!(at_nodes + lost, stats.data_introduced());
    }

    #[test]
    fn malformed_fault_events_are_typed_errors() {
        use crate::error::FaultError;
        use crate::sequence::StepEvent;

        struct Script(Vec<StepEvent>);
        impl InteractionSource for Script {
            fn node_count(&self) -> usize {
                4
            }
            fn next_interaction(
                &mut self,
                t: Time,
                view: &AdversaryView<'_>,
            ) -> Option<Interaction> {
                self.next_event(t, view).and_then(|e| match e {
                    StepEvent::Interaction(i) => Some(i),
                    _ => None,
                })
            }
            fn next_event(&mut self, t: Time, _view: &AdversaryView<'_>) -> Option<StepEvent> {
                self.0.get(t as usize).copied()
            }
        }

        let cases: Vec<(Vec<StepEvent>, FaultError)> = vec![
            (
                vec![StepEvent::Departure(NodeId(0))],
                FaultError::TargetsSink { node: NodeId(0) },
            ),
            (
                vec![StepEvent::Departure(NodeId(9))],
                FaultError::UnknownNode { node: NodeId(9) },
            ),
            (
                vec![
                    StepEvent::Departure(NodeId(2)),
                    StepEvent::Crash {
                        node: NodeId(2),
                        policy: CrashPolicy::DatumLost,
                    },
                ],
                FaultError::NotLive { node: NodeId(2) },
            ),
            (
                vec![StepEvent::Arrival(NodeId(1))],
                FaultError::AlreadyLive { node: NodeId(1) },
            ),
            (
                vec![
                    StepEvent::Departure(NodeId(2)),
                    StepEvent::Interaction(Interaction::new(NodeId(1), NodeId(2))),
                ],
                FaultError::DeadParticipant {
                    interaction: Interaction::new(NodeId(1), NodeId(2)),
                    node: NodeId(2),
                },
            ),
            (
                vec![
                    StepEvent::Departure(NodeId(1)),
                    StepEvent::Interaction(Interaction::new(NodeId(1), NodeId(2))),
                ],
                FaultError::DeadParticipant {
                    interaction: Interaction::new(NodeId(1), NodeId(2)),
                    node: NodeId(1),
                },
            ),
            // Out-of-range endpoints read as dead, whether or not a node
            // was ever removed, and the smaller one is named first.
            (
                vec![StepEvent::Interaction(Interaction::new(
                    NodeId(1),
                    NodeId(9),
                ))],
                FaultError::DeadParticipant {
                    interaction: Interaction::new(NodeId(1), NodeId(9)),
                    node: NodeId(9),
                },
            ),
            (
                vec![StepEvent::Interaction(Interaction::new(
                    NodeId(8),
                    NodeId(9),
                ))],
                FaultError::DeadParticipant {
                    interaction: Interaction::new(NodeId(8), NodeId(9)),
                    node: NodeId(8),
                },
            ),
            (
                vec![
                    StepEvent::Departure(NodeId(2)),
                    StepEvent::Arrival(NodeId(2)),
                    StepEvent::Interaction(Interaction::new(NodeId(1), NodeId(2))),
                    StepEvent::Interaction(Interaction::new(NodeId(3), NodeId(9))),
                ],
                FaultError::DeadParticipant {
                    interaction: Interaction::new(NodeId(3), NodeId(9)),
                    node: NodeId(9),
                },
            ),
        ];
        for (script, expected) in cases {
            let err = run_with_id_sets(
                &mut Waiting::new(),
                &mut Script(script),
                NodeId(0),
                EngineConfig::default(),
            )
            .unwrap_err();
            match err {
                EngineError::InvalidFault { cause, .. } => assert_eq!(cause, expected),
                other => panic!("expected InvalidFault, got {other:?}"),
            }
        }
    }

    #[test]
    fn crash_of_the_last_owner_terminates_as_survivors() {
        use crate::outcome::Completion;
        use crate::sequence::StepEvent;

        // Script: 2 transmits to 1 (Gathering aggregates away from the
        // sink is not possible on a star, so use an explicit pair), then
        // both non-sink owners crash — the sink is left as sole owner
        // without ever receiving anything.
        struct Script;
        impl InteractionSource for Script {
            fn node_count(&self) -> usize {
                3
            }
            fn next_interaction(
                &mut self,
                _t: Time,
                _v: &AdversaryView<'_>,
            ) -> Option<Interaction> {
                None
            }
            fn next_event(&mut self, t: Time, _v: &AdversaryView<'_>) -> Option<StepEvent> {
                match t {
                    0 => Some(StepEvent::Crash {
                        node: NodeId(1),
                        policy: CrashPolicy::DatumLost,
                    }),
                    1 => Some(StepEvent::Crash {
                        node: NodeId(2),
                        policy: CrashPolicy::DatumLost,
                    }),
                    _ => None,
                }
            }
        }
        let outcome = run_with_id_sets(
            &mut Waiting::new(),
            &mut Script,
            NodeId(0),
            EngineConfig::default(),
        )
        .unwrap();
        assert!(outcome.terminated());
        assert_eq!(outcome.termination_time, Some(1));
        assert_eq!(outcome.completion, Completion::AggregatedSurvivors);
        assert_eq!(outcome.faults.data_lost, 2);
        assert_eq!(outcome.remaining_owners(), 1);
    }

    #[test]
    fn round_execution_applies_whole_matchings() {
        use crate::data::IdSet;
        use crate::round::tests::Schedule;
        use crate::round::FlattenedRounds;

        // The outer nodes pair up first and then drain into the sink;
        // every round is one matching, applied in order.
        let mut flat = FlattenedRounds::new(Schedule {
            n: 6,
            rounds: vec![
                vec![(1, 2), (3, 4)],
                vec![(0, 1), (3, 5)],
                vec![(0, 3)],
                vec![(0, 5)],
            ],
        });
        let mut engine: Engine<IdSet> = Engine::new();
        let stats = engine
            .run(
                &mut Gathering::new(),
                &mut flat,
                NodeId(0),
                IdSet::singleton,
                EngineConfig::sweep(1_000),
                &mut DiscardTransmissions,
            )
            .unwrap();
        assert!(stats.terminated());
        assert_eq!(stats.transmissions, 5);
        // Gathering drains in 3 rounds (2 + 2 + 1 interactions). The one
        // burst pulled the whole schedule: a completed run may leave an
        // oblivious source ahead.
        assert_eq!(stats.interactions_processed, 5);
        assert_eq!(flat.rounds_pulled(), 4);
        assert!(engine.state().data_of(NodeId(0)).unwrap().covers_all(6));
    }

    #[test]
    fn singleton_rounds_match_the_pairwise_path() {
        use crate::data::IdSet;
        use crate::round::tests::Singletons;
        use crate::round::FlattenedRounds;

        let seq = star_sequence(7, 2);
        for budget in [3u64, 9, 1_000] {
            let config = EngineConfig::sweep(budget);
            let mut pairwise: Engine<IdSet> = Engine::new();
            let a = pairwise
                .run(
                    &mut Waiting::new(),
                    &mut seq.stream(false),
                    NodeId(0),
                    IdSet::singleton,
                    config,
                    &mut DiscardTransmissions,
                )
                .unwrap();
            let mut rounds: Engine<IdSet> = Engine::new();
            let mut flat = FlattenedRounds::new(Singletons(seq.stream(false)));
            let b = rounds
                .run(
                    &mut Waiting::new(),
                    &mut flat,
                    NodeId(0),
                    IdSet::singleton,
                    config,
                    &mut DiscardTransmissions,
                )
                .unwrap();
            assert_eq!(a, b, "budget {budget}");
            assert_eq!(
                pairwise.state().ownership_bitmap(),
                rounds.state().ownership_bitmap()
            );
        }
    }

    #[test]
    fn round_budget_cuts_a_round_mid_matching() {
        use crate::data::Count;
        use crate::round::tests::Schedule;
        use crate::round::FlattenedRounds;

        let mut flat = FlattenedRounds::new(Schedule {
            n: 8,
            rounds: vec![vec![(1, 2), (3, 4), (5, 6)]; 3],
        });
        let mut engine: Engine<Count> = Engine::new();
        let stats = engine
            .run(
                &mut Waiting::new(),
                &mut flat,
                NodeId(0),
                |_| Count::unit(),
                EngineConfig::sweep(5),
                &mut DiscardTransmissions,
            )
            .unwrap();
        assert!(!stats.terminated());
        assert_eq!(stats.interactions_processed, 5);
        assert_eq!(flat.rounds_pulled(), 2);
    }

    #[test]
    fn endless_empty_rounds_exhaust_instead_of_hanging() {
        use crate::data::Count;
        use crate::round::{FlattenedRounds, Matching, RoundSource, MAX_CONSECUTIVE_EMPTY_ROUNDS};

        struct AlwaysEmpty;
        impl RoundSource for AlwaysEmpty {
            fn node_count(&self) -> usize {
                4
            }
            fn next_round(
                &mut self,
                _r: Time,
                _v: &AdversaryView<'_>,
                _out: &mut Matching,
            ) -> bool {
                true
            }
            fn is_oblivious(&self) -> bool {
                true
            }
        }
        let mut flat = FlattenedRounds::new(AlwaysEmpty);
        let mut engine: Engine<Count> = Engine::new();
        let stats = engine
            .run(
                &mut Waiting::new(),
                &mut flat,
                NodeId(0),
                |_| Count::unit(),
                EngineConfig::sweep(1_000),
                &mut DiscardTransmissions,
            )
            .unwrap();
        assert!(!stats.terminated());
        assert_eq!(stats.interactions_processed, 0);
        assert_eq!(flat.rounds_pulled(), MAX_CONSECUTIVE_EMPTY_ROUNDS);
    }

    #[test]
    fn engine_records_into_a_vec_sink() {
        use crate::data::IdSet;

        let seq = star_sequence(4, 1);
        let mut engine: Engine<IdSet> = Engine::new();
        let mut algo = Waiting::new();
        let mut log: Vec<Transmission> = Vec::new();
        let stats = engine
            .run(
                &mut algo,
                &mut seq.source(false),
                NodeId(0),
                IdSet::singleton,
                // The flag is ignored by the core: the sink argument decides.
                EngineConfig::sweep(1_000),
                &mut log,
            )
            .unwrap();
        assert!(stats.terminated());
        assert_eq!(stats.transmissions, 3);
        assert_eq!(log.len(), 3);
        assert!(log.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(log.iter().all(|t| t.receiver == NodeId(0)));
    }

    #[test]
    fn audited_run_with_zero_liars_matches_the_honest_path() {
        use crate::byzantine::{ByzantineInjector, ByzantineProfile, Tally, Verdict};
        use crate::data::IdSet;

        let seq = star_sequence(7, 2);
        let config = EngineConfig::sweep(10_000);
        let mut honest: Engine<IdSet> = Engine::new();
        let expected = honest
            .run(
                &mut Waiting::new(),
                &mut seq.stream(false),
                NodeId(0),
                IdSet::singleton,
                config,
                &mut DiscardTransmissions,
            )
            .unwrap();

        let mut audited: Engine<IdSet> = Engine::new();
        let mut injector =
            ByzantineInjector::new(ByzantineProfile::forge(0.0), 7, NodeId(0), 3).unwrap();
        let mut tally = Tally::new();
        let stats = audited
            .run_audited(
                &mut Waiting::new(),
                &mut seq.stream(false),
                NodeId(0),
                IdSet::singleton,
                config,
                &mut DiscardTransmissions,
                &mut injector,
                &mut tally,
            )
            .unwrap();
        assert_eq!(stats, expected);
        assert_eq!(
            audited.state().ownership_bitmap(),
            honest.state().ownership_bitmap()
        );
        assert_eq!(
            audited.state().data_of(NodeId(0)),
            honest.state().data_of(NodeId(0))
        );
        assert_eq!(tally.transfers(), stats.transmissions);
        assert!(tally.is_clean());
        assert_eq!(tally.verdict::<IdSet>(), Verdict::Clean);
        assert_eq!(tally.carried_units(), tally.delivered_units());
    }

    #[test]
    fn forging_liars_are_detected_under_count() {
        use crate::byzantine::{ByzantineInjector, ByzantineProfile, Tally, Verdict};
        use crate::data::Count;

        let seq = star_sequence(10, 1);
        let mut engine: Engine<Count> = Engine::new();
        let mut injector =
            ByzantineInjector::new(ByzantineProfile::forge(0.3), 10, NodeId(0), 5).unwrap();
        let mut tally = Tally::new();
        let stats = engine
            .run_audited(
                &mut Waiting::new(),
                &mut seq.stream(true),
                NodeId(0),
                |_| Count::unit(),
                EngineConfig::sweep(10_000),
                &mut DiscardTransmissions,
                &mut injector,
                &mut tally,
            )
            .unwrap();
        assert!(stats.terminated());
        assert_eq!(injector.liar_count(), 3);
        assert_eq!(tally.corrupted(), 3, "every liar transmits exactly once");
        // Each forger mints one phantom unit: the exact count overshoots
        // by exactly the number of liars, and the ledger shows it.
        assert_eq!(engine.state().data_of(NodeId(0)).unwrap(), &Count(13));
        assert_eq!(tally.delivered_units(), tally.carried_units() + 3);
        assert!(matches!(tally.verdict::<Count>(), Verdict::Detected { .. }));
    }

    #[test]
    fn dropping_liars_void_their_carried_data() {
        use crate::byzantine::{ByzantineInjector, ByzantineProfile, Receipt, Tally};
        use crate::data::Count;

        let seq = star_sequence(8, 1);
        let mut engine: Engine<Count> = Engine::new();
        let mut injector =
            ByzantineInjector::new(ByzantineProfile::drop_carried(0.25), 8, NodeId(0), 11).unwrap();
        let mut log: Vec<Receipt> = Vec::new();
        let stats = engine
            .run_audited(
                &mut Waiting::new(),
                &mut seq.stream(true),
                NodeId(0),
                |_| Count::unit(),
                EngineConfig::sweep(10_000),
                &mut DiscardTransmissions,
                &mut injector,
                &mut log,
            )
            .unwrap();
        assert!(stats.terminated());
        assert_eq!(injector.liar_count(), 2);
        let dropped: Vec<&Receipt> = log.iter().filter(|r| !r.is_honest()).collect();
        assert_eq!(dropped.len(), 2);
        assert!(dropped.iter().all(|r| r.delivered_units == 0));
        // The voided bin accounts for exactly what the sink is missing.
        assert_eq!(engine.state().data_of(NodeId(0)).unwrap(), &Count(6));
        assert_eq!(engine.state().voided_data().unwrap(), &Count(2));
        // A tally over the same receipts classifies identically.
        let mut tally = Tally::new();
        for receipt in &log {
            crate::byzantine::ReceiptSink::record(&mut tally, *receipt);
        }
        assert_eq!(tally.transfers(), 7);
        assert_eq!(tally.delivered_units() + 2, tally.carried_units());
    }
}
