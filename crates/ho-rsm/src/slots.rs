//! The multi-slot machine: many consensus instances multiplexed over one
//! shared round runtime.
//!
//! [`MultiSlot`] turns any single-shot [`HoAlgorithm`] into a pipelined
//! replicated-log algorithm — itself an `HoAlgorithm`, so the existing
//! [`RoundExecutor`](ho_core::executor::RoundExecutor), its adversaries,
//! scratch buffers and payload pools all drive it unchanged. Where
//! `RepeatedConsensus` runs one slot at a time and ships the whole decided
//! prefix in every message, `MultiSlot` keeps a **window** of `depth`
//! slots in flight and every adversary-scheduled HO round advances *all*
//! of them: one bundle message per process per round carries one entry per
//! live slot.
//!
//! ## The window
//!
//! Replica `p`'s window is `[applied.len(), applied.len() + depth)`: the
//! contiguous run of slots it has not yet applied. Slots may *decide* out
//! of order inside the window (that is what pipelining means), but they
//! *apply* strictly in order, so the applied log is always a consistent
//! prefix. A window cell whose slot decides and applies is immediately
//! reopened for the next slot: cells are a fixed ring of `depth` entries
//! that lives for the whole run.
//!
//! ## Bundles, adoption and catch-up
//!
//! A round bundle ([`RsmMessage`]) carries, per window slot, either the
//! running instance's round message or the slot's decided value — so a
//! replica that already decided a slot keeps *teaching* the decision to
//! slower peers at zero extra cost. The bundle is always one broadcast,
//! whatever the inner algorithm does: an instance in a point-to-point
//! phase (LastVoting's rounds 4φ−3 and 4φ−1) writes its
//! `(destination, message)` pairs into the bundle's `addressed` lane, and
//! each receiver keeps only the pair addressed to itself. Replicas that
//! fall more than `depth` slots behind are served by **backfill**: every
//! bundle also carries a bounded run of applied values starting at the
//! lowest `committed` floor the sender heard, letting an isolated replica
//! re-join after the partition heals without the unbounded prefix-shipping
//! of `RepeatedConsensus`.
//!
//! ## Allocation discipline
//!
//! The bundle is written through the executor's pooled
//! [`PlanSlot`](ho_core::send_plan::PlanSlot) (entry, addressed and
//! backfill vectors recycle with the payload buffer), and each window cell
//! keeps a persistent inner [`SendPlan`] written through a state-owned
//! [`PayloadPool`] — so in steady state the pipelined log performs **zero**
//! heap allocations per round under OneThirdRule, UniformVoting and
//! LastVoting alike, however many slots are in flight
//! (`tests/alloc_steady_state.rs`).

use std::collections::VecDeque;
use std::fmt;

use ho_core::algorithm::HoAlgorithm;
use ho_core::mailbox::Mailbox;
use ho_core::pool::PayloadPool;
use ho_core::process::ProcessId;
use ho_core::round::Round;
use ho_core::send_plan::{PlanSlot, PlanSpares, SendPlan};

use crate::checker::{decode_slot_value, encode_slot_value, lease_holder};
use crate::shard::ShardSpec;
use crate::workload::{Command, WorkloadSpec, WorkloadState};

/// Service-level flow control: slot leases, adaptive batch sizing, and
/// workload backpressure.
///
/// All three mechanisms are *hints* layered above the consensus kernel —
/// they change what replicas propose and admit, never how slots decide, so
/// every safety invariant of the oracle holds with any combination of
/// settings. The default is everything **off**, which is bit-identical to
/// the pre-flow-control service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowControl {
    /// Slot-lease proposer hints: non-leaseholders propose a no-op batch
    /// instead of commands destined to lose the slot's min-value race
    /// (see [`lease_holder`]).
    pub lease: bool,
    /// Lease-timeout fallback: once any live slot here has sat undecided
    /// this many rounds, the replica re-enters contention — cells it
    /// (re)opens batch its own commands regardless of lease until the
    /// window moves again. Keeps liveness under crash / loss / contact
    /// plans when a leaseholder goes quiet. Only meaningful with `lease`.
    pub lease_timeout_rounds: u64,
    /// Adaptive batch sizing: the per-replica effective batch cap halves
    /// on a lost slot (floor 1) and recovers by one on an owned apply,
    /// bounding wasted proposal work under contention.
    pub adaptive_batch: bool,
    /// Workload backpressure: admission pauses while the pending queue
    /// holds at least this many commands, so queues stop growing when the
    /// replica is not winning slots. `None` admits unconditionally.
    pub admission_window: Option<usize>,
}

impl FlowControl {
    /// Everything off: bit-identical to the pre-flow-control service.
    #[must_use]
    pub fn off() -> Self {
        FlowControl {
            lease: false,
            lease_timeout_rounds: 8,
            adaptive_batch: false,
            admission_window: None,
        }
    }

    /// The full flow-control stack: leases (8-round takeover timeout),
    /// adaptive batching, and a two-batch admission window.
    #[must_use]
    pub fn on() -> Self {
        FlowControl {
            lease: true,
            lease_timeout_rounds: 8,
            adaptive_batch: true,
            admission_window: Some(16),
        }
    }
}

impl Default for FlowControl {
    fn default() -> Self {
        FlowControl::off()
    }
}

/// Configuration of the multi-slot machine.
#[derive(Clone, Copy, Debug)]
pub struct RsmConfig {
    /// Pipeline depth: slots in flight per replica (≥ 1).
    pub depth: usize,
    /// Maximum commands batched into one slot proposal (≥ 1).
    pub max_batch: usize,
    /// Maximum applied values backfilled per bundle for laggards.
    pub backfill: usize,
    /// Pre-reserved applied-log capacity (slots). Steady-state runs within
    /// this budget never grow the log allocation.
    pub reserve_slots: usize,
    /// Pre-reserved command capacity (pending queue, latency samples).
    pub reserve_commands: usize,
    /// The keyspace slice this group owns (solo = the whole keyspace; set
    /// per group by [`ShardedLogDriver`](crate::shard::ShardedLogDriver)).
    pub shard: ShardSpec,
    /// Service-level flow control (leases, adaptive batching,
    /// backpressure). Off by default.
    pub flow: FlowControl,
}

impl Default for RsmConfig {
    fn default() -> Self {
        RsmConfig {
            depth: 4,
            max_batch: 8,
            backfill: 8,
            reserve_slots: 1024,
            reserve_commands: 1024,
            shard: ShardSpec::solo(),
            flow: FlowControl::off(),
        }
    }
}

impl RsmConfig {
    /// A config with the given pipeline depth and defaults elsewhere.
    #[must_use]
    pub fn with_depth(depth: usize) -> Self {
        RsmConfig {
            depth,
            ..RsmConfig::default()
        }
    }
}

/// What one bundle says about one window slot.
#[derive(Clone, Debug, PartialEq)]
pub enum SlotPayload<M> {
    /// The sender decided this slot: adopt the value.
    Decided(u64),
    /// The sender's running instance's round message for this slot.
    Running(M),
    /// The sender's running instance sends point-to-point this round: its
    /// `(destination, message)` pairs are the bundle's
    /// `addressed[start..end]` (possibly none), and a receiver hears only
    /// the pair addressed to it.
    Addressed {
        /// First pair in [`RsmMessage::addressed`].
        start: usize,
        /// One past the last pair.
        end: usize,
    },
    /// The slot is live at the sender but its instance sends nothing this
    /// round.
    Open,
}

/// One window slot's line in a bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotEntry<M> {
    /// Absolute slot index.
    pub slot: u64,
    /// The sender's view of it.
    pub payload: SlotPayload<M>,
}

/// The per-round bundle: one message multiplexing every live slot, plus
/// the catch-up machinery.
#[derive(Clone, Debug, PartialEq)]
pub struct RsmMessage<M> {
    /// The sender's applied-log length (its commit floor).
    pub committed: u64,
    /// One entry per slot in the sender's window: `entries[i]` is slot
    /// `committed + i`.
    pub entries: Vec<SlotEntry<M>>,
    /// The point-to-point inner messages of every
    /// [`SlotPayload::Addressed`] entry, each entry's pairs contiguous.
    pub addressed: Vec<(ProcessId, M)>,
    /// First slot covered by `backfill`.
    pub backfill_start: u64,
    /// Applied values for laggards: slots `backfill_start..` in order.
    pub backfill: Vec<u64>,
}

impl<M> RsmMessage<M> {
    fn empty() -> Self {
        RsmMessage {
            committed: 0,
            entries: Vec::new(),
            addressed: Vec::new(),
            backfill_start: 0,
            backfill: Vec::new(),
        }
    }
}

/// One window cell: a slot's running instance (or its decision) plus this
/// replica's in-flight proposal for it.
struct Cell<A: HoAlgorithm> {
    /// Absolute slot index this cell currently hosts.
    slot: u64,
    /// `None` while the instance runs; `Some(v)` once the slot's decision
    /// is known here.
    decided: Option<u64>,
    /// The inner instance's state.
    state: A::State,
    /// Round at which this replica opened the slot.
    opened: u64,
    /// This replica's proposal value for the slot (a batch reference).
    proposal: u64,
    /// Arrival records of the proposed batch (for latency accounting and
    /// requeue on loss).
    batch: Vec<Command>,
    /// The instance's *next-round* send plan, precomputed by the previous
    /// transition (see [`MultiSlot::send`]'s contract).
    plan: SendPlan<A::Message>,
    spares: PlanSpares<A::Message>,
    /// The round `plan` was computed for (debug contract).
    planned_round: u64,
}

impl<A: HoAlgorithm> Clone for Cell<A> {
    fn clone(&self) -> Self {
        Cell {
            slot: self.slot,
            decided: self.decided,
            state: self.state.clone(),
            opened: self.opened,
            proposal: self.proposal,
            batch: self.batch.clone(),
            plan: self.plan.clone(),
            spares: self.spares.clone(),
            planned_round: self.planned_round,
        }
    }
}

impl<A: HoAlgorithm> fmt::Debug for Cell<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cell")
            .field("slot", &self.slot)
            .field("decided", &self.decided)
            .field("opened", &self.opened)
            .field("proposal", &self.proposal)
            .finish_non_exhaustive()
    }
}

/// Per-replica service counters.
#[derive(Clone, Debug, Default)]
pub struct ReplicaStats {
    /// Commands applied (all proposers).
    pub applied_commands: u64,
    /// This replica's own commands applied.
    pub own_applied_commands: u64,
    /// Commands returned to the queue because their slot decided another
    /// replica's batch.
    pub requeued_commands: u64,
    /// Backfill entries carried in bundles delivered to this replica —
    /// the catch-up traffic volume it received.
    pub backfill_received: u64,
    /// Backfill entries that newly decided a slot here (the useful subset
    /// of `backfill_received`).
    pub backfill_adopted: u64,
    /// Slots this replica batched commands into despite not holding the
    /// lease — takeover proposals made while some slot sat undecided past
    /// the lease timeout. Always 0 with leases off.
    pub lease_takeovers: u64,
    /// Apply latencies in rounds, one sample per own applied command
    /// (arrival round → apply round, retries included).
    pub latencies: Vec<u64>,
}

/// Per-replica state: the applied log, the window ring, the pending
/// command queue, and the reusable round scratch.
pub struct RsmState<A: HoAlgorithm> {
    applied: Vec<u64>,
    cells: Vec<Cell<A>>,
    pending: VecDeque<Command>,
    workload: WorkloadState,
    /// Retired inner-plan payloads, shared across the window's cells.
    pool: PayloadPool<A::Message>,
    /// Scratch mailbox refilled per slot per round.
    inner_mb: Mailbox<A::Message>,
    /// Lowest peer commit floor heard (only kept while below ours);
    /// `u64::MAX` when nobody behind us has been heard.
    lag_floor: u64,
    /// Copy of the machine's flow-control config (needed where `cfg` is
    /// out of reach: `record_decided`, `apply_ready`).
    flow: FlowControl,
    /// Effective batch cap under adaptive sizing (== `cfg.max_batch` when
    /// adaptation is off or nothing has been lost).
    cur_max_batch: usize,
    /// Whether the lease-timeout fallback is active this round: some live
    /// slot sat undecided past `flow.lease_timeout_rounds`.
    takeover: bool,
    stats: ReplicaStats,
}

/// The pieces of a replica's state that `open_cell` needs besides the cell
/// itself — split out so reopening `cells[idx]` can borrow them disjointly.
struct OpenCtx<'a> {
    pending: &'a mut VecDeque<Command>,
    stats: &'a mut ReplicaStats,
    /// Effective batch cap for this draw.
    max_batch: usize,
    lease: bool,
    takeover: bool,
}

impl<A: HoAlgorithm<Value = u64>> RsmState<A> {
    /// The applied log: one batch reference per applied slot.
    #[must_use]
    pub fn applied(&self) -> &[u64] {
        &self.applied
    }

    /// The first unapplied slot (== the window floor).
    #[must_use]
    pub fn next_apply(&self) -> u64 {
        self.applied.len() as u64
    }

    /// Slots decided but not yet applied (the out-of-order backlog).
    #[must_use]
    pub fn decided_ahead(&self) -> usize {
        self.cells.iter().filter(|c| c.decided.is_some()).count()
    }

    /// Commands queued but not yet proposed.
    #[must_use]
    pub fn pending_commands(&self) -> usize {
        self.pending.len()
    }

    /// Service counters.
    #[must_use]
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// The workload generator's state.
    #[must_use]
    pub fn workload(&self) -> &WorkloadState {
        &self.workload
    }

    /// Records slot `slot`'s decision (first write wins), requeueing this
    /// replica's in-flight batch if the slot went to somebody else.
    /// Returns whether the decision was newly recorded.
    fn record_decided(&mut self, slot: u64, value: u64) -> bool {
        let depth = self.cells.len() as u64;
        let next = self.next_apply();
        if slot < next || slot >= next + depth {
            return false;
        }
        let idx = (slot % depth) as usize;
        debug_assert_eq!(self.cells[idx].slot, slot, "window ring out of sync");
        let cell = &mut self.cells[idx];
        if cell.decided.is_some() {
            return false;
        }
        cell.decided = Some(value);
        if value != cell.proposal && !cell.batch.is_empty() {
            // Our batch lost the slot: its commands go back to the front
            // of the queue (order preserved) for a later slot.
            self.stats.requeued_commands += cell.batch.len() as u64;
            for cmd in cell.batch.drain(..).rev() {
                self.pending.push_front(cmd);
            }
            if self.flow.adaptive_batch {
                // Multiplicative decrease: contention is eating batches.
                self.cur_max_batch = (self.cur_max_batch / 2).max(1);
            }
        }
        true
    }

    /// (Re)opens `cell` for `slot`: batches pending commands into the
    /// proposal and starts a fresh inner instance.
    ///
    /// With leases on, only the slot's leaseholder batches commands —
    /// everyone else proposes a no-op, which costs nothing to lose. The
    /// takeover flag overrides the lease (a fresh init value is always
    /// safe; the lease is purely a flow hint).
    fn open_cell(inner: &A, p: ProcessId, cell: &mut Cell<A>, slot: u64, round: u64, ctx: OpenCtx) {
        cell.slot = slot;
        cell.decided = None;
        cell.opened = round;
        let owned = !ctx.lease || lease_holder(slot, inner.n()) == p.index();
        let (first, count) = if owned || ctx.takeover {
            let drawn = draw_batch(ctx.pending, ctx.max_batch, &mut cell.batch);
            if !owned && drawn.1 > 0 {
                ctx.stats.lease_takeovers += 1;
            }
            drawn
        } else {
            cell.batch.clear();
            (0, 0)
        };
        cell.proposal = encode_slot_value(slot, p.index(), first, count);
        cell.state = inner.init(p, cell.proposal);
    }

    /// The batch cap for the next draw (adaptive or configured).
    fn effective_batch(&self, max_batch: usize) -> usize {
        if self.flow.adaptive_batch {
            self.cur_max_batch
        } else {
            max_batch
        }
    }

    /// Applies every contiguously decided slot, reopening its cell for the
    /// slot one window-length ahead.
    fn apply_ready(&mut self, inner: &A, p: ProcessId, round: u64, max_batch: usize) {
        let depth = self.cells.len() as u64;
        loop {
            let next = self.next_apply();
            let idx = (next % depth) as usize;
            debug_assert_eq!(self.cells[idx].slot, next, "window ring out of sync");
            let Some(value) = self.cells[idx].decided else {
                return;
            };
            self.applied.push(value);
            let batch = decode_slot_value(next, value);
            self.stats.applied_commands += batch.count;
            if batch.proposer == p.index() {
                self.stats.own_applied_commands += batch.count;
                let cell = &self.cells[idx];
                if value == cell.proposal {
                    for cmd in &cell.batch {
                        self.stats.latencies.push(round - cmd.arrival);
                    }
                    if self.flow.adaptive_batch && batch.count > 0 {
                        // Additive increase: an owned batch landed.
                        self.cur_max_batch = (self.cur_max_batch + 1).min(max_batch);
                    }
                }
            }
            let effective = self.effective_batch(max_batch);
            Self::open_cell(
                inner,
                p,
                &mut self.cells[idx],
                next + depth,
                round,
                OpenCtx {
                    pending: &mut self.pending,
                    stats: &mut self.stats,
                    max_batch: effective,
                    lease: self.flow.lease,
                    takeover: self.takeover,
                },
            );
        }
    }
}

impl<A: HoAlgorithm> Clone for RsmState<A> {
    fn clone(&self) -> Self {
        RsmState {
            applied: self.applied.clone(),
            cells: self.cells.clone(),
            pending: self.pending.clone(),
            workload: self.workload.clone(),
            pool: self.pool.clone(),
            inner_mb: self.inner_mb.clone(),
            lag_floor: self.lag_floor,
            flow: self.flow,
            cur_max_batch: self.cur_max_batch,
            takeover: self.takeover,
            stats: self.stats.clone(),
        }
    }
}

impl<A: HoAlgorithm> fmt::Debug for RsmState<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsmState")
            .field("applied_slots", &self.applied.len())
            .field("pending", &self.pending.len())
            .field("cells", &self.cells)
            .finish_non_exhaustive()
    }
}

/// The multi-slot pipelined RSM over an inner single-shot algorithm.
///
/// The inner algorithm's value domain is fixed to `u64`: slot values are
/// packed, slot-keyed batch references
/// ([`encode_slot_value`](crate::checker::encode_slot_value)).
pub struct MultiSlot<A> {
    inner: A,
    cfg: RsmConfig,
    workload: WorkloadSpec,
    seed: u64,
}

impl<A: HoAlgorithm<Value = u64>> MultiSlot<A> {
    /// A multi-slot machine over `inner`, with per-replica workloads
    /// derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.depth == 0` or `cfg.max_batch == 0`, or if
    /// `cfg.max_batch` exceeds the packed-batch limit.
    #[must_use]
    pub fn new(inner: A, workload: WorkloadSpec, cfg: RsmConfig, seed: u64) -> Self {
        assert!(cfg.depth >= 1, "need at least one slot in flight");
        assert!(cfg.max_batch >= 1, "need room for at least one command");
        assert!(
            cfg.max_batch as u64 <= crate::checker::MAX_BATCH,
            "max_batch exceeds the packed encoding"
        );
        MultiSlot {
            inner,
            cfg,
            workload,
            seed,
        }
    }

    /// The inner algorithm.
    #[must_use]
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &RsmConfig {
        &self.cfg
    }

    /// The slot-0 proposals, one per replica — the value set the executor's
    /// consensus checker validates slot-0 decisions against. Replays only
    /// the round-0 workload tick and the first batch draw per replica
    /// (exactly what [`HoAlgorithm::init`] does before opening slot 0),
    /// without constructing full replica states.
    #[must_use]
    pub fn initial_checker_values(&self) -> Vec<u64> {
        let mut pending = VecDeque::new();
        let mut batch = Vec::new();
        let holder = lease_holder(0, self.n());
        (0..self.n())
            .map(|p| {
                if self.cfg.flow.lease && p != holder {
                    // Non-leaseholders open slot 0 with a no-op.
                    return encode_slot_value(0, p, 0, 0);
                }
                pending.clear();
                let mut workload =
                    WorkloadState::sharded(self.workload, mix(self.seed, p as u64), self.cfg.shard)
                        .gated(self.cfg.flow.admission_window);
                workload.tick(0, 0, &mut pending);
                let (first, count) = draw_batch(&mut pending, self.cfg.max_batch, &mut batch);
                encode_slot_value(0, p, first, count)
            })
            .collect()
    }

    /// Writes the round bundle into `m`, reusing its buffers.
    fn write_bundle(&self, state: &RsmState<A>, m: &mut RsmMessage<A::Message>) {
        let depth = state.cells.len() as u64;
        let next = state.next_apply();
        m.committed = next;
        m.backfill.clear();
        m.backfill_start = 0;
        if state.lag_floor < next {
            m.backfill_start = state.lag_floor;
            let end = (state.lag_floor as usize + self.cfg.backfill).min(next as usize);
            m.backfill
                .extend_from_slice(&state.applied[state.lag_floor as usize..end]);
        }
        m.entries.clear();
        m.addressed.clear();
        for slot in next..next + depth {
            let cell = &state.cells[(slot % depth) as usize];
            let payload = match cell.decided {
                Some(v) => SlotPayload::Decided(v),
                None => match &cell.plan {
                    SendPlan::Broadcast(h) => SlotPayload::Running((**h).clone()),
                    SendPlan::Unicast(pairs) => {
                        let start = m.addressed.len();
                        m.addressed.extend_from_slice(pairs);
                        SlotPayload::Addressed {
                            start,
                            end: m.addressed.len(),
                        }
                    }
                    SendPlan::Silent => SlotPayload::Open,
                },
            };
            m.entries.push(SlotEntry { slot, payload });
        }
    }

    /// Precomputes every live cell's round-`r` plan (called by the
    /// transition for `r = just-executed + 1`, and by `init` for round 1).
    fn plan_cells(&self, p: ProcessId, state: &mut RsmState<A>, r: Round) {
        for cell in &mut state.cells {
            if cell.decided.is_none() {
                let mut slot = PlanSlot::new(&mut cell.plan, &mut cell.spares, &mut state.pool);
                self.inner.send_into(r, p, &cell.state, &mut slot);
                cell.planned_round = r.get();
            }
        }
    }
}

impl<A: HoAlgorithm<Value = u64>> HoAlgorithm for MultiSlot<A> {
    type State = RsmState<A>;
    type Message = RsmMessage<A::Message>;
    type Value = u64;

    fn n(&self) -> usize {
        self.inner.n()
    }

    /// `initial_value` is ignored: proposals come from the per-replica
    /// workload generator (pass anything; see
    /// [`MultiSlot::initial_checker_values`] for the checker-facing set).
    fn init(&self, p: ProcessId, _initial_value: u64) -> RsmState<A> {
        let n = self.n();
        let mut state = RsmState {
            applied: Vec::with_capacity(self.cfg.reserve_slots),
            cells: Vec::with_capacity(self.cfg.depth),
            pending: VecDeque::with_capacity(
                self.cfg
                    .reserve_commands
                    .max(self.workload.max_per_round() * 2),
            ),
            workload: WorkloadState::sharded(
                self.workload,
                mix(self.seed, p.index() as u64),
                self.cfg.shard,
            )
            .gated(self.cfg.flow.admission_window),
            pool: PayloadPool::default(),
            inner_mb: Mailbox::with_capacity(n),
            lag_floor: u64::MAX,
            flow: self.cfg.flow,
            cur_max_batch: self.cfg.max_batch,
            takeover: false,
            stats: ReplicaStats {
                latencies: Vec::with_capacity(self.cfg.reserve_commands),
                ..ReplicaStats::default()
            },
        };
        state.workload.tick(0, 0, &mut state.pending);
        for slot in 0..self.cfg.depth as u64 {
            let mut cell = Cell {
                slot,
                decided: None,
                state: self.inner.init(p, 0),
                opened: 0,
                proposal: 0,
                batch: Vec::with_capacity(self.cfg.max_batch),
                plan: SendPlan::Silent,
                spares: PlanSpares::default(),
                planned_round: 0,
            };
            RsmState::open_cell(
                &self.inner,
                p,
                &mut cell,
                slot,
                0,
                OpenCtx {
                    pending: &mut state.pending,
                    stats: &mut state.stats,
                    max_batch: self.cfg.max_batch,
                    lease: self.cfg.flow.lease,
                    takeover: false,
                },
            );
            state.cells.push(cell);
        }
        self.plan_cells(p, &mut state, Round(1));
        state
    }

    /// The round-`r` bundle. **Contract:** `r` must be the round the state
    /// was last planned for (the round after the last executed transition;
    /// round 1 for a fresh state) — the per-cell inner plans are
    /// precomputed there, which is what keeps this `&self` method and the
    /// zero-allocation [`send_into`](HoAlgorithm::send_into) consistent.
    fn send(&self, r: Round, _p: ProcessId, state: &RsmState<A>) -> SendPlan<Self::Message> {
        debug_assert!(
            state
                .cells
                .iter()
                .all(|c| c.decided.is_some() || c.planned_round == r.get()),
            "send({r:?}) on a state planned for a different round"
        );
        let mut m = RsmMessage::empty();
        self.write_bundle(state, &mut m);
        SendPlan::broadcast(m)
    }

    fn send_into(
        &self,
        _r: Round,
        _p: ProcessId,
        state: &RsmState<A>,
        slot: &mut PlanSlot<'_, Self::Message>,
    ) -> u64 {
        slot.broadcast_with(
            || {
                let mut m = RsmMessage::empty();
                self.write_bundle(state, &mut m);
                m
            },
            |m| self.write_bundle(state, m),
        )
    }

    fn transition(
        &self,
        r: Round,
        p: ProcessId,
        state: &mut RsmState<A>,
        mb: &Mailbox<Self::Message>,
    ) {
        let round = r.get();
        let next = state.next_apply();

        // 1. Track the lowest commit floor heard from a peer still behind
        //    us: next round's bundles backfill from there.
        state.lag_floor = mb
            .messages()
            .map(|m| m.committed)
            .filter(|&c| c < next)
            .min()
            .unwrap_or(u64::MAX);

        // 2. Lease-timeout fallback: if any live slot has sat undecided
        //    past the timeout as of this round's start (a quiet
        //    leaseholder — crash, loss, or a dark contact window), this
        //    replica re-enters contention: cells (re)opened below batch
        //    its own commands regardless of lease. The flag only changes
        //    the *init values* of freshly opened cells; a running
        //    instance is never reset, so inner-algorithm safety is
        //    untouched. It clears by itself once the window moves again
        //    (reopened cells are young). Judged before this round's
        //    decisions are adopted: a stall that heals in one burst still
        //    leaves a backed-up queue worth re-entering for.
        state.takeover = state.flow.lease
            && state.cells.iter().any(|c| {
                c.decided.is_none()
                    && round.saturating_sub(c.opened) >= state.flow.lease_timeout_rounds
            });

        // 3. Adopt decisions: peers' decided window entries and backfill
        //    runs (safe by the inner algorithm's agreement — the decided
        //    value of a slot is unique).
        for (_, m) in mb.iter() {
            state.stats.backfill_received += m.backfill.len() as u64;
            for (i, &v) in m.backfill.iter().enumerate() {
                if state.record_decided(m.backfill_start + i as u64, v) {
                    state.stats.backfill_adopted += 1;
                }
            }
            for e in &m.entries {
                if let SlotPayload::Decided(v) = e.payload {
                    state.record_decided(e.slot, v);
                }
            }
        }

        // 4. Advance every still-running slot: demultiplex same-slot round
        //    messages into the scratch mailbox and run the inner T_p^r.
        let mut inner_mb = std::mem::take(&mut state.inner_mb);
        for idx in 0..state.cells.len() {
            if state.cells[idx].decided.is_some() {
                continue;
            }
            let slot = state.cells[idx].slot;
            demux(p, slot, mb, &mut inner_mb);
            let cell = &mut state.cells[idx];
            self.inner.transition(r, p, &mut cell.state, &inner_mb);
            if let Some(v) = self.inner.decision(&cell.state) {
                state.record_decided(slot, v);
            }
        }
        state.inner_mb = inner_mb;

        // 5. This round's client arrivals, then the in-order apply loop
        //    (which reopens each applied cell for the slot one window
        //    ahead, batching the freshest arrivals).
        let applied_own = state.stats.own_applied_commands;
        state.workload.tick(round, applied_own, &mut state.pending);
        state.apply_ready(&self.inner, p, round, self.cfg.max_batch);

        // 6. Precompute next round's inner plans for every live cell.
        self.plan_cells(p, state, r.next());
    }

    /// The executor-facing decision is slot 0's value: the consensus
    /// checker then validates slot-0 agreement, integrity (against
    /// [`MultiSlot::initial_checker_values`]) and irrevocability for free;
    /// whole-log invariants are the
    /// [`check_logs`](crate::checker::check_logs) oracle's job.
    fn decision(&self, state: &RsmState<A>) -> Option<u64> {
        state.applied.first().copied()
    }
}

/// Refills `inner` with the slot-`slot` round messages that the bundles in
/// `mb` carry for receiver `p`. A sender's entries start at its
/// `committed`, so the slot's entry is found by index; a sender whose
/// window does not cover the slot says nothing about it.
fn demux<M: Clone>(p: ProcessId, slot: u64, mb: &Mailbox<RsmMessage<M>>, inner: &mut Mailbox<M>) {
    inner.clear();
    for (q, m) in mb.iter() {
        let Some(e) = slot
            .checked_sub(m.committed)
            .and_then(|i| m.entries.get(usize::try_from(i).ok()?))
        else {
            continue;
        };
        debug_assert_eq!(e.slot, slot, "bundle entries are contiguous");
        match &e.payload {
            SlotPayload::Running(payload) => inner.push(q, payload.clone()),
            SlotPayload::Addressed { start, end } => {
                if let Some((_, payload)) = m.addressed[*start..*end].iter().find(|(d, _)| *d == p)
                {
                    inner.push(q, payload.clone());
                }
            }
            SlotPayload::Decided(_) | SlotPayload::Open => {}
        }
    }
}

/// Draws the next batch from the queue into `into`, returning its packed
/// `(first, count)` range.
///
/// A batch is a *contiguous* run of command indices — that is what the
/// packed value claims. The queue is ascending but can have gaps
/// (requeued commands sit in front of newer arrivals while the range
/// between them is still in flight), so batching stops at the first gap.
fn draw_batch(
    pending: &mut VecDeque<Command>,
    max_batch: usize,
    into: &mut Vec<Command>,
) -> (u64, u64) {
    into.clear();
    let first = pending.front().map_or(0, |c| c.idx);
    while into.len() < max_batch {
        match pending.front() {
            Some(c) if c.idx == first + into.len() as u64 => {
                into.push(pending.pop_front().expect("probed above"));
            }
            _ => break,
        }
    }
    (first, into.len() as u64)
}

/// SplitMix64-style mixing for per-replica workload seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ho_core::adversary::{FullDelivery, RandomLoss, Scripted};
    use ho_core::algorithms::{LastVoting, LastVotingMessage, OneThirdRule};
    use ho_core::executor::RoundExecutor;
    use ho_core::process::ProcessSet;

    use crate::checker::check_logs;

    fn machine(n: usize, depth: usize) -> MultiSlot<OneThirdRule> {
        MultiSlot::new(
            OneThirdRule::new(n),
            WorkloadSpec::FixedRate { per_round: 2 },
            RsmConfig::with_depth(depth),
            42,
        )
    }

    fn executor(n: usize, depth: usize) -> RoundExecutor<MultiSlot<OneThirdRule>> {
        let alg = machine(n, depth);
        let initial = alg.initial_checker_values();
        RoundExecutor::new(alg, initial)
    }

    fn logs(exec: &RoundExecutor<MultiSlot<OneThirdRule>>) -> Vec<Vec<u64>> {
        exec.states().iter().map(|s| s.applied().to_vec()).collect()
    }

    #[test]
    fn healthy_run_fills_the_pipeline() {
        let mut exec = executor(4, 4);
        exec.run(&mut FullDelivery, 40).unwrap();
        let all = logs(&exec);
        // OTR decides a slot two rounds after it opens; with four slots in
        // flight the service sustains ~2 slots/round after warm-up.
        for log in &all {
            assert!(log.len() >= 60, "only {} slots in 40 rounds", log.len());
            assert_eq!(log, &all[0], "lockstep replicas agree exactly");
        }
        let check = check_logs(
            &all.iter().map(Vec::as_slice).collect::<Vec<_>>(),
            4,
            RsmConfig::default().max_batch as u64,
        );
        assert!(check.is_ok(), "{:?}", check.violation);
        assert!(check.commands > 0);
    }

    #[test]
    fn deeper_pipelines_decide_more_slots() {
        let slots_at = |depth: usize| {
            let mut exec = executor(4, depth);
            exec.run(&mut FullDelivery, 30).unwrap();
            logs(&exec)[0].len()
        };
        let d1 = slots_at(1);
        let d4 = slots_at(4);
        assert!(
            d4 >= 2 * d1,
            "pipelining must scale slot throughput: depth1={d1} depth4={d4}"
        );
    }

    #[test]
    fn lossy_runs_never_fork() {
        for seed in 0..10 {
            let mut exec = executor(5, 4);
            let mut adv = RandomLoss::new(0.35, seed);
            exec.run(&mut adv, 120).unwrap();
            let all = logs(&exec);
            let check = check_logs(
                &all.iter().map(Vec::as_slice).collect::<Vec<_>>(),
                5,
                RsmConfig::default().max_batch as u64,
            );
            assert!(check.is_ok(), "seed {seed}: {:?}", check.violation);
            assert!(check.slots > 0, "seed {seed}: no progress at 35% loss");
        }
    }

    #[test]
    fn isolated_replica_catches_up_through_backfill() {
        let n = 4;
        let mut exec = executor(n, 4);
        // p3 hears only itself for 20 rounds while the quorum streams slots.
        let quorum = ProcessSet::from_indices(0..3);
        let solo = ProcessSet::from_indices([3]);
        let mut adv = Scripted::new(vec![vec![quorum, quorum, quorum, solo]; 20]);
        exec.run(&mut adv, 20).unwrap();
        let before = logs(&exec);
        assert!(
            before[0].len() > 8,
            "quorum kept deciding: {}",
            before[0].len()
        );
        assert_eq!(before[3].len(), 0, "p3 learned nothing while isolated");
        // The laggard is > depth slots behind: window entries alone cannot
        // help; the healed rounds must backfill it at `backfill` slots per
        // round until it has the whole log.
        let lag = before[0].len();
        let backfill = RsmConfig::default().backfill;
        let healing = (lag / backfill + 4) as u64 + 6;
        exec.run(&mut FullDelivery, healing).unwrap();
        let after = logs(&exec);
        assert!(
            after[3].len() >= before[0].len(),
            "p3 still behind after healing: {} < {}",
            after[3].len(),
            before[0].len()
        );
        let check = check_logs(
            &after.iter().map(Vec::as_slice).collect::<Vec<_>>(),
            n,
            RsmConfig::default().max_batch as u64,
        );
        assert!(check.is_ok(), "{:?}", check.violation);
    }

    #[test]
    fn losing_batches_are_requeued_and_eventually_applied() {
        // Closed-loop workload: every command must eventually be applied
        // exactly once even though most proposals lose their slot (n
        // replicas compete for every slot).
        let n = 5;
        let alg = MultiSlot::new(
            OneThirdRule::new(n),
            WorkloadSpec::ClosedLoop { clients: 4 },
            RsmConfig::with_depth(2),
            7,
        );
        let initial = alg.initial_checker_values();
        let mut exec = RoundExecutor::new(alg, initial);
        exec.run(&mut FullDelivery, 60).unwrap();
        let states = exec.states();
        assert!(
            states.iter().any(|s| s.stats().requeued_commands > 0),
            "competition must force requeues"
        );
        for s in states {
            // Closed loop: applied-own lags generated by at most the
            // window plus what is still in flight.
            assert!(s.stats().own_applied_commands > 0);
            assert!(!s.stats().latencies.is_empty());
        }
        let all = logs(&exec);
        let check = check_logs(
            &all.iter().map(Vec::as_slice).collect::<Vec<_>>(),
            n,
            RsmConfig::default().max_batch as u64,
        );
        assert!(check.is_ok(), "{:?}", check.violation);
    }

    #[test]
    fn slot_zero_decision_satisfies_the_executor_checker() {
        // The executor's consensus checker runs against
        // initial_checker_values: a full run must never trip it.
        let mut exec = executor(4, 4);
        exec.run(&mut FullDelivery, 10)
            .expect("checker stays green");
        assert!(exec.decisions().iter().all(Option::is_some));
    }

    #[test]
    fn initial_checker_values_match_init() {
        // The cheap derivation must track init's slot-0 proposal exactly,
        // for every workload shape.
        for workload in [
            WorkloadSpec::FixedRate { per_round: 2 },
            WorkloadSpec::Bursty {
                burst: 8,
                period: 4,
            },
            WorkloadSpec::ClosedLoop { clients: 8 },
            WorkloadSpec::SkewedKey { per_round: 3 },
        ] {
            let alg = MultiSlot::new(OneThirdRule::new(5), workload, RsmConfig::with_depth(3), 99);
            let derived = alg.initial_checker_values();
            let from_init: Vec<u64> = (0..5)
                .map(|p| alg.init(ProcessId::new(p), 0).cells[0].proposal)
                .collect();
            assert_eq!(derived, from_init, "{workload:?}");
            // Sharded configs must track too: the derivation replays the
            // same shard-filtered round-0 tick.
            let mut cfg = RsmConfig::with_depth(3);
            cfg.shard = ShardSpec::new(1, 4);
            let alg = MultiSlot::new(OneThirdRule::new(5), workload, cfg, 99);
            let derived = alg.initial_checker_values();
            let from_init: Vec<u64> = (0..5)
                .map(|p| alg.init(ProcessId::new(p), 0).cells[0].proposal)
                .collect();
            assert_eq!(derived, from_init, "sharded {workload:?}");
            // And the flow-control stack: lease gating and the admission
            // gate both shape the slot-0 proposals.
            let mut cfg = RsmConfig::with_depth(3);
            cfg.flow = FlowControl::on();
            let alg = MultiSlot::new(OneThirdRule::new(5), workload, cfg, 99);
            let derived = alg.initial_checker_values();
            let from_init: Vec<u64> = (0..5)
                .map(|p| alg.init(ProcessId::new(p), 0).cells[0].proposal)
                .collect();
            assert_eq!(derived, from_init, "flow-on {workload:?}");
        }
    }

    #[test]
    fn requeued_commands_keep_their_original_arrival() {
        // A command that loses its slot goes back to the queue with its
        // arrival stamp intact, and its eventual latency sample measures
        // client-observed latency (apply round − original arrival), not
        // time since the last requeue.
        let alg = machine(4, 1);
        let p = ProcessId::new(1);
        let mut st = alg.init(p, 0);
        let original = st.cells[0].batch.clone();
        assert_eq!(original.len(), 2, "fixed-rate 2 batches both arrivals");
        assert!(original.iter().all(|c| c.arrival == 0));
        // Slot 0 decides somebody else's batch: ours is requeued.
        let other = encode_slot_value(0, 0, 0, 1);
        assert_ne!(other, st.cells[0].proposal);
        assert!(st.record_decided(0, other));
        assert_eq!(st.stats().requeued_commands, 2);
        assert!(st.pending.iter().take(2).eq(original.iter()));
        // Applying slot 0 at round 9 reopens the cell for slot 1, which
        // redraws the requeued commands — arrival stamps still 0.
        st.apply_ready(&alg.inner, p, 9, alg.cfg.max_batch);
        assert_eq!(st.cells[0].slot, 1);
        assert!(st.cells[0].batch.starts_with(&original));
        // This time our batch wins; applying at round 12 must record
        // latency 12 (round 12 − arrival 0), not 3 (12 − reopen at 9).
        let mine = st.cells[0].proposal;
        assert!(st.record_decided(1, mine));
        st.apply_ready(&alg.inner, p, 12, alg.cfg.max_batch);
        assert_eq!(st.stats().latencies[..2], [12, 12]);
    }

    #[test]
    fn leases_eliminate_requeues_under_full_delivery() {
        // With leases on, only the slot's leaseholder batches commands —
        // and the leaseholder's value is what min-value consensus decides
        // under symmetric delivery, so nobody ever loses a batch.
        let mut cfg = RsmConfig::with_depth(4);
        cfg.flow = FlowControl::on();
        let alg = MultiSlot::new(
            OneThirdRule::new(4),
            WorkloadSpec::FixedRate { per_round: 2 },
            cfg,
            42,
        );
        let initial = alg.initial_checker_values();
        let mut exec = RoundExecutor::new(alg, initial);
        exec.run(&mut FullDelivery, 40).unwrap();
        for s in exec.states() {
            assert_eq!(s.stats().requeued_commands, 0, "leases kill requeues");
            assert_eq!(s.stats().lease_takeovers, 0, "no stalls, no takeovers");
            assert!(s.stats().applied_commands > 0);
        }
        let all = logs(&exec);
        let check = check_logs(
            &all.iter().map(Vec::as_slice).collect::<Vec<_>>(),
            4,
            RsmConfig::default().max_batch as u64,
        );
        assert!(check.is_ok(), "{:?}", check.violation);
        assert!(check.commands > 0);
    }

    #[test]
    fn lease_takeover_reenters_contention_after_a_stall() {
        // Black out every HO set long enough to trip the lease timeout:
        // once rounds flow again, replicas re-opening cells batch their
        // own commands past the lease (and the log stays safe).
        let mut cfg = RsmConfig::with_depth(2);
        cfg.flow = FlowControl::on();
        cfg.flow.lease_timeout_rounds = 2;
        let alg = MultiSlot::new(
            OneThirdRule::new(4),
            WorkloadSpec::FixedRate { per_round: 2 },
            cfg,
            42,
        );
        let initial = alg.initial_checker_values();
        let mut exec = RoundExecutor::new(alg, initial);
        let dark = ProcessSet::from_indices([]);
        let mut stall = Scripted::new(vec![vec![dark; 4]; 4]);
        exec.run(&mut stall, 4).unwrap();
        exec.run(&mut FullDelivery, 30).unwrap();
        let takeovers: u64 = exec
            .states()
            .iter()
            .map(|s| s.stats().lease_takeovers)
            .sum();
        assert!(takeovers > 0, "the timeout fallback must fire");
        let all = logs(&exec);
        let check = check_logs(
            &all.iter().map(Vec::as_slice).collect::<Vec<_>>(),
            4,
            RsmConfig::default().max_batch as u64,
        );
        assert!(check.is_ok(), "{:?}", check.violation);
        assert!(check.commands > 0, "the service recovered");
    }

    #[test]
    fn adaptive_batching_shrinks_on_loss_and_recovers_on_apply() {
        let mut cfg = RsmConfig::with_depth(1);
        cfg.flow.adaptive_batch = true;
        let alg = MultiSlot::new(
            OneThirdRule::new(4),
            WorkloadSpec::FixedRate { per_round: 2 },
            cfg,
            42,
        );
        let p = ProcessId::new(1);
        let mut st = alg.init(p, 0);
        assert_eq!(st.cur_max_batch, cfg.max_batch);
        // Losing a slot with a live batch halves the cap.
        assert!(st.record_decided(0, encode_slot_value(0, 0, 0, 1)));
        assert_eq!(st.cur_max_batch, cfg.max_batch / 2);
        st.apply_ready(&alg.inner, p, 3, cfg.max_batch);
        // Winning an owned slot recovers the cap by one.
        let mine = st.cells[0].proposal;
        assert!(decode_slot_value(1, mine).count > 0, "requeue redrawn");
        assert!(st.record_decided(1, mine));
        let mut next_idx = 2;
        let mut refill = |st: &mut RsmState<OneThirdRule>| {
            for _ in 0..2 {
                st.pending.push_back(Command {
                    idx: next_idx,
                    key: 0,
                    arrival: 0,
                });
                next_idx += 1;
            }
        };
        refill(&mut st);
        st.apply_ready(&alg.inner, p, 5, cfg.max_batch);
        assert_eq!(st.cur_max_batch, cfg.max_batch / 2 + 1);
        // Repeated losses (each with a live batch in flight) floor the
        // cap at one command per batch.
        for slot in 2..12 {
            assert!(!st.cells[0].batch.is_empty(), "slot {slot} has a batch");
            assert!(st.record_decided(slot, encode_slot_value(slot, 0, 0, 1)));
            refill(&mut st);
            st.apply_ready(&alg.inner, p, 6 + slot, cfg.max_batch);
        }
        assert_eq!(st.cur_max_batch, 1);
    }

    #[test]
    fn flow_control_default_is_off_and_matches_the_legacy_driver() {
        // `FlowControl::off()` is the `Default`, and a default-config run
        // is exactly the pre-flow-control service (counter-for-counter) —
        // the bit-identity anchor the lease axis is measured against.
        assert_eq!(FlowControl::default(), FlowControl::off());
        let run = |flow: FlowControl| {
            let mut cfg = RsmConfig::with_depth(4);
            cfg.flow = flow;
            let alg = MultiSlot::new(
                OneThirdRule::new(5),
                WorkloadSpec::ClosedLoop { clients: 4 },
                cfg,
                7,
            );
            let initial = alg.initial_checker_values();
            let mut exec = RoundExecutor::new(alg, initial);
            let mut adv = RandomLoss::new(0.3, 9);
            exec.run(&mut adv, 60).unwrap();
            let stats: Vec<_> = exec
                .states()
                .iter()
                .map(|s| {
                    (
                        s.stats().applied_commands,
                        s.stats().requeued_commands,
                        s.stats().latencies.clone(),
                    )
                })
                .collect();
            (logs(&exec), stats)
        };
        assert_eq!(run(FlowControl::default()), run(FlowControl::off()));
    }

    #[test]
    fn point_to_point_rounds_ride_one_broadcast_bundle() {
        // Round 1 is LastVoting's 4φ−3 of phase 1: every live slot's
        // instance sends its estimate to the coordinator only. The bundle
        // is still one broadcast; the coordinator demultiplexes every
        // heard peer's estimate out of it, everybody else hears none.
        let n = 4;
        let alg = MultiSlot::new(
            LastVoting::new(n),
            WorkloadSpec::FixedRate { per_round: 2 },
            RsmConfig::with_depth(4),
            42,
        );
        let coord = alg.inner().coord(1);
        let hearing = [0, 1, 3];
        let states: Vec<_> = (0..n).map(|q| alg.init(ProcessId::new(q), 0)).collect();
        let mut mb = Mailbox::with_capacity(n);
        for &q in &hearing {
            let plan = alg.send(Round(1), ProcessId::new(q), &states[q]);
            let bundle = plan.broadcast_payload().expect("the bundle is a broadcast");
            mb.push(ProcessId::new(q), bundle.clone());
        }
        let mut inner = Mailbox::with_capacity(n);
        for slot in 0..4 {
            demux(coord, slot, &mb, &mut inner);
            let heard: Vec<_> = inner.iter().map(|(q, m)| (q.index(), m.clone())).collect();
            let expected: Vec<_> = hearing
                .iter()
                .map(|&q| {
                    let x = states[q].cells[slot as usize].proposal;
                    (q, LastVotingMessage::Estimate(x, 0))
                })
                .collect();
            assert_eq!(heard, expected, "coordinator, slot {slot}");
            for p in (0..n).map(ProcessId::new).filter(|&p| p != coord) {
                demux(p, slot, &mb, &mut inner);
                assert!(inner.is_empty(), "{p} is not the coordinator, slot {slot}");
            }
        }
    }

    #[test]
    fn bundle_entries_are_found_by_index_from_the_senders_floor() {
        // Senders' windows start behind (8), level with (10) and ahead of
        // (12) a receiver whose window is 10..14. Entry i of a bundle is
        // slot `committed + i`; a slot outside the sender's window is
        // skipped.
        let bundle = |committed: u64| RsmMessage {
            committed,
            entries: (committed..committed + 4)
                .map(|slot| SlotEntry {
                    slot,
                    payload: SlotPayload::Running(slot * 100 + committed),
                })
                .collect(),
            addressed: Vec::new(),
            backfill_start: 0,
            backfill: Vec::new(),
        };
        let mut mb = Mailbox::with_capacity(3);
        for (q, committed) in [8, 10, 12].into_iter().enumerate() {
            mb.push(ProcessId::new(q), bundle(committed));
        }
        let mut inner = Mailbox::with_capacity(3);
        let mut heard = |slot: u64| {
            demux(ProcessId::new(1), slot, &mb, &mut inner);
            inner
                .iter()
                .map(|(q, &m)| (q.index(), m))
                .collect::<Vec<_>>()
        };
        assert_eq!(heard(10), [(0, 1008), (1, 1010)]);
        assert_eq!(heard(11), [(0, 1108), (1, 1110)]);
        assert_eq!(heard(12), [(1, 1210), (2, 1212)]);
        assert_eq!(heard(13), [(1, 1310), (2, 1312)]);
        assert_eq!(heard(7), [], "below every sender's floor");
        assert_eq!(heard(16), [], "past every sender's window");
    }

    #[test]
    fn state_accessors_and_debug() {
        let alg = machine(3, 2);
        let st = alg.init(ProcessId::new(1), 0);
        assert_eq!(st.next_apply(), 0);
        assert_eq!(st.decided_ahead(), 0);
        assert!(st.applied().is_empty());
        let _ = st.workload();
        let _ = format!("{st:?}");
        let cloned = st.clone();
        assert_eq!(cloned.next_apply(), 0);
    }
}
