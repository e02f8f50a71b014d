//! What one scenario produced, reduced to the deterministic fields the
//! metrics and the outcome digest are computed from.
//!
//! The digest folds every verdict's simulated facts — decision round and
//! value, rounds, delivered messages, slots and commands applied, events,
//! measured window length — in grid order. Host timings never enter it,
//! so two runs of the same code on the same seed must print the same
//! digest, and a change that only makes the code faster must not move it.

use ho_fd::FdRunOutcome;
use ho_harness::{PredicateSummary, RsmVerdict, SimVerdict, Verdict};

/// A 64-bit fold of a sequence of words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fold(u64);

impl Default for Fold {
    fn default() -> Self {
        Fold(0x243F_6A88_85A3_08D3)
    }
}

impl Fold {
    /// Folds one word in.
    pub fn word(&mut self, v: u64) {
        // SplitMix64's finaliser over (state, word).
        let mut z = (self.0.rotate_left(23) ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    /// Folds an optional word in, distinguishing `None` from every value.
    pub fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.word(1);
                self.word(v);
            }
            None => self.word(0),
        }
    }

    /// The fold so far.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The deterministic result of one scenario on any of the four layers.
/// Fields a layer does not produce stay at their defaults.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// The fold of this scenario's simulated facts.
    pub digest: u64,
    /// A safety violation, a broken theorem bound, a log-oracle violation
    /// or an agreement break.
    pub failure: Option<String>,
    /// Model and fd: every (live) process decided. Sim: the predicate
    /// window was delivered.
    pub decided: bool,
    /// Model: the round by which every process had decided.
    pub decide_round: Option<u64>,
    /// Sim: measured window length ÷ theorem bound (without slack).
    pub bound_ratio: Option<f64>,
    /// Rounds executed (rsm: summed over shard groups).
    pub rounds: u64,
    /// Messages the layer sent: delivered HO messages (model, rsm),
    /// point-to-point transmissions (sim), messages handed to the network
    /// (fd).
    pub messages: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Rsm: commands applied (longest logs).
    pub commands: u64,
    /// Rsm: slots in the longest logs.
    pub slots: u64,
    /// Rsm: no-op slots.
    pub noop_slots: u64,
    /// Rsm: commands requeued after losing their slot.
    pub requeued: u64,
    /// Rsm: backfill entries delivered.
    pub backfill: u64,
    /// Rsm: arrivals deferred by backpressure.
    pub deferred: u64,
    /// Rsm: slots batched past the lease.
    pub takeovers: u64,
    /// Sim: events dispatched.
    pub events: u64,
    /// Sim: peak scheduler queue depth.
    pub peak_queue: u64,
    /// Sim: send steps.
    pub send_steps: u64,
    /// Sim: transmissions dropped.
    pub dropped: u64,
    /// Fd: stable-storage writes.
    pub stable_writes: u64,
    /// Rsm, traced runs only: every applied command's apply latency in
    /// rounds.
    pub latencies: Vec<u64>,
}

/// The facts of a model-layer verdict, whichever runner produced them.
#[derive(Clone, Debug)]
pub struct ModelFacts {
    /// Round by which all processes decided.
    pub decided_round: Option<u64>,
    /// The common decision.
    pub decision_value: Option<u64>,
    /// Processes decided at the end.
    pub decided_processes: usize,
    /// The checker's violation, prefixed with the scenario id.
    pub violation: Option<String>,
    /// Rounds executed.
    pub rounds_run: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// The streamed predicate statistics.
    pub predicates: Option<PredicateSummary>,
}

impl From<&Verdict> for ModelFacts {
    fn from(v: &Verdict) -> Self {
        ModelFacts {
            decided_round: v.decided_round,
            decision_value: v.decision_value,
            decided_processes: v.decided_processes,
            violation: v.violation.as_ref().map(|m| format!("{}: {m}", v.id())),
            rounds_run: v.rounds_run,
            delivered: v.delivered_messages,
            predicates: v.predicates,
        }
    }
}

impl From<ModelFacts> for Outcome {
    fn from(f: ModelFacts) -> Self {
        let mut d = Fold::default();
        d.opt(f.decided_round);
        d.opt(f.decision_value);
        d.word(f.decided_processes as u64);
        d.word(u64::from(f.violation.is_some()));
        d.word(f.rounds_run);
        d.word(f.delivered);
        if let Some(p) = f.predicates {
            d.word(p.rounds);
            d.word(p.nek_rounds);
            d.opt(p.first_empty_kernel);
            d.word(p.largest_kernel_window);
            d.word(p.uniform_rounds);
            d.word(p.largest_uniform_window);
            d.opt(p.first_p2otr);
        }
        Outcome {
            digest: d.value(),
            failure: f.violation,
            decided: f.decided_round.is_some(),
            decide_round: f.decided_round,
            rounds: f.rounds_run,
            messages: f.delivered,
            delivered: f.delivered,
            ..Outcome::default()
        }
    }
}

impl From<&SimVerdict> for Outcome {
    fn from(v: &SimVerdict) -> Self {
        let mut d = Fold::default();
        d.word(u64::from(v.achieved));
        d.word(u64::from(v.within_bound));
        d.opt(v.empirical_length.map(f64::to_bits));
        d.word(v.bound.to_bits());
        d.opt(v.rho0);
        d.word(v.max_round);
        d.word(v.send_steps);
        d.word(v.transmissions);
        d.word(v.dropped);
        d.word(v.crashes);
        d.word(v.messages.delivered);
        d.word(v.events_dispatched);
        Outcome {
            digest: d.value(),
            failure: v.violation.clone(),
            decided: v.achieved,
            bound_ratio: v.empirical_length.map(|l| l / v.bound),
            messages: v.transmissions,
            delivered: v.messages.delivered,
            events: v.events_dispatched,
            peak_queue: v.peak_queue_depth,
            send_steps: v.send_steps,
            dropped: v.dropped,
            ..Outcome::default()
        }
    }
}

/// The facts of a log-service verdict, whichever runner produced them.
#[derive(Clone, Debug)]
pub struct RsmFacts {
    /// Rounds executed per group.
    pub rounds_run: u64,
    /// Shard groups.
    pub shards: usize,
    /// Slot-0 consensus or applied-log violation, prefixed with the
    /// scenario id.
    pub violation: Option<String>,
    /// Slots in the longest logs.
    pub slots: u64,
    /// Slots in the shortest logs.
    pub min_slots: u64,
    /// No-op slots.
    pub noop_slots: u64,
    /// Commands applied.
    pub commands: u64,
    /// Commands generated.
    pub generated: u64,
    /// Commands requeued.
    pub requeued: u64,
    /// Lease takeovers.
    pub takeovers: u64,
    /// Deferred arrivals.
    pub deferred: u64,
    /// Backfill entries.
    pub backfill: u64,
    /// Degraded rounds.
    pub divergent_rounds: u64,
    /// Apply-latency samples.
    pub latency_samples: u64,
    /// Median apply latency.
    pub latency_p50: Option<u64>,
    /// 99th-percentile apply latency.
    pub latency_p99: Option<u64>,
    /// Worst apply latency.
    pub latency_max: Option<u64>,
    /// Messages delivered.
    pub delivered: u64,
}

impl From<&RsmVerdict> for RsmFacts {
    fn from(v: &RsmVerdict) -> Self {
        RsmFacts {
            rounds_run: v.rounds_run,
            shards: v.shards,
            violation: v.violation.as_ref().map(|m| format!("{}: {m}", v.id())),
            slots: v.slots,
            min_slots: v.min_slots,
            noop_slots: v.noop_slots,
            commands: v.commands,
            generated: v.generated_commands,
            requeued: v.requeued_commands,
            takeovers: v.lease_takeovers,
            deferred: v.deferred_commands,
            backfill: v.backfill_entries,
            divergent_rounds: v.divergent_rounds,
            latency_samples: v.latency_samples,
            latency_p50: v.latency_p50,
            latency_p99: v.latency_p99,
            latency_max: v.latency_max,
            delivered: v.delivered_messages,
        }
    }
}

impl From<RsmFacts> for Outcome {
    fn from(f: RsmFacts) -> Self {
        let mut d = Fold::default();
        for w in [
            f.rounds_run,
            f.shards as u64,
            u64::from(f.violation.is_some()),
            f.slots,
            f.min_slots,
            f.noop_slots,
            f.commands,
            f.generated,
            f.requeued,
            f.takeovers,
            f.deferred,
            f.backfill,
            f.divergent_rounds,
            f.latency_samples,
            f.delivered,
        ] {
            d.word(w);
        }
        d.opt(f.latency_p50);
        d.opt(f.latency_p99);
        d.opt(f.latency_max);
        Outcome {
            digest: d.value(),
            failure: f.violation,
            rounds: f.rounds_run * f.shards as u64,
            messages: f.delivered,
            delivered: f.delivered,
            commands: f.commands,
            slots: f.slots,
            noop_slots: f.noop_slots,
            requeued: f.requeued,
            backfill: f.backfill,
            deferred: f.deferred,
            takeovers: f.takeovers,
            ..Outcome::default()
        }
    }
}

/// A failure-detector run's outcome; `id` names the case in the failure
/// message of a run that broke agreement.
#[must_use]
pub fn fd_outcome(o: &FdRunOutcome, id: impl FnOnce() -> String) -> Outcome {
    let mut d = Fold::default();
    d.word(o.decisions.len() as u64);
    for decision in &o.decisions {
        d.opt(*decision);
    }
    d.opt(o.all_decided_at.map(f64::to_bits));
    d.word(o.messages_sent);
    d.word(o.messages_delivered);
    d.word(o.stable_writes);
    Outcome {
        digest: d.value(),
        failure: (!o.agreement()).then(|| format!("{}: agreement broken: {:?}", id(), o.decisions)),
        decided: o.all_decided_at.is_some(),
        messages: o.messages_sent,
        delivered: o.messages_delivered,
        stable_writes: o.stable_writes,
        ..Outcome::default()
    }
}

/// The digest of a whole pass: every scenario's digest folded in grid
/// order.
#[must_use]
pub fn pass_digest(outcomes: &[Outcome]) -> u64 {
    let mut d = Fold::default();
    d.word(outcomes.len() as u64);
    for o in outcomes {
        d.word(o.digest);
    }
    d.value()
}
