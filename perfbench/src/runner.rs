//! Passes over a workload's grid.
//!
//! An *untraced* pass runs every scenario through the layer's public
//! scenario entry point (`Scenario::run_reusing`, `SimScenario::run_with`,
//! `RsmScenario::run_reusing`, `run_chandra_toueg` / `run_aguilera`) on the
//! harness's work-stealing map, one reusable scratch per worker, scenarios
//! back to back. The flight recorder stays off.
//!
//! A *traced* pass runs the same scenarios with spans recorded from
//! outside around the calls into each layer: the adversary's
//! `fill_ho_sets` and the monitor's `observe_round` through wrapper types,
//! `RoundExecutor::step_observed`, `SimScenario::run_with`,
//! `ShardedLogDriver::run` / `check` and the failure-detector runners.
//! Model and rsm scenarios are driven step by step for that, and the
//! digest of a traced pass must equal the untraced one.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

use ho_core::adversary::Adversary;
use ho_core::algorithms::{LastVoting, OneThirdRule, UniformVoting};
use ho_core::executor::{RoundExecutor, RoundScratch, RunError};
use ho_core::trace::TraceMode;
use ho_core::{HoAlgorithm, ProcessSet, Round, RoundObserver};
use ho_fd::{run_aguilera, run_chandra_toueg};
use ho_harness::{
    par_map_weighted_with_policy, par_map_with_policy, AlgorithmSpec, ChunkPolicy, RsmScenario,
    Scenario, ScenarioScratch,
};
use ho_predicates::measure::SimLayerScratch;
use ho_predicates::monitor::ScenarioMonitor;
use ho_rsm::{shard_seed, FlowControl, RsmConfig, ShardedLogDriver};

use crate::alloc::thread_allocs;
use crate::host::thread_schedstat;
use crate::outcome::{fd_outcome, pass_digest, ModelFacts, Outcome, RsmFacts};
use crate::workloads::{FdAlgorithm, FdCase, Grid};

/// A span or count accumulated over a pass.
#[derive(Clone, Copy, Debug)]
pub enum Counter {
    /// Worker on-cpu time (schedstat).
    CpuNs,
    /// Worker run-queue wait (schedstat).
    WaitNs,
    /// Model: adversary, executor and monitor construction.
    SetupNs,
    /// Model: `step_observed` calls.
    StepNs,
    /// Model: rounds stepped.
    Steps,
    /// Model: allocation calls inside `step_observed`.
    StepAllocs,
    /// `fill_ho_sets` calls (model and rsm).
    FillNs,
    /// Number of `fill_ho_sets` calls.
    Fills,
    /// `observe_round` calls.
    ObserveNs,
    /// Number of `observe_round` calls.
    Observes,
    /// `SimScenario::run_with` calls.
    SimNs,
    /// Rsm: driver and adversary construction.
    RsmSetupNs,
    /// `ShardedLogDriver::run` calls.
    RsmRunNs,
    /// Allocation calls inside `ShardedLogDriver::run`.
    RsmRunAllocs,
    /// `ShardedLogDriver::check` calls.
    CheckNs,
    /// `run_chandra_toueg` calls.
    CtNs,
    /// Number of `run_chandra_toueg` calls.
    CtRuns,
    /// `run_aguilera` calls.
    AgNs,
    /// Number of `run_aguilera` calls.
    AgRuns,
}

const COUNTERS: usize = Counter::AgRuns as usize + 1;

/// Accumulated spans and counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans([u64; COUNTERS]);

impl Spans {
    /// A counter's total.
    #[must_use]
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// Adds `other` counter by counter.
    pub fn merge(&mut self, other: &Spans) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Spans> = const { RefCell::new(Spans([0; COUNTERS])) };
}

/// Every finished worker's spans for the current pass.
static TOTALS: Mutex<Spans> = Mutex::new(Spans([0; COUNTERS]));

fn add(c: Counter, v: u64) {
    LOCAL.with(|s| s.borrow_mut().0[c as usize] += v);
}

/// Adds the time since `start` to `span` and one to `calls`.
fn close(span: Counter, calls: Counter, start: Instant) {
    let ns = start.elapsed().as_nanos() as u64;
    LOCAL.with(|s| {
        let mut s = s.borrow_mut();
        s.0[span as usize] += ns;
        s.0[calls as usize] += 1;
    });
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A worker's scratch, wrapped so the worker's run-queue readings and
/// spans reach [`TOTALS`] when the harness drops it at the end of the
/// worker's batch (on the worker's own thread).
struct Worker<S> {
    scratch: S,
    sched: Option<(u64, u64)>,
}

impl<S> Worker<S> {
    fn new(scratch: S) -> Self {
        Worker {
            scratch,
            sched: thread_schedstat(),
        }
    }
}

impl<S> Drop for Worker<S> {
    fn drop(&mut self) {
        if let (Some(a), Some(b)) = (self.sched, thread_schedstat()) {
            add(Counter::CpuNs, b.0.saturating_sub(a.0));
            add(Counter::WaitNs, b.1.saturating_sub(a.1));
        }
        let local = LOCAL.with(|s| std::mem::take(&mut *s.borrow_mut()));
        TOTALS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .merge(&local);
    }
}

/// An adversary whose `fill_ho_sets` calls are timed.
struct TimedAdversary<A>(A);

impl<A: Adversary> Adversary for TimedAdversary<A> {
    fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
        let start = Instant::now();
        self.0.fill_ho_sets(r, ho);
        close(Counter::FillNs, Counter::Fills, start);
    }
}

/// A round observer whose `observe_round` calls are timed.
struct TimedObserver<O>(O);

impl<O: RoundObserver> RoundObserver for TimedObserver<O> {
    fn active(&self) -> bool {
        self.0.active()
    }

    fn observe_round(&mut self, r: Round, ho: &[ProcessSet]) {
        let start = Instant::now();
        self.0.observe_round(r, ho);
        close(Counter::ObserveNs, Counter::Observes, start);
    }
}

/// One pass over a grid.
#[derive(Debug)]
pub struct Pass {
    /// Per-scenario outcomes in grid order (released by
    /// [`Pass::release_outcomes`] once a pass is checked).
    pub outcomes: Vec<Outcome>,
    /// The pass's outcome digest.
    pub digest: u64,
    /// Scenarios that failed.
    pub failed: u64,
    /// The first failure's message.
    pub first_failure: Option<String>,
    /// Per-scenario host wall time in ns, in grid order.
    pub walls: Vec<u64>,
    /// The pass's wall time in ns.
    pub wall_ns: u64,
    /// Worker count.
    pub workers: usize,
    /// Spans and counts accumulated by the workers.
    pub spans: Spans,
    /// The calibration kernel's speed around this pass, in operations per
    /// second per thread (0 until measured; see [`crate::calib`]).
    pub speed: f64,
}

/// Runs every scenario of `grid` once on `workers` workers; `traced`
/// selects the span-recording runners.
#[must_use]
pub fn pass(grid: &Grid, workers: usize, traced: bool) -> Pass {
    *TOTALS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Spans::default();
    let policy = ChunkPolicy::default();
    let start = Instant::now();
    let results: Vec<(Outcome, u64)> = match grid {
        Grid::Model(items) if traced => par_map_with_policy(
            items,
            workers,
            policy,
            || Worker::new(RoundScratch::default()),
            |w, s| timed(|| traced_model(s, &mut w.scratch)),
        ),
        Grid::Model(items) => par_map_with_policy(
            items,
            workers,
            policy,
            || Worker::new(ScenarioScratch::default()),
            |w, s| {
                let (v, ns) = timed(|| s.run_reusing(&mut w.scratch));
                (ModelFacts::from(&v).into(), ns)
            },
        ),
        Grid::Sim(items) => par_map_with_policy(
            items,
            workers,
            policy,
            || Worker::new(SimLayerScratch::new()),
            |w, s| {
                let (v, ns) = timed(|| s.run_with(&mut w.scratch));
                if traced {
                    add(Counter::SimNs, ns);
                }
                (Outcome::from(&v), ns)
            },
        ),
        Grid::Rsm(items) if traced => par_map_weighted_with_policy(
            items,
            workers,
            policy,
            |s| s.shards.max(1),
            || Worker::new(Vec::new()),
            |w, s| timed(|| traced_rsm(s, &mut w.scratch)),
        ),
        Grid::Rsm(items) => par_map_weighted_with_policy(
            items,
            workers,
            policy,
            |s| s.shards.max(1),
            || Worker::new(ScenarioScratch::default()),
            |w, s| {
                let (v, ns) = timed(|| s.run_reusing(&mut w.scratch));
                (RsmFacts::from(&v).into(), ns)
            },
        ),
        Grid::Fd(items) => par_map_with_policy(
            items,
            workers,
            policy,
            || Worker::new(()),
            |_, case| run_fd(case, traced),
        ),
    };
    let wall_ns = elapsed_ns(start);
    let spans = std::mem::take(
        &mut *TOTALS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    let (outcomes, walls): (Vec<Outcome>, Vec<u64>) = results.into_iter().unzip();
    let mut failures = outcomes.iter().filter_map(|o| o.failure.as_ref());
    let first_failure = failures.next().cloned();
    let failed = u64::from(first_failure.is_some()) + failures.count() as u64;
    Pass {
        digest: pass_digest(&outcomes),
        failed,
        first_failure,
        outcomes,
        walls,
        wall_ns,
        workers: workers.min(grid.len()).max(1),
        spans,
        speed: 0.0,
    }
}

impl Pass {
    /// Drops the per-scenario outcomes, keeping the digest, the failure
    /// count and the timings.
    pub fn release_outcomes(&mut self) {
        self.outcomes = Vec::new();
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let r = f();
    (r, elapsed_ns(start))
}

/// Runs one failure-detector case; the run is the scenario, so its span
/// is the scenario's wall time.
fn run_fd(case: &FdCase, traced: bool) -> (Outcome, u64) {
    let (out, ns) = timed(|| match case.algorithm {
        FdAlgorithm::ChandraToueg => run_chandra_toueg(&case.scenario),
        FdAlgorithm::Aguilera => run_aguilera(&case.scenario),
    });
    if traced {
        let (span, runs) = match case.algorithm {
            FdAlgorithm::ChandraToueg => (Counter::CtNs, Counter::CtRuns),
            FdAlgorithm::Aguilera => (Counter::AgNs, Counter::AgRuns),
        };
        add(span, ns);
        add(runs, 1);
    }
    let id = || {
        format!(
            "{:?}/{}/n{}/s{}",
            case.algorithm, case.fault, case.scenario.n, case.scenario.seed
        )
    };
    (fd_outcome(&out, id), ns)
}

/// A model scenario driven round by round, with the same semantics as
/// `Scenario::run_reusing`: run until every process decides or the round
/// budget runs out, then the cooldown rounds, the checker observing
/// throughout.
fn traced_model(s: &Scenario, round: &mut RoundScratch) -> Outcome {
    match s.algorithm {
        AlgorithmSpec::OneThirdRule => traced_model_with(OneThirdRule::new(s.n), s, round),
        AlgorithmSpec::UniformVoting => traced_model_with(UniformVoting::new(s.n), s, round),
        AlgorithmSpec::LastVoting => traced_model_with(LastVoting::new(s.n), s, round),
    }
}

fn traced_model_with<A>(alg: A, s: &Scenario, round: &mut RoundScratch) -> Outcome
where
    A: HoAlgorithm<Value = u64>,
{
    let start = Instant::now();
    let mut adversary = TimedAdversary(s.adversary.build(s.n, s.seed));
    let mut exec = RoundExecutor::with_scratch(
        alg,
        s.initial_values(),
        TraceMode::Off,
        std::mem::take(round),
    );
    let mut monitor = s
        .monitor_predicates
        .then(|| TimedObserver(ScenarioMonitor::new(s.n)));
    add(Counter::SetupNs, elapsed_ns(start));

    let mut step = |exec: &mut RoundExecutor<A>| {
        let allocs = thread_allocs();
        let start = Instant::now();
        let r = exec.step_observed(&mut adversary, &mut monitor);
        close(Counter::StepNs, Counter::Steps, start);
        add(Counter::StepAllocs, thread_allocs() - allocs);
        match r {
            Err(RunError::Violation(v)) => Some(v.to_string()),
            _ => None,
        }
    };
    let everyone = ProcessSet::full(s.n);
    let mut violation = None;
    while !exec.checker().terminated(everyone) && exec.current_round().get() < s.max_rounds {
        violation = step(&mut exec);
        if violation.is_some() {
            break;
        }
    }
    let decided_round = exec
        .checker()
        .last_decision_round(everyone)
        .filter(|_| violation.is_none() && exec.checker().terminated(everyone))
        .map(Round::get);
    if violation.is_none() {
        for _ in 0..s.cooldown_rounds {
            violation = step(&mut exec);
            if violation.is_some() {
                break;
            }
        }
    }
    let facts = ModelFacts {
        decided_round,
        decision_value: exec.checker().decision_value().copied(),
        decided_processes: exec.checker().decided().len(),
        violation: violation.map(|v| format!("{}: {v}", s.id())),
        rounds_run: exec.current_round().get(),
        delivered: exec.message_stats().delivered,
        predicates: monitor.as_ref().map(|m| m.0.summary()),
    };
    *round = exec.into_scratch();
    facts.into()
}

/// A log-service scenario built and run the way `RsmScenario::run_reusing`
/// does, with the driver's `run` and `check` timed and every adversary
/// wrapped. The outcome also carries the pooled apply latencies.
fn traced_rsm(s: &RsmScenario, scratches: &mut Vec<RoundScratch>) -> Outcome {
    match s.algorithm {
        AlgorithmSpec::OneThirdRule => traced_rsm_with(|_| OneThirdRule::new(s.n), s, scratches),
        AlgorithmSpec::UniformVoting => traced_rsm_with(|_| UniformVoting::new(s.n), s, scratches),
        AlgorithmSpec::LastVoting => traced_rsm_with(|_| LastVoting::new(s.n), s, scratches),
    }
}

fn traced_rsm_with<A>(
    make: impl FnMut(usize) -> A,
    s: &RsmScenario,
    scratches: &mut Vec<RoundScratch>,
) -> Outcome
where
    A: HoAlgorithm<Value = u64>,
{
    let start = Instant::now();
    let shards = s.shards.max(1);
    let mut adversaries: Vec<Box<dyn Adversary + Send>> = (0..shards)
        .map(|k| {
            Box::new(TimedAdversary(
                s.adversary.build(s.n, shard_seed(s.seed, k)),
            )) as Box<dyn Adversary + Send>
        })
        .collect();
    let mut buffers = std::mem::take(scratches);
    buffers.resize_with(shards, RoundScratch::default);
    let mut cfg = RsmConfig::with_depth(s.depth);
    cfg.flow = if s.lease {
        FlowControl::on()
    } else {
        FlowControl::off()
    };
    let mut driver =
        ShardedLogDriver::with_scratches(make, s.workload, cfg, shards, s.seed, buffers);
    add(Counter::RsmSetupNs, elapsed_ns(start));

    let allocs = thread_allocs();
    let start = Instant::now();
    let run = driver.run(&mut adversaries, s.rounds);
    add(Counter::RsmRunNs, elapsed_ns(start));
    add(Counter::RsmRunAllocs, thread_allocs() - allocs);
    let mut violation = match run {
        Ok(()) => None,
        Err(e) => Some(e.to_string()),
    };
    let start = Instant::now();
    let check = driver.check();
    add(Counter::CheckNs, elapsed_ns(start));
    violation = violation.or(check.violation);

    let mut stats = driver.service_stats();
    let facts = RsmFacts {
        rounds_run: driver.rounds_run(),
        shards,
        violation: violation.map(|v| format!("{}: {v}", s.id())),
        slots: check.slots,
        min_slots: check.min_slots,
        noop_slots: check.noop_slots,
        commands: check.commands,
        generated: stats.generated_commands,
        requeued: stats.requeued_commands,
        takeovers: stats.lease_takeovers,
        deferred: stats.deferred_commands,
        backfill: stats.backfill_entries,
        divergent_rounds: stats.divergent_rounds,
        latency_samples: stats.latencies.len() as u64,
        latency_p50: stats.latency_percentile(50),
        latency_p99: stats.latency_percentile(99),
        latency_max: stats.latencies.last().copied(),
        delivered: driver.message_stats().delivered,
    };
    *scratches = driver.into_scratches();
    let mut outcome = Outcome::from(facts);
    outcome.latencies = std::mem::take(&mut stats.latencies);
    outcome
}
