//! Proof that the round hot loop is allocation-free in steady state.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase (capacity growth, first-round payload construction), running
//! hundreds of further rounds of a broadcast algorithm must perform **zero**
//! heap allocations: mailboxes clear in place, the outbox rewrites its
//! recycled payload `Arc`s, the adversary fills a reused scratch slice, and
//! the statistics-only trace never materialises a row.
//!
//! Counting is gated on a thread-local flag set only around the measured
//! window, and the count itself is thread-local: the libtest harness's
//! main thread allocates in the background (channel and thread-bookkeeping
//! lazy init), and the `#[test]`s here run in parallel, so a process-global
//! count would flake on either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use heardof::core::adversary::{Adversary, FullDelivery, KernelOnly, RandomLoss};
use heardof::core::algorithms::{LastVoting, OneThirdRule, UniformVoting};
use heardof::core::contact::{ContactPlan, ContactPlanAdversary};
use heardof::core::executor::RoundExecutor;
use heardof::core::observer::RoundObserver;
use heardof::core::process::ProcessSet;
use heardof::core::round::Round;
use heardof::core::telemetry::Telemetry;
use heardof::core::trace::TraceMode;
use heardof::core::HoAlgorithm;
use heardof::predicates::monitor::{ScenarioMonitor, WindowMonitor};
use heardof::predicates::{Alg2Program, Alg3Program, BoundParams};
use heardof::rsm::{LogDriver, RsmConfig, WorkloadSpec};
use heardof::sim::{GoodKind, Program, Schedule, SimConfig, Simulator, TimePoint};

struct CountingAllocator;

thread_local! {
    /// Whether allocations on *this* thread are being counted.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on *this* thread. Per thread, not global: the
    /// `#[test]`s of this file run in parallel, and a shared counter would
    /// charge one test's measured window with another's allocations.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator can run during thread teardown, after the
    // thread-locals have been destroyed.
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Allocations performed by `f` on the calling thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    ALLOCS.with(Cell::get) - before
}

/// Warm an executor up, then count allocations over `rounds` further rounds.
fn steady_state_allocs<A: HoAlgorithm<Value = u64>>(
    alg: A,
    values: Vec<u64>,
    adversary: impl Adversary,
    mode: TraceMode,
    rounds: u64,
) -> u64 {
    steady_state_allocs_observed(
        alg,
        values,
        adversary,
        mode,
        20,
        rounds,
        heardof::core::observer::NullObserver,
    )
}

/// [`steady_state_allocs`] with an explicit warm-up length and a streaming
/// round observer attached for the whole run (warm-up included). Rotating-
/// coordinator algorithms need the warm-up to cover a full rotation: each
/// process's first coordinator phase grows its mailbox capacity once.
fn steady_state_allocs_observed<A: HoAlgorithm<Value = u64>>(
    alg: A,
    values: Vec<u64>,
    mut adversary: impl Adversary,
    mode: TraceMode,
    warm_rounds: u64,
    rounds: u64,
    mut observer: impl RoundObserver,
) -> u64 {
    let mut exec = RoundExecutor::with_trace_mode(alg, values, mode);
    exec.run_observed(&mut adversary, warm_rounds, &mut observer)
        .expect("warm-up safe");
    allocs_during(|| {
        exec.run_observed(&mut adversary, rounds, &mut observer)
            .expect("steady state safe")
    })
}

#[test]
fn zero_allocations_per_round_in_steady_state() {
    let n = 8;
    let values: Vec<u64> = (0..n as u64).map(|v| v % 3).collect();

    // The headline claim: a broadcast algorithm at n = 8 under the
    // statistics-only trace — the sweep configuration — allocates nothing
    // per round, under full delivery and under lossy adversaries (whose
    // HO sets churn every round).
    assert_eq!(
        steady_state_allocs(
            OneThirdRule::new(n),
            values.clone(),
            FullDelivery,
            TraceMode::Off,
            300,
        ),
        0,
        "OneThirdRule / FullDelivery / TraceMode::Off"
    );
    assert_eq!(
        steady_state_allocs(
            OneThirdRule::new(n),
            values.clone(),
            RandomLoss::new(0.4, 7),
            TraceMode::Off,
            300,
        ),
        0,
        "OneThirdRule / RandomLoss / TraceMode::Off"
    );
    assert_eq!(
        steady_state_allocs(
            UniformVoting::new(n),
            values.clone(),
            KernelOnly::new(0.8, 3),
            TraceMode::Off,
            300,
        ),
        0,
        "UniformVoting / KernelOnly / TraceMode::Off"
    );

    // A contact-plan adversary keeps the same discipline while the plan
    // is still *active*: phase arithmetic over Copy bitsets, no per-round
    // state. The cycle count pushes good_from past the measured window,
    // so every counted round runs partitioned-or-bright churn, not the
    // trivial all-up suffix.
    let episodic_forever = ContactPlan::Episodic {
        dark: 3,
        bright: 2,
        cycles: 200,
    };
    assert_eq!(
        steady_state_allocs(
            OneThirdRule::new(n),
            values.clone(),
            ContactPlanAdversary::new(episodic_forever, 7),
            TraceMode::Off,
            300,
        ),
        0,
        "OneThirdRule / ContactPlanAdversary(episodic) / TraceMode::Off"
    );

    // Past 16 mailbox entries the transition functions' mode computation
    // takes the sorted spill path — which must stay allocation-free too
    // (it sorts a stack buffer, never a heap one).
    assert_eq!(
        steady_state_allocs(
            OneThirdRule::new(24),
            (0..24u64).map(|v| v % 3).collect(),
            FullDelivery,
            TraceMode::Off,
            200,
        ),
        0,
        "OneThirdRule n=24 / FullDelivery — spilled mode_with_count path"
    );

    // A bounded trace window recycles its row buffers: still zero.
    assert_eq!(
        steady_state_allocs(
            OneThirdRule::new(n),
            values.clone(),
            RandomLoss::new(0.4, 7),
            TraceMode::Window(4),
            300,
        ),
        0,
        "OneThirdRule / RandomLoss / TraceMode::Window(4)"
    );

    // LastVoting alternates plan shapes (unicast → broadcast) across the
    // four phase offsets and rotates its coordinator every phase. The
    // outbox-wide retired-payload pool serves each displaced broadcast
    // `Arc` to whichever sender broadcasts next, the destination vectors
    // stay warm per sender, and unicast deliveries clone into payloads the
    // recipient's mailbox retired — so the steady state is **zero**, like
    // the broadcast algorithms. Steady state begins once every process has
    // coordinated a phase (its mailbox capacity grows the first time it
    // collects n estimates), so the warm-up covers a full rotation.
    let rotation = 4 * n as u64 + 4;
    assert_eq!(
        steady_state_allocs_observed(
            LastVoting::new(n),
            values.clone(),
            FullDelivery,
            TraceMode::Off,
            rotation,
            300,
            heardof::core::observer::NullObserver,
        ),
        0,
        "LastVoting / FullDelivery / TraceMode::Off"
    );
    assert_eq!(
        steady_state_allocs_observed(
            LastVoting::new(n),
            values.clone(),
            RandomLoss::new(0.4, 7),
            TraceMode::Off,
            rotation,
            300,
            heardof::core::observer::NullObserver,
        ),
        0,
        "LastVoting / RandomLoss / TraceMode::Off"
    );

    // Online predicate monitoring rides the round-observer hook without
    // breaking the zero-allocation property: the scenario statistics
    // monitor is O(1) state, and the window monitors' failure-frontier
    // ring buffers recycle. (The space-uniform window never completes
    // under this loss rate, so the window monitor streams the whole time.)
    struct Monitors {
        stats: ScenarioMonitor,
        kernel: WindowMonitor,
        uniform: WindowMonitor,
    }
    impl RoundObserver for Monitors {
        fn observe_round(&mut self, r: Round, ho: &[heardof::core::process::ProcessSet]) {
            self.stats.observe_round(r, ho);
            self.kernel.observe_round(r, ho);
            self.uniform.observe_round(r, ho);
        }
    }
    let monitors = Monitors {
        stats: ScenarioMonitor::new(n),
        kernel: WindowMonitor::kernel(ProcessSet::full(n), 3, 0.0),
        uniform: WindowMonitor::space_uniform(ProcessSet::full(n), 4, 0.0),
    };
    assert_eq!(
        steady_state_allocs_observed(
            OneThirdRule::new(n),
            values.clone(),
            RandomLoss::new(0.4, 7),
            TraceMode::Off,
            20,
            300,
            monitors,
        ),
        0,
        "OneThirdRule / RandomLoss / TraceMode::Off + active monitors"
    );

    // The flight recorder and metrics registry ride the hot loop under
    // the same discipline: with telemetry on — the ring recording every
    // round, span timers feeding the per-phase histograms — steady state
    // is still zero. The ring is fixed-capacity, so a long window makes
    // it wrap; wrap-around overwrites in place, never grows.
    let mut exec =
        RoundExecutor::with_trace_mode(OneThirdRule::new(n), values.clone(), TraceMode::Off);
    exec.set_telemetry(Telemetry::on());
    let mut adv = RandomLoss::new(0.4, 7);
    exec.run_observed(&mut adv, 20, &mut heardof::core::observer::NullObserver)
        .expect("warm-up safe");
    assert_eq!(
        allocs_during(|| {
            exec.run_observed(&mut adv, 300, &mut heardof::core::observer::NullObserver)
                .expect("steady state safe");
        }),
        0,
        "OneThirdRule / RandomLoss / TraceMode::Off + active flight recorder"
    );
    let digest = exec
        .telemetry()
        .summary()
        .expect("telemetry was installed, so a digest exists");
    assert!(
        digest.events_recorded > 0,
        "the recorder was live during the measured window"
    );
    assert!(
        digest.total_ticks() > 0,
        "the span timers measured the phases"
    );

    // Contrast: the full trace necessarily allocates (every round appends
    // a retained row). This guards against the Off/Window paths silently
    // degrading into Full.
    let full = steady_state_allocs(
        OneThirdRule::new(n),
        values,
        FullDelivery,
        TraceMode::Full,
        300,
    );
    assert!(
        full > 0,
        "TraceMode::Full retains rows, so it must allocate"
    );
}

#[test]
fn multi_slot_log_driver_zero_allocations_per_round_in_steady_state() {
    // The pipelined replicated log inherits the hot loop's allocation
    // discipline *per round, not per slot*: with `depth` slots in flight,
    // every round runs `depth` inner instances per process, multiplexes
    // them into one pooled bundle, applies decided slots and admits new
    // client commands — and once warm none of it touches the allocator.
    // The window cells, bundle entry vectors, pending queues, latency
    // sample buffers and applied logs are all pre-reserved or recycled.
    let n = 8;
    let mut cfg = RsmConfig::with_depth(4);
    // Budget the measured run explicitly: ~2 slots/round for 340 rounds
    // plus warm-up fits comfortably, so the applied log and the latency
    // samples never grow their allocation inside the window.
    cfg.reserve_slots = 2048;
    cfg.reserve_commands = 4096;

    // Open loop at 2 commands/round: slots keep deciding, batches keep
    // forming, the queue keeps draining — the full service path is hot.
    let mut driver = LogDriver::new(
        OneThirdRule::new(n),
        WorkloadSpec::FixedRate { per_round: 2 },
        cfg,
        13,
    );
    driver.run(&mut FullDelivery, 40).expect("warm-up safe");
    assert_eq!(
        allocs_during(|| driver
            .run(&mut FullDelivery, 300)
            .expect("steady state safe")),
        0,
        "LogDriver depth=4 / FixedRate / FullDelivery"
    );
    let check = driver.check();
    assert!(check.is_ok(), "{:?}", check.violation);
    assert!(check.commands > 0, "the measured window did real work");

    // Same discipline under churning HO sets (lossy rounds requeue losing
    // batches and trigger decided-entry adoption) and a deeper pipeline.
    let mut cfg = RsmConfig::with_depth(8);
    cfg.reserve_slots = 2048;
    cfg.reserve_commands = 4096;
    let mut driver = LogDriver::new(
        OneThirdRule::new(n),
        WorkloadSpec::FixedRate { per_round: 2 },
        cfg,
        13,
    );
    let mut adv = RandomLoss::new(0.25, 7);
    driver.run(&mut adv, 60).expect("warm-up safe");
    assert_eq!(
        allocs_during(|| driver.run(&mut adv, 300).expect("steady state safe")),
        0,
        "LogDriver depth=8 / FixedRate / RandomLoss(0.25)"
    );
    let check = driver.check();
    assert!(check.is_ok(), "{:?}", check.violation);

    // The disruption-tolerant path: episodic partitions keep the log
    // diverging and re-converging, so the backfill lane (bundle backfill
    // entries on the send side, decided-slot adoption on the receive
    // side) and the per-round convergence scan are all hot — and still
    // allocation-free. The plan's cycle count keeps it active for the
    // whole measured window.
    let mut cfg = RsmConfig::with_depth(4);
    cfg.reserve_slots = 2048;
    cfg.reserve_commands = 4096;
    let mut driver = LogDriver::new(
        OneThirdRule::new(n),
        WorkloadSpec::FixedRate { per_round: 2 },
        cfg,
        13,
    );
    let plan = heardof::core::contact::ContactPlan::Episodic {
        dark: 3,
        bright: 2,
        cycles: 200,
    };
    let mut adv = heardof::core::contact::ContactPlanAdversary::new(plan, 7);
    driver.run(&mut adv, 60).expect("warm-up safe");
    assert_eq!(
        allocs_during(|| driver.run(&mut adv, 300).expect("steady state safe")),
        0,
        "LogDriver depth=4 / FixedRate / ContactPlanAdversary(episodic)"
    );
    let check = driver.check();
    assert!(check.is_ok(), "{:?}", check.violation);

    // The contract holds for every inner algorithm, not only OTR's pure
    // broadcasts: LastVoting's point-to-point rounds (4φ−3, 4φ−1) ride the
    // same pooled broadcast bundle through its addressed lane, under full
    // delivery and under loss; UniformVoting broadcasts in every round.
    let mut lv_cases: Vec<(&str, Box<dyn Adversary>)> = vec![
        ("FullDelivery", Box::new(FullDelivery)),
        ("RandomLoss(0.25)", Box::new(RandomLoss::new(0.25, 7))),
    ];
    for (name, adv) in &mut lv_cases {
        let mut cfg = RsmConfig::with_depth(4);
        cfg.reserve_slots = 2048;
        cfg.reserve_commands = 4096;
        let mut driver = LogDriver::new(
            LastVoting::new(n),
            WorkloadSpec::FixedRate { per_round: 2 },
            cfg,
            13,
        );
        driver.run(adv, 60).expect("warm-up safe");
        let before = driver.check().commands;
        assert_eq!(
            allocs_during(|| driver.run(adv, 300).expect("steady state safe")),
            0,
            "LogDriver<LastVoting> depth=4 / FixedRate / {name}"
        );
        let check = driver.check();
        assert!(check.is_ok(), "{name}: {:?}", check.violation);
        assert!(
            check.commands > before,
            "{name}: the window ordered commands"
        );
    }

    let mut cfg = RsmConfig::with_depth(16);
    cfg.reserve_slots = 4096;
    cfg.reserve_commands = 4096;
    let mut driver = LogDriver::new(
        UniformVoting::new(n),
        WorkloadSpec::FixedRate { per_round: 2 },
        cfg,
        13,
    );
    driver.run(&mut FullDelivery, 60).expect("warm-up safe");
    let before = driver.check().commands;
    assert_eq!(
        allocs_during(|| driver
            .run(&mut FullDelivery, 300)
            .expect("steady state safe")),
        0,
        "LogDriver<UniformVoting> depth=16 / FixedRate / FullDelivery"
    );
    let check = driver.check();
    assert!(check.is_ok(), "{:?}", check.violation);
    assert!(check.commands > before, "the window ordered commands");
}

#[test]
fn sharded_log_driver_zero_allocations_per_round_in_steady_state() {
    // Sharding adds a router and S independent groups — and must add
    // *zero* allocator traffic: routing happens at generation (each
    // group's workload generator filters and renumbers in place), the
    // groups recycle their own scratches, and the front end holds no
    // queues. Four groups, lossy delivery, the full service path hot.
    let n = 4;
    let shards = 4;
    let mut cfg = RsmConfig::with_depth(4);
    cfg.reserve_slots = 2048;
    cfg.reserve_commands = 4096;
    let mut driver = heardof::rsm::ShardedLogDriver::new(
        |_| OneThirdRule::new(n),
        WorkloadSpec::FixedRate { per_round: 2 },
        cfg,
        shards,
        13,
    );
    // Boxing the per-shard adversaries allocates, so build them before
    // the measured window opens.
    let mut advs: Vec<Box<dyn Adversary + Send>> = (0..shards)
        .map(|s| {
            Box::new(RandomLoss::new(0.25, heardof::rsm::shard_seed(7, s)))
                as Box<dyn Adversary + Send>
        })
        .collect();
    // Sparser per-group streams (each shard keeps ~1/S of the keys) make
    // queue depths fluctuate more slowly than in the unsharded case, so
    // capacity high-water marks are reached later: warm a few hundred
    // rounds before the window opens.
    driver.run(&mut advs, 300).expect("warm-up safe");
    assert_eq!(
        allocs_during(|| driver.run(&mut advs, 300).expect("steady state safe")),
        0,
        "ShardedLogDriver S=4 / FixedRate / RandomLoss(0.25)"
    );
    let check = driver.check();
    assert!(check.is_ok(), "{:?}", check.violation);
    assert!(check.commands > 0, "the measured window did real work");
}

/// Warm a simulator up to `warm_until`, then count allocations while it
/// runs on to `measure_until`.
fn sim_steady_state_allocs<P: Program>(
    mut sim: Simulator<P>,
    warm_until: f64,
    measure_until: f64,
) -> u64 {
    sim.run_for(TimePoint::new(warm_until));
    allocs_during(|| sim.run_for(TimePoint::new(measure_until)))
}

/// Bounded record window for the measured sim programs: enough slack for
/// any batch of rounds one event can complete, small enough that the log
/// ring never grows during the measured window.
const SIM_RECORD_WINDOW: usize = 64;

#[test]
fn sim_engine_zero_allocations_per_round_in_steady_state() {
    // The system-level counterpart of the executor's headline claim: with
    // the engine fanning pooled plans out by refcount and Algorithms 2/3
    // writing payload and wire envelope through pool-backed plan slots, a
    // warmed-up simulation allocates **nothing** — event queue, buffers,
    // stored messages, mailboxes and pools all recycle. Recipients hold
    // payloads across rounds here, so this is exactly the regime PR 3's
    // executor-side pool could not serve.
    let n = 8;
    let params = BoundParams::new(n, 1.0, 2.0);

    // Algorithm 2 in a Π-down good period (everyone synchronous).
    let cfg = SimConfig::normalized(n, 1.0, 2.0).with_seed(9);
    let schedule = Schedule::always_good(ProcessSet::full(n), GoodKind::PiDown);
    let programs: Vec<Alg2Program<OneThirdRule>> = (0..n)
        .map(|p| {
            Alg2Program::new(
                OneThirdRule::new(n),
                heardof::core::process::ProcessId::new(p),
                p as u64 % 3,
                params.alg2_timeout(),
            )
            .with_record_window(SIM_RECORD_WINDOW)
        })
        .collect();
    let sim = Simulator::new(cfg, schedule, programs);
    assert_eq!(
        sim_steady_state_allocs(sim, 400.0, 800.0),
        0,
        "Alg2 / always-good / n=8"
    );

    // Algorithm 3 in a Π-arbitrary good period: rounds advance through the
    // INIT quorum machinery, so the INIT resend path is in steady state too.
    let f = 3;
    let cfg = SimConfig::normalized(n, 1.0, 2.0).with_seed(11);
    let schedule = Schedule::always_good(ProcessSet::full(n), GoodKind::PiArbitrary);
    let programs: Vec<Alg3Program<OneThirdRule>> = (0..n)
        .map(|p| {
            Alg3Program::new(
                OneThirdRule::new(n),
                heardof::core::process::ProcessId::new(p),
                p as u64 % 3,
                f,
                params.alg3_timeout(),
            )
            .with_record_window(SIM_RECORD_WINDOW)
        })
        .collect();
    let sim = Simulator::new(cfg, schedule, programs);
    assert_eq!(
        sim_steady_state_allocs(sim, 400.0, 800.0),
        0,
        "Alg3 / always-good / n=8"
    );

    // The calendar wheel with an episodic contact plan gating links
    // throughout the measured window: scheduled outages make delivery
    // bursty (dark spells queue timeouts, bright spells flood the wheel),
    // yet the node arena, bucket lists and per-recipient buffers must all
    // have reached their high-water marks during warm-up. The plan's
    // horizon (200 cycles × 5 rounds × 2.0/round = 2000) lies far past the
    // window, so the link schedule is *active*, not vacuous.
    let plan = ContactPlan::Episodic {
        dark: 3,
        bright: 2,
        cycles: 200,
    };
    let cfg = SimConfig::normalized(n, 1.0, 2.0).with_seed(13);
    assert!(matches!(cfg.scheduler, heardof::sim::SchedulerKind::Wheel));
    let link = heardof::sim::LinkSchedule::new(plan, 13, n, 2.0);
    assert!(
        link.horizon() > TimePoint::new(800.0),
        "plan outlives window"
    );
    let schedule =
        Schedule::always_good(ProcessSet::full(n), GoodKind::PiDown).with_link_schedule(link);
    let programs: Vec<Alg2Program<OneThirdRule>> = (0..n)
        .map(|p| {
            Alg2Program::new(
                OneThirdRule::new(n),
                heardof::core::process::ProcessId::new(p),
                p as u64 % 3,
                params.alg2_timeout(),
            )
            .with_record_window(SIM_RECORD_WINDOW)
        })
        .collect();
    let sim = Simulator::new(cfg, schedule, programs);
    assert_eq!(
        sim_steady_state_allocs(sim, 400.0, 800.0),
        0,
        "Alg2 / wheel / episodic contact plan / n=8"
    );

    // The system layer keeps the discipline with the flight recorder on:
    // every scheduler dispatch records an event (so the ring wraps many
    // times over a 400-time-unit window), and the measured window still
    // touches the allocator zero times.
    let cfg = SimConfig::normalized(n, 1.0, 2.0).with_seed(9);
    let schedule = Schedule::always_good(ProcessSet::full(n), GoodKind::PiDown);
    let programs: Vec<Alg2Program<OneThirdRule>> = (0..n)
        .map(|p| {
            Alg2Program::new(
                OneThirdRule::new(n),
                heardof::core::process::ProcessId::new(p),
                p as u64 % 3,
                params.alg2_timeout(),
            )
            .with_record_window(SIM_RECORD_WINDOW)
        })
        .collect();
    let mut sim = Simulator::new(cfg, schedule, programs);
    sim.set_telemetry(Telemetry::on());
    sim.run_for(TimePoint::new(400.0));
    assert_eq!(
        allocs_during(|| sim.run_for(TimePoint::new(800.0))),
        0,
        "Alg2 / always-good / n=8 + active flight recorder"
    );
    let digest = sim
        .telemetry()
        .summary()
        .expect("telemetry was installed, so a digest exists");
    assert!(
        digest.events_recorded > 0,
        "the recorder was live during the measured window"
    );
    assert!(
        digest.events_dropped > 0,
        "per-dispatch events must wrap the ring over a 400-unit window"
    );
}
