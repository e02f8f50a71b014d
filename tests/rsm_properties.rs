//! Property suite for the replicated-log service: across the full
//! adversary zoo, every replica applies an identical log prefix, no
//! command is applied twice, and nothing decided is ever dropped.
//!
//! The grid is the suite's contract: 50 seeds × the full zoo ×
//! n ∈ {4, 7, 13} × pipeline depths {1, 4, 16}, checked by the
//! deterministic applied-log oracle (`ho_rsm::check_logs`) inside every
//! verdict — a violation anywhere fails the sweep. OneThirdRule carries
//! the full grid (its safety needs no communication predicate), and so
//! does LastVoting (its point-to-point phases ride the same one-broadcast
//! bundle per replica per round as OTR's); UniformVoting runs under full
//! delivery, the only environment in which pipelined replicas stay in
//! lockstep (see `ho_harness::rsm`).

use heardof::harness::{
    AdversarySpec, AlgorithmSpec, RsmReport, RsmScenario, RsmSweep, WorkloadSpec,
};
use heardof::rsm::{shard_seed, FlowControl, LogDriver, RsmConfig, ShardedLogDriver};

use heardof::core::adversary::{Adversary, RandomLoss};
use heardof::core::algorithms::OneThirdRule;
use heardof::core::contact::{contact_seed, ContactPlan, ContactPlanAdversary};

/// The full adversary zoo (every fault environment the model-layer sweep
/// knows, parameters included).
fn zoo() -> [AdversarySpec; 7] {
    [
        AdversarySpec::FullDelivery,
        AdversarySpec::RandomLoss { loss: 0.2 },
        AdversarySpec::RandomLoss { loss: 0.4 },
        AdversarySpec::Partition { blocks: 2 },
        AdversarySpec::CrashRecovery,
        AdversarySpec::KernelOnly { loss: 0.8 },
        AdversarySpec::EventuallyGood {
            bad_rounds: 6,
            loss: 0.5,
        },
    ]
}

fn assert_all_safe(report: &RsmReport) {
    assert_eq!(
        report.violations,
        0,
        "log invariants violated: {:?}",
        report
            .violating()
            .iter()
            .map(|v| (v.id(), v.violation.clone()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn otr_logs_agree_across_the_zoo_50_seeds() {
    // 7 adversaries × 3 sizes × 3 depths × 50 seeds = 3150 scenarios.
    // Every verdict runs the applied-log oracle: prefix agreement,
    // exactly-once apply, batch integrity.
    let report = RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule])
        .adversaries(zoo())
        .sizes([4, 7, 13])
        .depths([1, 4, 16])
        .workloads([WorkloadSpec::FixedRate { per_round: 2 }])
        .seeds(0..50)
        .rounds(40)
        .run();
    assert_eq!(report.scenarios, 7 * 3 * 3 * 50);
    assert_all_safe(&report);
    // The zoo may slow the log but the grid as a whole must make heavy
    // progress (full-delivery and eventually-good cells carry it).
    assert!(report.totals.commands > 100_000, "{:?}", report.totals);
}

#[test]
fn lv_logs_agree_across_the_zoo() {
    // LastVoting is safe under arbitrary faults too — coordinator phases
    // multiplexed across slots must never fork the log either.
    let report = RsmSweep::new()
        .algorithms([AlgorithmSpec::LastVoting])
        .adversaries(zoo())
        .sizes([4, 7, 13])
        .depths([1, 4, 16])
        .workloads([WorkloadSpec::ClosedLoop { clients: 8 }])
        .seeds(0..50)
        .rounds(40)
        .run();
    assert_eq!(report.scenarios, 7 * 3 * 3 * 50);
    assert_all_safe(&report);
    assert!(report.totals.commands > 0);
}

#[test]
fn uv_logs_agree_in_lockstep() {
    let report = RsmSweep::new()
        .algorithms([AlgorithmSpec::UniformVoting])
        .adversaries([AdversarySpec::FullDelivery])
        .sizes([4, 7, 13])
        .depths([1, 4, 16])
        .workloads([WorkloadSpec::SkewedKey { per_round: 2 }])
        .seeds(0..50)
        .rounds(40)
        .run();
    assert_all_safe(&report);
    assert!(report.totals.commands > 0);
}

#[test]
fn otr_logs_agree_across_the_zoo_with_leases_on_50_seeds() {
    // The flow-control contract under chaos: slot leases, adaptive
    // batching and admission backpressure change *who proposes batches*,
    // never what the oracle demands — 7 adversaries × 2 sizes × 3 depths
    // × 50 seeds, every verdict through prefix agreement, exactly-once
    // apply and batch integrity with the full stack on.
    let report = RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule])
        .adversaries(zoo())
        .sizes([4, 7])
        .depths([1, 4, 16])
        .workloads([WorkloadSpec::FixedRate { per_round: 2 }])
        .leases([true])
        .seeds(0..50)
        .rounds(40)
        .run();
    assert_eq!(report.scenarios, 7 * 2 * 3 * 50);
    assert_all_safe(&report);
    assert!(report.totals.commands > 0);
    // The tentpole's point, asserted across every full-delivery cell:
    // the leaseholder always wins its slot under symmetric delivery, so
    // no command is ever batched into a losing proposal.
    let mut full_delivery_cells = 0;
    for v in &report.verdicts {
        if v.adversary == "full_delivery" {
            full_delivery_cells += 1;
            assert_eq!(v.requeued_commands, 0, "{} requeued", v.id());
            assert_eq!(v.lease_takeovers, 0, "{} took over", v.id());
        }
    }
    assert_eq!(full_delivery_cells, 2 * 3 * 50);
}

#[test]
fn lease_off_scenarios_are_bit_identical_to_the_default_driver() {
    // `lease: false` in the sweep must reproduce today's driver exactly
    // — same slots, commands, requeues and latency tail — so the lease
    // axis is a pure before/after comparison, not a new baseline.
    for seed in [0, 7, 42] {
        let mut driver = LogDriver::new(
            OneThirdRule::new(4),
            WorkloadSpec::FixedRate { per_round: 2 },
            RsmConfig::with_depth(4),
            seed,
        );
        driver.run(&mut RandomLoss::new(0.3, seed), 60).unwrap();
        let stats = driver.service_stats();

        let v = RsmScenario {
            algorithm: AlgorithmSpec::OneThirdRule,
            adversary: AdversarySpec::RandomLoss { loss: 0.3 },
            n: 4,
            depth: 4,
            shards: 1,
            workload: WorkloadSpec::FixedRate { per_round: 2 },
            lease: false,
            seed,
            rounds: 60,
            telemetry: false,
        }
        .run();
        assert!(v.is_safe(), "seed {seed}: {:?}", v.violation);
        assert_eq!(v.commands, stats.applied_commands, "seed {seed}");
        assert_eq!(v.slots, stats.applied_slots, "seed {seed}");
        assert_eq!(v.requeued_commands, stats.requeued_commands, "seed {seed}");
        assert_eq!(
            v.generated_commands, stats.generated_commands,
            "seed {seed}"
        );
        assert_eq!(v.latency_p99, stats.latency_percentile(99), "seed {seed}");
        assert_eq!(v.lease_takeovers, 0, "seed {seed}");
        assert_eq!(v.deferred_commands, 0, "seed {seed}");
    }
}

#[test]
fn closed_loop_commands_are_conserved_with_flow_control_on() {
    // Conservation survives the full flow-control stack: deferred
    // closed-loop arrivals are retried (never shed), so after a long
    // healthy run the applied count still sits within one window of the
    // generated count, and the admission gate bounded the queue the
    // whole way.
    let mut cfg = RsmConfig::with_depth(4);
    cfg.flow = FlowControl::on();
    let mut driver = LogDriver::new(
        OneThirdRule::new(4),
        WorkloadSpec::ClosedLoop { clients: 6 },
        cfg,
        3,
    );
    driver
        .run(&mut heardof::core::adversary::FullDelivery, 100)
        .unwrap();
    let check = driver.check();
    assert!(check.is_ok(), "{:?}", check.violation);
    let stats = driver.service_stats();
    assert!(stats.applied_commands > 0);
    assert_eq!(stats.requeued_commands, 0, "leases end the churn");
    assert!(
        stats.generated_commands - stats.applied_commands <= 4 * 6,
        "generated {} vs applied {}: more than a window's worth in limbo",
        stats.generated_commands,
        stats.applied_commands
    );
}

#[test]
fn nothing_decided_is_ever_dropped() {
    // "No command dropped after decision", directly: snapshot every
    // replica's applied log mid-chaos, keep running (chaos, then healing),
    // and require every snapshot to be a prefix of the final log — applied
    // entries can never disappear or change, only extend.
    for seed in 0..10 {
        let mut driver = LogDriver::new(
            OneThirdRule::new(5),
            WorkloadSpec::FixedRate { per_round: 2 },
            RsmConfig::with_depth(4),
            seed,
        );
        let mut adv = RandomLoss::new(0.4, seed);
        let mut snapshots: Vec<Vec<Vec<u64>>> = Vec::new();
        for _ in 0..6 {
            driver.run(&mut adv, 15).unwrap();
            snapshots.push(driver.applied_logs().iter().map(|l| l.to_vec()).collect());
        }
        driver
            .run(&mut heardof::core::adversary::FullDelivery, 10)
            .unwrap();
        let check = driver.check();
        assert!(check.is_ok(), "seed {seed}: {:?}", check.violation);
        let finals = driver.applied_logs();
        for (t, snap) in snapshots.iter().enumerate() {
            for (p, log) in snap.iter().enumerate() {
                assert_eq!(
                    &finals[p][..log.len()],
                    &log[..],
                    "seed {seed}: replica {p} dropped applied entries after snapshot {t}"
                );
            }
        }
        // After healing, every replica holds the same complete log.
        assert!(finals.iter().all(|l| l.len() == finals[0].len()));
    }
}

#[test]
fn dark_replica_rejoins_without_dropping_anything() {
    // The store-and-forward contract, end to end: one replica is dark for
    // 2000 rounds while the other three keep ordering the log, then it
    // reconnects and must climb back to the frontier through bounded
    // per-bundle backfill — with nothing decided ever dropped, full
    // prefix agreement after catch-up, and the catch-up latency visible
    // as a LogDriver counter.
    for seed in [3, 11, 29] {
        let dark_len = 2000u64;
        let plan = ContactPlan::StoreAndForward {
            dark: dark_len as u32,
        };
        let n = 4;
        let dark = plan.dark_replica(seed, n).index();
        let mut cfg = RsmConfig::with_depth(4);
        // ~2 commands/round for 2600 rounds: budget the applied logs and
        // workload queues up front so reconnection cannot stall on
        // capacity growth mid-measurement.
        cfg.reserve_slots = 4096;
        cfg.reserve_commands = 8192;
        let mut driver = LogDriver::new(
            OneThirdRule::new(n),
            WorkloadSpec::FixedRate { per_round: 2 },
            cfg,
            seed,
        );
        let mut adv = ContactPlanAdversary::new(plan, seed);

        // Phase 1: darkness. The three connected replicas clear the 2/3
        // threshold and keep deciding; the dark one hears only itself,
        // so its applied log freezes while the frontier runs away.
        driver.run(&mut adv, dark_len).unwrap();
        let mid: Vec<Vec<u64>> = driver.applied_logs().iter().map(|l| l.to_vec()).collect();
        let frontier = mid.iter().map(Vec::len).max().unwrap();
        assert!(
            frontier > 100,
            "seed {seed}: the connected majority must keep ordering (frontier {frontier})"
        );
        assert!(
            mid[dark].len() < frontier / 2,
            "seed {seed}: replica {dark} was dark, its log must lag the frontier \
             ({} vs {frontier})",
            mid[dark].len()
        );
        assert!(
            !driver.converged(),
            "seed {seed}: logs diverge mid-darkness"
        );

        // Phase 2: reconnection. Backfill is capped per bundle, so the
        // climb takes at least gap/(peers × cap) rounds — give it the
        // gap's worth and require convergence well inside that.
        let gap = (frontier - mid[dark].len()) as u64;
        driver.run(&mut adv, gap + 50).unwrap();

        let check = driver.check();
        assert!(check.is_ok(), "seed {seed}: {:?}", check.violation);
        let finals = driver.applied_logs();
        // Nothing decided was dropped: every mid-darkness log is a prefix
        // of the corresponding final log.
        for (p, log) in mid.iter().enumerate() {
            assert_eq!(
                &finals[p][..log.len()],
                &log[..],
                "seed {seed}: replica {p} dropped applied entries during catch-up"
            );
        }
        // Full prefix agreement after catch-up: identical complete logs.
        assert!(
            finals.iter().all(|l| l == &finals[0]),
            "seed {seed}: logs did not reconverge after the dark replica rejoined"
        );
        assert!(driver.converged(), "seed {seed}");

        // The catch-up latency counter: convergence is dated after the
        // good suffix began, and within the committed-floor bound — the
        // dark replica adopts at least one backfilled slot per round, so
        // the climb is at most `gap` rounds long.
        let caught_up_at = driver
            .last_convergence_round()
            .expect("seed {seed}: a dark replica that rejoined must have reconverged");
        assert!(
            caught_up_at >= plan.good_from(),
            "seed {seed}: convergence at round {caught_up_at} predates reconnection"
        );
        let catch_up = caught_up_at - (plan.good_from() - 1);
        assert!(
            catch_up <= gap,
            "seed {seed}: catch-up took {catch_up} rounds for a {gap}-slot gap \
             — slower than one backfilled slot per round"
        );
        let stats = driver.service_stats();
        assert!(
            stats.backfill_entries > gap,
            "seed {seed}: the climb must ride backfill ({} entries for a {gap}-slot gap)",
            stats.backfill_entries
        );
    }
}

#[test]
fn contact_seeds_are_pinned_and_thread_count_invariant() {
    // The contact-plan decision stream is part of the reproducibility
    // contract, exactly like `shard_seed`: golden-pin the split so a
    // refactor cannot silently reshuffle every plan's block rotations,
    // contact pairs and dark replicas.
    assert_eq!(contact_seed(42, 0), 0x7d79_4cac_3b31_b670);
    assert_eq!(contact_seed(42, 1), 0xc18a_6a3e_1515_492b);
    assert_eq!(contact_seed(42, 2), 0x8a87_0c04_fc3e_fe55);
    assert_eq!(contact_seed(42, 0x5af0), 0x8627_6d88_d40d_2b7b);
    assert_eq!(contact_seed(0, 0), 0x8209_b480_faed_1b10);

    // And the derived choices stay pinned with it.
    let plan = ContactPlan::StoreAndForward { dark: 8 };
    assert_eq!(plan.dark_replica(42, 4).index(), 3);
    assert_eq!(plan.dark_replica(7, 4).index(), 2);

    // The contact-plan sweep axis must produce identical verdicts —
    // degradation metrics included — at any worker count.
    let sweep = || {
        RsmSweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule])
            .adversaries([
                AdversarySpec::ContactPlan {
                    plan: ContactPlan::Episodic {
                        dark: 3,
                        bright: 2,
                        cycles: 4,
                    },
                },
                AdversarySpec::ContactPlan {
                    plan: ContactPlan::StoreAndForward { dark: 16 },
                },
            ])
            .sizes([4])
            .depths([4])
            .shards([1, 2])
            .workloads([WorkloadSpec::FixedRate { per_round: 2 }])
            .seeds(0..4)
            .rounds(80)
    };
    let single = sweep().threads(1).run();
    let pooled = sweep().threads(4).run();
    let fingerprint = |r: &RsmReport| {
        r.verdicts
            .iter()
            .map(|v| {
                (
                    v.id(),
                    v.slots,
                    v.commands,
                    v.dark_rounds,
                    v.catch_up_rounds,
                    v.backfill_entries,
                    v.divergent_rounds,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(fingerprint(&single), fingerprint(&pooled));
    assert_eq!(single.violations, 0);
}

#[test]
fn sharded_otr_logs_agree_across_the_zoo_50_seeds() {
    // The sharded grid of the ISSUE's contract: 7 adversaries × n ∈ {4, 7}
    // × S ∈ {1, 2, 4, 8} × 50 seeds = 2800 scenarios, every verdict run
    // through the *sharded* oracle — per-shard prefix agreement and
    // exactly-once, namespace containment, cross-shard disjointness.
    let report = RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule])
        .adversaries(zoo())
        .sizes([4, 7])
        .depths([4])
        .shards([1, 2, 4, 8])
        .workloads([WorkloadSpec::FixedRate { per_round: 2 }])
        .seeds(0..50)
        .rounds(40)
        .run();
    assert_eq!(report.scenarios, 7 * 2 * 4 * 50);
    assert_all_safe(&report);
    assert!(report.totals.commands > 100_000, "{:?}", report.totals);
}

#[test]
fn one_shard_is_the_unsharded_service_in_lockstep() {
    // S = 1 must be *bit-identical* to the plain LogDriver, not merely
    // equivalent: shard 0 keeps the raw scenario seed, the solo spec keeps
    // every key, and namespacing with shard index 0 is the identity. Run
    // both services in interleaved chunks under the same fault schedule
    // and compare the applied logs after every chunk.
    for seed in [0, 7, 42] {
        let mut solo = LogDriver::new(
            OneThirdRule::new(4),
            WorkloadSpec::FixedRate { per_round: 2 },
            RsmConfig::with_depth(4),
            seed,
        );
        let mut sharded = ShardedLogDriver::new(
            |_| OneThirdRule::new(4),
            WorkloadSpec::FixedRate { per_round: 2 },
            RsmConfig::with_depth(4),
            1,
            seed,
        );
        let mut solo_adv = RandomLoss::new(0.3, seed ^ 0x5eed);
        let mut sharded_advs: Vec<Box<dyn Adversary + Send>> =
            vec![Box::new(RandomLoss::new(0.3, seed ^ 0x5eed))];
        for chunk in 0..5 {
            solo.run(&mut solo_adv, 12).unwrap();
            sharded.run(&mut sharded_advs, 12).unwrap();
            assert_eq!(
                solo.applied_logs(),
                sharded.applied_logs()[0],
                "seed {seed}: S=1 diverged from the unsharded service at chunk {chunk}"
            );
        }
        let solo_stats = solo.service_stats();
        let sharded_stats = sharded.service_stats();
        assert_eq!(
            solo_stats.generated_commands,
            sharded_stats.generated_commands
        );
        assert_eq!(solo_stats.applied_commands, sharded_stats.applied_commands);
        assert_eq!(
            solo_stats.requeued_commands,
            sharded_stats.requeued_commands
        );
        assert_eq!(sharded_stats.routed_away_commands, 0);
    }
}

#[test]
fn shard_seeds_are_pinned_and_thread_count_invariant() {
    // The per-shard seed derivation is part of the reproducibility
    // contract: golden-pin the split so a refactor cannot silently change
    // every sharded scenario's fault schedule, and require the sharded
    // sweep to produce identical verdicts at any worker count.
    assert_eq!(shard_seed(42, 0), 42, "shard 0 keeps the scenario seed");
    assert_eq!(shard_seed(42, 1), 0xbdd7_3226_2feb_6e95);
    assert_eq!(shard_seed(42, 2), 0x28ef_e333_b266_f103);
    assert_eq!(shard_seed(42, 3), 0x4752_6757_130f_9f52);

    let sweep = || {
        RsmSweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule])
            .adversaries([AdversarySpec::RandomLoss { loss: 0.3 }])
            .sizes([4])
            .depths([4])
            .shards([1, 2, 4])
            .workloads([WorkloadSpec::SkewedKey { per_round: 2 }])
            .seeds(0..4)
            .rounds(40)
    };
    let single = sweep().threads(1).run();
    let pooled = sweep().threads(4).run();
    let fingerprint = |r: &RsmReport| {
        r.verdicts
            .iter()
            .map(|v| {
                (
                    v.id(),
                    v.slots,
                    v.commands,
                    v.generated_commands,
                    v.requeued_commands,
                    v.latency_p99,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(fingerprint(&single), fingerprint(&pooled));
    assert_eq!(single.violations, 0);
}

#[test]
fn closed_loop_commands_are_conserved() {
    // Command conservation, end to end: everything a replica generated is
    // either applied (exactly once, by the oracle), still queued/in
    // flight, or was requeued and re-proposed — nothing vanishes. In a
    // closed loop after a long healthy run, the applied count must sit
    // within one window of the generated count.
    let mut driver = LogDriver::new(
        OneThirdRule::new(4),
        WorkloadSpec::ClosedLoop { clients: 6 },
        RsmConfig::with_depth(4),
        3,
    );
    driver
        .run(&mut heardof::core::adversary::FullDelivery, 100)
        .unwrap();
    let check = driver.check();
    assert!(check.is_ok(), "{:?}", check.violation);
    let stats = driver.service_stats();
    assert!(stats.applied_commands > 0);
    assert!(
        stats.generated_commands - stats.applied_commands <= 4 * 6,
        "generated {} vs applied {}: more than a window's worth in limbo",
        stats.generated_commands,
        stats.applied_commands
    );
}
