//! SW — the scenario sweep: the correctness report behind `BENCH_sweep.json`.
//!
//! Defines the canonical scenario grids (every algorithm, the full fault
//! zoo, three system sizes, forty seeds on the model layer; Algorithms 2
//! and 3 on the sim layer; the replicated log, sharded and unsharded; the
//! contact plans on all three) and [`SECTIONS`], the one table the report
//! is built from. Each row names a section, builds its grids (thinned for
//! the CI smoke run), and runs them into the section's document fields
//! plus its gate failures, computed from the typed reports. The document,
//! the smoke exit code, `--rsm` and the `--scenario` lookup all iterate
//! that table.
//!
//! The report carries no host timing: two runs on one host differ only in
//! the raw tick counts under `telemetry.phases`. Throughput is measured by
//! the `perfbench` package, whose workloads `BENCHMARK.json` declares.
//!
//! Regenerate with `cargo run --release -p bench --bin sweep`; `--smoke`
//! runs the thinned grids for CI.

use std::collections::BTreeMap;
use std::ops::Range;

use ho_core::adversary::Adversary as _;
use ho_core::{ContactPlan, ContactPlanAdversary, ProcessSet, Round};
use ho_harness::{
    forensic_artifact_json, predicate_totals_json, repro_command, rsm_report_json,
    rsm_verdict_json, sim_report_json, sim_verdict_json, telemetry_summary_json, verdict_json,
    AdversarySpec, AlgorithmSpec, Event, ImplementationSpec, Json, LinkFaultSpec, RsmReport,
    RsmSweep, SimReport, SimSweep, Sweep, SweepReport, TelemetrySummary, WorkloadSpec,
};
use ho_predicates::monitor::WindowMonitor;
use ho_sim::SchedulerKind;

/// The canonical *safe* baseline grid: every cell must finish with zero
/// violations.
///
/// UniformVoting is swept only under environments that respect its safety
/// predicate `P_nek` (a non-empty kernel every round — a single down
/// process empties the kernel, so even crash-recovery is out of bounds);
/// OneThirdRule and LastVoting are swept under everything, including
/// partitions and empty-kernel chaos, because their safety needs no
/// communication predicate at all.
#[must_use]
pub fn baseline_sweeps() -> Vec<Sweep> {
    let unrestricted = [
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
    ];
    let kernel_preserving = [
        AdversarySpec::FullDelivery,
        AdversarySpec::KernelOnly { loss: 0.8 },
    ];
    vec![
        Sweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
            .adversaries(unrestricted)
            .sizes([4, 7, 10])
            .seeds(0..40)
            .max_rounds(120),
        Sweep::new()
            .algorithms([AlgorithmSpec::UniformVoting])
            .adversaries(kernel_preserving)
            .sizes([4, 7, 10])
            .seeds(0..40)
            .max_rounds(120),
    ]
}

/// The `P_nek` counterexample sweep: UniformVoting outside its safety
/// predicate. The harness is expected to *catch* agreement violations here
/// (empty kernels let disjoint groups — in space or, with staggered
/// outages, in time — confirm different votes); the report records how
/// many were detected so the checker's sensitivity is itself tracked.
#[must_use]
pub fn pnek_counterexample_sweep() -> Sweep {
    Sweep::new()
        .algorithms([AlgorithmSpec::UniformVoting])
        .adversaries([
            AdversarySpec::RandomLoss { loss: 0.4 },
            AdversarySpec::Partition { blocks: 2 },
            AdversarySpec::CrashRecovery,
        ])
        .sizes([4, 7, 10])
        .seeds(0..40)
        .max_rounds(120)
}

/// The canonical **sim-layer** grid: the predicate *implementation* stack
/// (Algorithms 2 and 3 over the system-level simulator) swept across
/// (implementation × link-fault model × n × seed), each scenario's verdict
/// checking the *delivered* predicate — the `P_su` / `P_k` window the
/// theorems promise — against the theorem bound. Every cell must finish
/// with zero violations: a violation here means an implementation broke
/// its own paper-proved guarantee.
#[must_use]
pub fn sim_layer_sweep() -> SimSweep {
    SimSweep::new()
        .implementations([ImplementationSpec::Alg2, ImplementationSpec::Alg3 { f: 1 }])
        .faults([
            LinkFaultSpec::GoodFromStart,
            LinkFaultSpec::LossyThenGood {
                bad_len: 40.0,
                loss: 0.5,
            },
            LinkFaultSpec::CrashyThenGood { bad_len: 40.0 },
            LinkFaultSpec::OmissiveThenGood {
                bad_len: 40.0,
                send: 0.3,
                recv: 0.3,
            },
        ])
        .sizes([4, 6])
        .seeds(0..10)
        .window(2)
}

/// The canonical **rsm-layer** grids: the replicated-log service
/// (`ho-rsm`'s pipelined `LogDriver`) swept across (inner algorithm ×
/// adversary × n × pipeline depth × workload × lease × seed). Every cell
/// must finish with **zero** prefix-agreement / exactly-once violations;
/// the per-cell table carries the service numbers (commands/sec,
/// rounds/slot, worst p99 apply latency in rounds) that future scaling
/// PRs move. The lease axis runs every cell twice — flow control off
/// (the requeue-churn baseline) and on (slot leases, adaptive batching,
/// admission backpressure) — so the document is its own before/after
/// table for the flow-control work.
///
/// OneThirdRule and LastVoting run the full fault zoo — their safety
/// needs no communication predicate, so even chaos may only slow the log,
/// never fork it. UniformVoting runs under full delivery only: pipelined
/// slots open at different rounds on different replicas, so no adversary
/// can guarantee a per-instance non-empty kernel out of lockstep (see
/// `ho_harness::rsm`).
#[must_use]
pub fn rsm_layer_sweeps() -> Vec<RsmSweep> {
    let workloads = [
        WorkloadSpec::FixedRate { per_round: 2 },
        WorkloadSpec::ClosedLoop { clients: 8 },
        WorkloadSpec::Bursty {
            burst: 8,
            period: 4,
        },
        WorkloadSpec::SkewedKey { per_round: 2 },
    ];
    vec![
        RsmSweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
            .adversaries([
                AdversarySpec::FullDelivery,
                AdversarySpec::RandomLoss { loss: 0.3 },
                AdversarySpec::CrashRecovery,
                AdversarySpec::EventuallyGood {
                    bad_rounds: 6,
                    loss: 0.5,
                },
            ])
            .sizes([4, 7])
            .depths([1, 4, 16])
            .workloads(workloads)
            .leases([false, true])
            .seeds(0..3)
            .rounds(80),
        RsmSweep::new()
            .algorithms([AlgorithmSpec::UniformVoting])
            .adversaries([AdversarySpec::FullDelivery])
            .sizes([4, 7])
            .depths([1, 4, 16])
            .workloads(workloads)
            .leases([false, true])
            .seeds(0..3)
            .rounds(80),
    ]
}

/// The canonical **sharded-rsm** grid: the partitioned log service
/// (`ho-rsm`'s `ShardedLogDriver`) swept across shard counts
/// S ∈ {1, 2, 4, 8, 16} under clean and lossy delivery, on uniform and
/// hot-key workloads. Every cell must finish with zero violations of the
/// *sharded* oracle (per-shard prefix agreement + exactly-once, namespace
/// containment, cross-shard disjointness); the scaling table behind the
/// `sharded_rsm` section of `BENCH_sweep.json` comes from here.
///
/// S = 1 is deliberately in the grid: `shard_seed(seed, 0) == seed` makes
/// that column bit-identical to the unsharded `rsm_layer` service, so the
/// router's own overhead is directly readable as (S=1 here) vs
/// (`rsm_layer` there) on the same workload cells.
#[must_use]
pub fn sharded_rsm_sweeps() -> Vec<RsmSweep> {
    vec![RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule])
        .adversaries([
            AdversarySpec::FullDelivery,
            AdversarySpec::RandomLoss { loss: 0.3 },
        ])
        .sizes([4])
        .depths([4])
        .shards([1, 2, 4, 8, 16])
        .workloads([
            WorkloadSpec::FixedRate { per_round: 2 },
            WorkloadSpec::SkewedKey { per_round: 2 },
        ])
        .leases([false, true])
        .seeds(0..3)
        .rounds(80)]
}

/// The canonical contact-plan shapes: an episodic partition, a rotating
/// two-process contact window, and a store-and-forward gap. Sized so the
/// guaranteed-good suffix starts by round 19 — comfortably inside every
/// grid's round budget, leaving the bulk of the run to measure recovery,
/// not just survival.
#[must_use]
pub fn contact_plans() -> [ContactPlan; 3] {
    [
        ContactPlan::Episodic {
            dark: 3,
            bright: 2,
            cycles: 4,
        },
        ContactPlan::Rotating {
            window: 3,
            windows: 6,
        },
        ContactPlan::StoreAndForward { dark: 16 },
    ]
}

/// The **model-layer** contact grid: OneThirdRule and LastVoting driven
/// by [`ContactPlanAdversary`] HO sets. UniformVoting is excluded by
/// design: every contact phase (disjoint blocks, a two-process window,
/// an isolated replica) empties the global kernel, so `P_nek` cannot
/// hold under any contact plan.
#[must_use]
pub fn contact_model_sweep() -> Sweep {
    Sweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
        .adversaries(contact_plans().map(|plan| AdversarySpec::ContactPlan { plan }))
        .sizes([4, 7])
        .seeds(0..40)
        .max_rounds(120)
}

/// The **sim-layer** contact grid: Algorithms 2 and 3 over real-valued
/// time, the plan mapped onto rounds of fixed length by the engine's
/// link schedule. The store-and-forward plan runs at two round lengths
/// so the time→round mapping itself is exercised, not just one scaling
/// of it.
#[must_use]
pub fn contact_sim_sweep() -> SimSweep {
    let [episodic, rotating, store_forward] = contact_plans();
    SimSweep::new()
        .implementations([ImplementationSpec::Alg2, ImplementationSpec::Alg3 { f: 1 }])
        .faults([
            LinkFaultSpec::ContactPlanThenGood {
                plan: episodic,
                round_len: 5.0,
            },
            LinkFaultSpec::ContactPlanThenGood {
                plan: rotating,
                round_len: 5.0,
            },
            LinkFaultSpec::ContactPlanThenGood {
                plan: store_forward,
                round_len: 5.0,
            },
            LinkFaultSpec::ContactPlanThenGood {
                plan: store_forward,
                round_len: 2.5,
            },
        ])
        .sizes([4, 6])
        .seeds(0..6)
        .window(2)
}

/// The **rsm-layer** contact grid: the replicated-log service riding out
/// every plan shape, with the degradation metrics (dark rounds, log
/// divergence, backfill volume, catch-up latency) flowing into the
/// per-cell table.
#[must_use]
pub fn contact_rsm_sweep() -> RsmSweep {
    RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
        .adversaries(contact_plans().map(|plan| AdversarySpec::ContactPlan { plan }))
        .sizes([4])
        .depths([1, 4])
        .workloads([
            WorkloadSpec::FixedRate { per_round: 2 },
            WorkloadSpec::ClosedLoop { clients: 8 },
        ])
        .leases([false, true])
        .seeds(0..3)
        .rounds(80)
}

/// The **sharded** contact sub-grid: each shard group's plan derives
/// from its own `shard_seed`, so dark intervals and dark replicas differ
/// per shard — the router must survive shards degrading out of phase
/// with each other.
#[must_use]
pub fn contact_sharded_sweep() -> RsmSweep {
    let [episodic, _, store_forward] = contact_plans();
    RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule])
        .adversaries([
            AdversarySpec::ContactPlan { plan: episodic },
            AdversarySpec::ContactPlan {
                plan: store_forward,
            },
        ])
        .sizes([4])
        .depths([4])
        .shards([1, 4])
        .workloads([WorkloadSpec::FixedRate { per_round: 2 }])
        .leases([false, true])
        .seeds(0..3)
        .rounds(80)
}

/// The grids behind one report section, by kind. A kind decides how the
/// section runs and gates the grid, so a section lists each of its grids
/// under exactly one kind.
#[derive(Clone, Debug, Default)]
pub(crate) struct Grids {
    /// Model-layer grids that must finish without a safety violation.
    pub model: Vec<Sweep>,
    /// Model-layer grids run outside their algorithm's safety predicate,
    /// where the checker is expected to catch violations.
    pub counterexamples: Vec<Sweep>,
    /// Sim-layer grids: every scenario must deliver its predicate window
    /// within the theorem bound.
    pub sim: Vec<SimSweep>,
    /// Unsharded log-service grids, checked by the applied-log oracle.
    pub rsm: Vec<RsmSweep>,
    /// Sharded log-service grids, checked by the sharded oracle and
    /// summarised per shard count.
    pub sharded: Vec<RsmSweep>,
    /// Seeds of the contact-plan predicate-lateness scan (empty for
    /// sections without one).
    pub lateness_seeds: Range<u64>,
}

/// What running one section produced.
#[derive(Debug)]
pub(crate) struct SectionRun {
    /// The section's top-level fields of the document.
    pub fields: Vec<(&'static str, Json)>,
    /// One line per failed gate, each starting with the gate's name
    /// (`<section>.<gate>:`); empty when every gate passed.
    pub failures: Vec<String>,
}

/// One row of the report table.
pub(crate) struct Section {
    /// The section's name.
    pub name: &'static str,
    /// The section's grids; `smoke` selects the thinned CI variant.
    pub grids: fn(smoke: bool) -> Grids,
    /// Runs the grids; `verdicts` embeds the per-scenario verdicts.
    pub run: fn(grids: &Grids, verdicts: bool) -> SectionRun,
}

/// The report table, in document order.
pub(crate) const SECTIONS: [Section; 5] = [
    Section {
        name: "model",
        grids: model_grids,
        run: |g, verdicts| ModelSection::run(g).finish(verdicts),
    },
    Section {
        name: "sim_layer",
        grids: sim_grids,
        run: |g, verdicts| SimSection::run(g).finish(verdicts),
    },
    Section {
        name: "rsm_layer",
        grids: rsm_grids,
        run: |g, verdicts| {
            let report = run_rsm(&g.rsm);
            SectionRun {
                failures: rsm_gates("rsm_layer", &report),
                fields: vec![("rsm_layer", rsm_report_json(&report, verdicts))],
            }
        },
    },
    Section {
        name: "sharded_rsm",
        grids: sharded_grids,
        run: |g, verdicts| {
            let report = run_rsm(&g.sharded);
            SectionRun {
                failures: rsm_gates("sharded_rsm", &report),
                fields: vec![("sharded_rsm", sharded_rsm_json(&report, verdicts))],
            }
        },
    },
    Section {
        name: "contact_plan",
        grids: contact_grids,
        run: |g, verdicts| ContactSection::run(g).finish(verdicts),
    },
];

/// `grids` as they are, or each thinned by `thin` for the smoke run.
fn thinned<T>(smoke: bool, grids: Vec<T>, thin: impl Fn(T) -> T) -> Vec<T> {
    if smoke {
        grids.into_iter().map(thin).collect()
    } else {
        grids
    }
}

fn model_grids(smoke: bool) -> Grids {
    Grids {
        model: thinned(smoke, baseline_sweeps(), |s| s.seeds(0..8)),
        counterexamples: thinned(smoke, vec![pnek_counterexample_sweep()], |s| s.seeds(0..8)),
        ..Grids::default()
    }
}

fn sim_grids(smoke: bool) -> Grids {
    Grids {
        sim: thinned(smoke, vec![sim_layer_sweep()], |s| s.seeds(0..3)),
        ..Grids::default()
    }
}

fn rsm_grids(smoke: bool) -> Grids {
    Grids {
        rsm: thinned(smoke, rsm_layer_sweeps(), |s| {
            s.seeds(0..1).workloads([
                WorkloadSpec::FixedRate { per_round: 2 },
                WorkloadSpec::ClosedLoop { clients: 8 },
            ])
        }),
        ..Grids::default()
    }
}

fn sharded_grids(smoke: bool) -> Grids {
    Grids {
        sharded: thinned(smoke, sharded_rsm_sweeps(), |s| {
            s.shards([1, 4]).seeds(0..2)
        }),
        ..Grids::default()
    }
}

fn contact_grids(smoke: bool) -> Grids {
    Grids {
        model: thinned(smoke, vec![contact_model_sweep()], |s| s.seeds(0..8)),
        sim: thinned(smoke, vec![contact_sim_sweep()], |s| s.seeds(0..2)),
        rsm: thinned(smoke, vec![contact_rsm_sweep()], |s| s.seeds(0..1)),
        sharded: thinned(smoke, vec![contact_sharded_sweep()], |s| s.seeds(0..1)),
        lateness_seeds: if smoke { 0..4 } else { 0..16 },
        ..Grids::default()
    }
}

/// Runs `sweeps`, each as `configure` adjusts it, into one report.
fn run_model(sweeps: &[Sweep], configure: fn(Sweep) -> Sweep) -> SweepReport {
    SweepReport::aggregate(
        sweeps
            .iter()
            .flat_map(|s| configure(s.clone()).run().verdicts)
            .collect(),
    )
}

/// Runs `sweeps` on one event scheduler into one report.
fn run_sim(sweeps: &[SimSweep], scheduler: SchedulerKind) -> SimReport {
    SimReport::aggregate(
        sweeps
            .iter()
            .flat_map(|s| s.clone().scheduler(scheduler).run().verdicts)
            .collect(),
    )
}

/// Runs `sweeps` into one report.
fn run_rsm(sweeps: &[RsmSweep]) -> RsmReport {
    RsmReport::aggregate(sweeps.iter().flat_map(|s| s.run().verdicts).collect())
}

/// The document built from the sections `select` keeps, and every gate
/// they failed.
#[derive(Debug)]
pub struct Report {
    /// The JSON document.
    pub doc: Json,
    /// Every failed gate, one line each.
    pub failures: Vec<String>,
}

fn run_sections(benchmark: &str, smoke: bool, verdicts: bool, select: fn(&str) -> bool) -> Report {
    let mut doc = BTreeMap::from([("benchmark".to_owned(), Json::Str(benchmark.to_owned()))]);
    let mut failures = Vec::new();
    for section in SECTIONS.iter().filter(|s| select(s.name)) {
        let run = (section.run)(&(section.grids)(smoke), verdicts);
        doc.extend(run.fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
        failures.extend(run.failures);
    }
    Report {
        doc: Json::Obj(doc),
        failures,
    }
}

/// Runs every section into the `BENCH_sweep.json` document. Pass
/// `smoke = true` for the thinned CI variant.
#[must_use]
pub fn run_baseline(smoke: bool) -> Report {
    let benchmark = if smoke {
        "sweep_smoke"
    } else {
        "sweep_baseline"
    };
    run_sections(benchmark, smoke, false, |_| true)
}

/// Runs the log-service sections at full size, per-scenario verdicts
/// embedded — the `--rsm` document.
#[must_use]
pub fn run_rsm_sections() -> Report {
    run_sections("rsm_sweep", false, true, |name| {
        matches!(name, "rsm_layer" | "sharded_rsm")
    })
}

/// `"{name}: {count} {what} (first: {first})"` when there is any
/// offender.
fn gate(name: &str, what: &str, offenders: impl IntoIterator<Item = String>) -> Option<String> {
    let mut offenders = offenders.into_iter();
    let first = offenders.next()?;
    let count = 1 + offenders.count();
    Some(format!("{name}: {count} {what} (first: {first})"))
}

/// The model layer's safety gate: no consensus violation in `report`.
fn safety_gate(section: &str, report: &SweepReport) -> Option<String> {
    gate(
        &format!("{section}.safety"),
        "scenarios violated consensus safety",
        report
            .violating()
            .into_iter()
            .map(|v| format!("{}: {}", v.id(), v.violation.as_deref().unwrap_or("?"))),
    )
}

/// The sim layer's gates: the grid ran on the calendar wheel, dispatched
/// events, and every scenario delivered its predicate window within the
/// theorem bound.
fn sim_gates(section: &str, report: &SimReport) -> Vec<String> {
    [
        report
            .verdicts
            .is_empty()
            .then(|| format!("{section}.ran: no scenario ran")),
        gate(
            &format!("{section}.bound"),
            "scenarios broke their theorem bound",
            report
                .violating()
                .into_iter()
                .map(|v| v.violation.clone().unwrap_or_default()),
        ),
        gate(
            &format!("{section}.scheduler"),
            "scenarios ran off the calendar wheel",
            report
                .verdicts
                .iter()
                .filter(|v| v.scheduler != SchedulerKind::Wheel)
                .map(ho_harness::SimVerdict::id),
        ),
        (report.events_dispatched == 0).then(|| format!("{section}.events: no event dispatched")),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// The log service's gates: commands were ordered, the (sharded) oracle
/// held, both lease settings ran, and every lease-on full-delivery cell
/// requeued at most 0.1 commands per ordered command.
fn rsm_gates(section: &str, report: &RsmReport) -> Vec<String> {
    let lease_axis = |lease: bool| {
        (!report.verdicts.iter().any(|v| v.lease == lease))
            .then(|| format!("{section}.lease_axis: no cell ran with lease {lease}"))
    };
    [
        (report.totals.commands == 0).then(|| format!("{section}.service: no command was ordered")),
        gate(
            &format!("{section}.oracle"),
            "scenarios broke the log oracle",
            report
                .violating()
                .into_iter()
                .map(|v| format!("{}: {}", v.id(), v.violation.as_deref().unwrap_or("?"))),
        ),
        lease_axis(false),
        lease_axis(true),
        gate(
            &format!("{section}.lease_requeue"),
            "lease-on full-delivery cells requeued more than 0.1 per command",
            report.by_cell().into_iter().filter_map(
                |((alg, adv, depth, shards, wl, lease), cell)| {
                    let ratio = cell.requeue_ratio().unwrap_or(0.0);
                    (lease && adv == "full_delivery" && ratio > 0.1)
                        .then(|| format!("{alg}/d{depth}/S{shards}/{wl}: {ratio:.3}"))
                },
            ),
        ),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// The model section: the safe grid run plain, monitored and recorded,
/// plus the `P_nek` counterexamples.
#[derive(Clone, Debug)]
pub(crate) struct ModelSection {
    /// The safe grid, recorder and monitor off.
    pub plain: SweepReport,
    /// The safe grid with online predicate monitoring.
    pub monitored: SweepReport,
    /// The safe grid with the flight recorder on.
    pub recorded: SweepReport,
    /// The counterexample grid, monitored and recorded, so every caught
    /// violation drains its ring into a forensic artifact.
    pub counterexamples: SweepReport,
}

impl ModelSection {
    /// Runs the section's grids.
    #[must_use]
    pub fn run(g: &Grids) -> Self {
        ModelSection {
            plain: run_model(&g.model, |s| s),
            monitored: run_model(&g.model, |s| s.monitor_predicates(true)),
            recorded: run_model(&g.model, |s| s.telemetry(true)),
            counterexamples: run_model(&g.counterexamples, |s| {
                s.monitor_predicates(true).telemetry(true)
            }),
        }
    }

    /// The first caught counterexample that drained its ring — the
    /// document's worked example of the on-violation dump.
    fn forensic_sample(&self) -> Option<(&ho_harness::Verdict, &[Event])> {
        self.counterexamples.verdicts.iter().find_map(|v| {
            let events = v.forensic_events.as_deref()?;
            (!events.is_empty()).then_some((v, events))
        })
    }

    /// Every gate the section failed.
    #[must_use]
    pub fn failures(&self) -> Vec<String> {
        let cross_check = predicate_cross_check(&self.monitored, &self.counterexamples);
        let forensic = match self.forensic_sample() {
            None => {
                Some("telemetry.forensic: no forensic artifact from the counterexample grid".into())
            }
            // Execute what the artifact's repro line executes: the lookup
            // must find the id, and the rerun must flag the same violation
            // and drain its ring again.
            Some((v, _)) => (!replay(&v.id())
                .is_some_and(|r| r.forensic.is_some() && r.violation == v.violation))
            .then(|| {
                format!(
                    "telemetry.forensic_repro: {} did not reproduce {:?}",
                    repro_command(&v.id()),
                    v.violation
                )
            }),
        };
        [
            safety_gate("model", &self.plain),
            (self.monitored.predicate_totals.monitored == 0)
                .then(|| "predicates.monitored: the monitor observed no scenario".into()),
            cross_check
                .err()
                .map(|reason| format!("predicates.cross_check: {reason}")),
            (self
                .recorded
                .telemetry_totals
                .is_none_or(|t| t.events_recorded == 0))
            .then(|| "telemetry.events: the recorder-on pass recorded no event".into()),
            (self.counterexamples.violations == 0)
                .then(|| "pnek_counterexamples.caught: no violation caught outside P_nek".into()),
            forensic,
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    fn finish(&self, verdicts: bool) -> SectionRun {
        let plain = &self.plain;
        let totals = plain.totals;
        let Json::Obj(mut report) = plain.to_json(verdicts) else {
            unreachable!("sweep reports serialize to an object");
        };
        let mut fields = vec![
            ("scenarios", Json::UInt(plain.scenarios as u64)),
            ("decided", Json::UInt(plain.decided as u64)),
            ("violations", Json::UInt(plain.violations as u64)),
            (
                "sendplan",
                Json::obj([
                    ("rounds", Json::UInt(totals.rounds)),
                    ("payload_allocs", Json::UInt(totals.payload_allocs)),
                    ("payload_reuses", Json::UInt(totals.payload_reuses)),
                    ("fresh_allocs", Json::UInt(totals.fresh_allocs())),
                    ("legacy_clones", Json::UInt(totals.legacy_clones)),
                    ("delivered", Json::UInt(totals.delivered)),
                    (
                        "allocs_per_round_after",
                        Json::Float(ratio(totals.payload_allocs, totals.rounds)),
                    ),
                    (
                        "fresh_allocs_per_round",
                        Json::Float(ratio(totals.fresh_allocs(), totals.rounds)),
                    ),
                    (
                        "clones_per_round_before",
                        Json::Float(ratio(totals.legacy_clones, totals.rounds)),
                    ),
                    (
                        "reduction_factor",
                        Json::Float(ratio(totals.legacy_clones, totals.payload_allocs)),
                    ),
                ]),
            ),
            ("predicates", {
                let Json::Obj(mut map) = predicate_totals_json(&self.monitored.predicate_totals)
                else {
                    unreachable!("predicate totals serialize to an object");
                };
                let check = predicate_cross_check(&self.monitored, &self.counterexamples);
                map.insert(
                    "check".into(),
                    Json::Str(check.err().unwrap_or("ok".into())),
                );
                Json::Obj(map)
            }),
            ("telemetry", {
                let totals = self.recorded.telemetry_totals.unwrap_or_default();
                let Json::Obj(mut map) = telemetry_summary_json(&totals) else {
                    unreachable!("telemetry summaries serialize to an object");
                };
                if let Some((v, events)) = self.forensic_sample() {
                    map.insert(
                        "forensic_sample".into(),
                        forensic_json(&v.id(), v.seed, &v.violation, v.telemetry.as_ref(), events),
                    );
                }
                Json::Obj(map)
            }),
            (
                "pnek_counterexamples",
                Json::obj([
                    (
                        "scenarios",
                        Json::UInt(self.counterexamples.scenarios as u64),
                    ),
                    (
                        "violations_detected",
                        Json::UInt(self.counterexamples.violations as u64),
                    ),
                    (
                        "violations_with_empty_kernel",
                        Json::UInt(
                            self.counterexamples
                                .violating()
                                .iter()
                                .filter(|v| {
                                    v.predicates
                                        .as_ref()
                                        .is_some_and(|p| p.first_empty_kernel.is_some())
                                })
                                .count() as u64,
                        ),
                    ),
                ]),
            ),
        ];
        for key in ["cells", "verdicts"] {
            if let Some(value) = report.remove(key) {
                fields.push((key, value));
            }
        }
        SectionRun {
            failures: self.failures(),
            fields,
        }
    }
}

/// The sim-layer section: the grid on the calendar wheel, and again on
/// the binary-heap oracle for the scheduler-equivalence gate.
#[derive(Clone, Debug)]
pub(crate) struct SimSection {
    /// The grid on the calendar wheel (the default scheduler).
    pub wheel: SimReport,
    /// The same grid on the binary-heap oracle.
    pub heap: SimReport,
}

impl SimSection {
    /// Runs the section's grids on both schedulers.
    #[must_use]
    pub fn run(g: &Grids) -> Self {
        SimSection {
            wheel: run_sim(&g.sim, SchedulerKind::Wheel),
            heap: run_sim(&g.sim, SchedulerKind::Heap),
        }
    }

    /// The ids of the scenarios whose heap run differs from the wheel run
    /// in any observable. The two backends must dispatch the identical
    /// `(time, seq)` event sequence, so a single divergence means the
    /// wheel reordered an event the heap would not have.
    #[must_use]
    pub fn divergences(&self) -> Vec<String> {
        let mut ids = Vec::new();
        if self.wheel.verdicts.len() != self.heap.verdicts.len() {
            ids.push("grid shapes differ".into());
        }
        for (w, h) in self.wheel.verdicts.iter().zip(&self.heap.verdicts) {
            let same = w.id() == h.id()
                && w.achieved == h.achieved
                && w.within_bound == h.within_bound
                && w.empirical_length == h.empirical_length
                && w.max_round == h.max_round
                && w.send_steps == h.send_steps
                && w.transmissions == h.transmissions
                && w.dropped == h.dropped
                && w.crashes == h.crashes
                && w.messages.delivered == h.messages.delivered
                && w.events_dispatched == h.events_dispatched
                && w.peak_queue_depth == h.peak_queue_depth;
            if !same {
                ids.push(w.id());
            }
        }
        ids
    }

    /// Every gate the section failed.
    #[must_use]
    pub fn failures(&self) -> Vec<String> {
        let mut failures = sim_gates("sim_layer", &self.wheel);
        failures.extend(gate(
            "sim_layer.scheduler_equivalence",
            "scenarios diverged from the heap oracle",
            self.divergences(),
        ));
        failures
    }

    fn finish(&self, verdicts: bool) -> SectionRun {
        let Json::Obj(mut m) = sim_report_json(&self.wheel, verdicts) else {
            unreachable!("sim reports serialize to an object");
        };
        let divergences = self.divergences();
        m.insert(
            "scheduler_equivalence".into(),
            Json::obj([
                ("oracle", Json::Str("heap".into())),
                ("scenarios", Json::UInt(self.wheel.verdicts.len() as u64)),
                ("divergences", Json::UInt(divergences.len() as u64)),
                (
                    "first_divergence",
                    divergences.into_iter().next().map_or(Json::Null, Json::Str),
                ),
            ]),
        );
        SectionRun {
            failures: self.failures(),
            fields: vec![("sim_layer", Json::Obj(m))],
        }
    }
}

/// The `sharded_rsm` section: the standard rsm report plus a `scaling`
/// table — one row per (shard count, lease setting), aggregated over the
/// rest of the grid, carrying the requeue ratio and the worst p99 apply
/// latency as S grows, before and after leases.
#[must_use]
pub fn sharded_rsm_json(report: &RsmReport, verdicts: bool) -> Json {
    let Json::Obj(mut map) = rsm_report_json(report, verdicts) else {
        unreachable!("rsm reports serialize to an object");
    };
    let mut by_shards: BTreeMap<(usize, bool), Vec<&ho_harness::RsmVerdict>> = BTreeMap::new();
    for v in &report.verdicts {
        by_shards.entry((v.shards, v.lease)).or_default().push(v);
    }
    let scaling: Vec<Json> = by_shards
        .into_iter()
        .map(|((shards, lease), vs)| {
            let commands: u64 = vs.iter().map(|v| v.commands).sum();
            let requeued: u64 = vs.iter().map(|v| v.requeued_commands).sum();
            Json::obj([
                ("shards", Json::UInt(shards as u64)),
                ("lease", Json::Bool(lease)),
                ("scenarios", Json::UInt(vs.len() as u64)),
                (
                    "violations",
                    Json::UInt(vs.iter().filter(|v| !v.is_safe()).count() as u64),
                ),
                ("commands", Json::UInt(commands)),
                (
                    "generated_commands",
                    Json::UInt(vs.iter().map(|v| v.generated_commands).sum()),
                ),
                ("requeued_commands", Json::UInt(requeued)),
                (
                    "requeue_ratio",
                    if commands == 0 {
                        Json::Null
                    } else {
                        Json::Float(requeued as f64 / commands as f64)
                    },
                ),
                (
                    "worst_p99_latency_rounds",
                    Json::UInt(vs.iter().filter_map(|v| v.latency_p99).max().unwrap_or(0)),
                ),
            ])
        })
        .collect();
    map.insert("scaling".into(), Json::Arr(scaling));
    Json::Obj(map)
}

/// One row of the predicate-lateness table: how late the first window of
/// one predicate completes under one contact plan, over (n × seed).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LatenessRow {
    /// The contact plan.
    pub plan: ContactPlan,
    /// `"kernel"` (`P_k`) or `"space_uniform"` (`P_su`).
    pub predicate: &'static str,
    /// The window length `x`.
    pub window: u64,
    /// Scenarios scanned.
    pub scenarios: u64,
    /// Scenarios whose window completed by the bound round.
    pub achieved: u64,
    /// The latest round at which a window completed.
    pub worst_witness: u64,
}

impl LatenessRow {
    /// The hard bound `good_from + x − 1` that the permanently
    /// fully-connected suffix guarantees.
    #[must_use]
    pub fn bound_round(&self) -> u64 {
        self.plan.good_from() + self.window - 1
    }

    /// Whether every scanned scenario's window landed by the bound.
    #[must_use]
    pub fn within_bound(&self) -> bool {
        self.achieved == self.scenarios
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("plan", Json::Str(self.plan.label())),
            ("predicate", Json::Str(self.predicate.into())),
            ("window", Json::UInt(self.window)),
            ("scenarios", Json::UInt(self.scenarios)),
            ("good_from", Json::UInt(self.plan.good_from())),
            ("bound_round", Json::UInt(self.bound_round())),
            ("worst_witness_round", Json::UInt(self.worst_witness)),
            (
                "worst_lateness_rounds",
                Json::UInt(self.worst_witness.saturating_sub(self.window)),
            ),
            ("within_bound", Json::Bool(self.within_bound())),
        ])
    }
}

/// Measures predicate lateness directly on the adversary's HO rows: for
/// each plan, how late the first `P_k` / `P_su` window of length `x`
/// completes relative to the fault-free ideal (round `x`), and whether
/// it lands by the hard bound. One row per (plan, predicate), aggregated
/// over (n × seed).
#[must_use]
pub(crate) fn predicate_lateness(sizes: &[usize], seeds: Range<u64>, x: u64) -> Vec<LatenessRow> {
    type Make = fn(ProcessSet, u64, f64) -> WindowMonitor;
    let mut rows = Vec::new();
    for plan in contact_plans() {
        for (predicate, make) in [
            ("kernel", WindowMonitor::kernel as Make),
            ("space_uniform", WindowMonitor::space_uniform as Make),
        ] {
            let mut row = LatenessRow {
                plan,
                predicate,
                window: x,
                scenarios: 0,
                achieved: 0,
                worst_witness: 0,
            };
            for &n in sizes {
                for seed in seeds.clone() {
                    row.scenarios += 1;
                    let mut adversary = ContactPlanAdversary::new(plan, seed);
                    let mut monitor = make(ProcessSet::full(n), x, 0.0);
                    let mut ho = vec![ProcessSet::full(n); n];
                    for r in 1..=row.bound_round() {
                        adversary.fill_ho_sets(Round(r), &mut ho);
                        monitor.observe_row(r, &ho, r as f64);
                        if let Some((_, t)) = monitor.witness() {
                            row.achieved += 1;
                            row.worst_witness = row.worst_witness.max(t as u64);
                            break;
                        }
                    }
                }
            }
            rows.push(row);
        }
    }
    rows
}

/// The contact-plan section: DTN-style intermittent links on all three
/// axes, plus predicate lateness measured straight off the adversary's HO
/// rows and the graceful-degradation aggregates of the log service.
#[derive(Clone, Debug)]
pub(crate) struct ContactSection {
    /// The model-layer contact grid.
    pub model: SweepReport,
    /// The sim-layer contact grid.
    pub sim: SimReport,
    /// The unsharded log service under contact plans.
    pub rsm: RsmReport,
    /// The sharded log service under contact plans.
    pub sharded: RsmReport,
    /// The predicate-lateness table.
    pub lateness: Vec<LatenessRow>,
}

impl ContactSection {
    /// Runs the section's grids.
    #[must_use]
    pub fn run(g: &Grids) -> Self {
        ContactSection {
            model: run_model(&g.model, |s| s),
            sim: run_sim(&g.sim, SchedulerKind::Wheel),
            rsm: run_rsm(&g.rsm),
            sharded: run_rsm(&g.sharded),
            lateness: predicate_lateness(&[4, 7], g.lateness_seeds.clone(), 2),
        }
    }

    fn service(&self) -> impl Iterator<Item = &ho_harness::RsmVerdict> + Clone {
        self.rsm.verdicts.iter().chain(&self.sharded.verdicts)
    }

    fn late_windows(&self) -> u64 {
        self.lateness.iter().filter(|r| !r.within_bound()).count() as u64
    }

    /// Every gate the section failed.
    #[must_use]
    pub fn failures(&self) -> Vec<String> {
        let mut failures: Vec<String> = safety_gate("contact_plan.model_layer", &self.model)
            .into_iter()
            .collect();
        failures.extend(sim_gates("contact_plan.sim_layer", &self.sim));
        failures.extend(rsm_gates("contact_plan.rsm_layer", &self.rsm));
        failures.extend(rsm_gates("contact_plan.sharded_rsm", &self.sharded));
        failures.extend(gate(
            "contact_plan.late_window",
            "predicate windows landed after their guaranteed-good bound",
            self.lateness.iter().filter(|r| !r.within_bound()).map(|r| {
                format!(
                    "{} {}: {}/{} by round {}",
                    r.plan.label(),
                    r.predicate,
                    r.achieved,
                    r.scenarios,
                    r.bound_round()
                )
            }),
        ));
        if self.service().all(|v| v.dark_rounds == 0)
            || self.service().all(|v| v.backfill_entries == 0)
        {
            failures.push(
                "contact_plan.degradation: the plans kept no replica dark or caught none up".into(),
            );
        }
        failures
    }

    fn finish(&self, verdicts: bool) -> SectionRun {
        let service = self.service();
        let violations = self.model.violations
            + self.sim.violations
            + self.rsm.violations
            + self.sharded.violations;
        let scenarios =
            self.model.scenarios + self.sim.scenarios + self.rsm.scenarios + self.sharded.scenarios;
        let section = Json::obj([
            ("scenarios", Json::UInt(scenarios as u64)),
            (
                "violations",
                Json::UInt(violations as u64 + self.late_windows()),
            ),
            ("late_predicate_windows", Json::UInt(self.late_windows())),
            (
                "degradation",
                Json::obj([
                    (
                        "dark_rounds",
                        Json::UInt(service.clone().map(|v| v.dark_rounds).sum()),
                    ),
                    (
                        "backfill_entries",
                        Json::UInt(service.clone().map(|v| v.backfill_entries).sum()),
                    ),
                    (
                        "divergent_rounds",
                        Json::UInt(service.clone().map(|v| v.divergent_rounds).sum()),
                    ),
                    (
                        "recovered_scenarios",
                        Json::UInt(
                            service
                                .clone()
                                .filter(|v| v.catch_up_rounds.is_some())
                                .count() as u64,
                        ),
                    ),
                    (
                        "worst_catch_up_rounds",
                        Json::UInt(service.filter_map(|v| v.catch_up_rounds).max().unwrap_or(0)),
                    ),
                ]),
            ),
            (
                "predicate_lateness",
                Json::Arr(self.lateness.iter().map(|r| r.to_json()).collect()),
            ),
            ("model_layer", self.model.to_json(verdicts)),
            ("sim_layer", sim_report_json(&self.sim, verdicts)),
            ("rsm_layer", rsm_report_json(&self.rsm, verdicts)),
            ("sharded_rsm", sharded_rsm_json(&self.sharded, verdicts)),
        ]);
        SectionRun {
            failures: self.failures(),
            fields: vec![("contact_plan", section)],
        }
    }
}

/// Checks the monitored predicate statistics against the safety verdicts.
///
/// Two invariants tie the paper's predicate story to the sweep:
///
/// * **Safety environments hold by construction.** The `kernel_only`
///   adversary exists to preserve `P_nek`; a monitored `kernel_only`
///   scenario reporting an empty-kernel round means the monitor and the
///   adversary disagree about the safety environment. The check applies
///   to the *broadcast* algorithms only: the monitor observes effective
///   HO sets (mailbox support), and a unicast-heavy algorithm like
///   LastVoting leaves most recipients empty-handed by design, emptying
///   the effective kernel no matter what the adversary authorised.
/// * **Predicates explain violations.** UniformVoting is safe whenever
///   `P_nek` holds, so a UV agreement violation in a run whose monitor
///   saw no empty kernel — in either grid — contradicts the theorem.
///
/// # Errors
///
/// Returns the first disagreement, identifying the scenario.
pub fn predicate_cross_check(
    safe_grid: &SweepReport,
    counterexamples: &SweepReport,
) -> Result<(), String> {
    for v in safe_grid.verdicts.iter().chain(&counterexamples.verdicts) {
        let Some(p) = &v.predicates else {
            return Err(format!("{}: monitored verdict missing predicates", v.id()));
        };
        let broadcasts_every_round = v.algorithm != "last_voting";
        if v.adversary.starts_with("kernel_only") && broadcasts_every_round {
            if let Some(r0) = p.first_empty_kernel {
                return Err(format!(
                    "{}: kernel_only adversary emptied the kernel at round {r0}",
                    v.id()
                ));
            }
        }
        if v.algorithm == "uniform_voting" && !v.is_safe() && p.first_empty_kernel.is_none() {
            return Err(format!(
                "{}: UniformVoting violated safety although P_nek held all run",
                v.id()
            ));
        }
    }
    Ok(())
}

/// A self-contained forensic artifact when the run drained its ring.
fn forensic_json(
    id: &str,
    seed: u64,
    violation: &Option<String>,
    telemetry: Option<&TelemetrySummary>,
    events: &[Event],
) -> Json {
    forensic_artifact_json(
        id,
        seed,
        violation.as_deref().unwrap_or("violation"),
        telemetry,
        events,
    )
}

/// One canonical scenario rerun with the flight recorder on.
#[derive(Clone, Debug)]
pub(crate) struct Replay {
    /// `"model"`, `"sim"` or `"rsm"`.
    pub layer: &'static str,
    /// The rerun's verdict.
    pub verdict: Json,
    /// The rerun's violation, if any.
    pub violation: Option<String>,
    /// The forensic artifact, when the rerun drained its ring.
    pub forensic: Option<Json>,
}

/// Looks `id` up in every section's full-size grids and reruns exactly
/// that scenario with the flight recorder on. Scenarios are deterministic
/// in (grid cell, seed), so the rerun reproduces the sweep's verdict bit
/// for bit. `None` for an id no grid produces.
#[must_use]
pub(crate) fn replay(id: &str) -> Option<Replay> {
    // The three layers' scenarios and verdicts share field names but no
    // trait; one arm per layer, spelled once.
    macro_rules! rerun {
        ($layer:literal, $scenarios:expr, $json:path) => {
            if let Some(mut s) = $scenarios.find(|s| s.id() == id) {
                s.telemetry = true;
                let v = s.run();
                let forensic = v.forensic_events.as_deref().map(|events| {
                    forensic_json(id, v.seed, &v.violation, v.telemetry.as_ref(), events)
                });
                return Some(Replay {
                    layer: $layer,
                    verdict: $json(&v),
                    violation: v.violation,
                    forensic,
                });
            }
        };
    }
    for section in &SECTIONS {
        let g = (section.grids)(false);
        let model = g.model.iter().chain(&g.counterexamples);
        rerun!("model", model.flat_map(Sweep::scenarios), verdict_json);
        rerun!(
            "sim",
            g.sim.iter().flat_map(SimSweep::scenarios),
            sim_verdict_json
        );
        let rsm = g.rsm.iter().chain(&g.sharded);
        rerun!("rsm", rsm.flat_map(RsmSweep::scenarios), rsm_verdict_json);
    }
    None
}

/// Single-scenario repro mode — what the `repro` line inside every
/// forensic artifact executes (`cargo run --release -p bench --bin sweep
/// -- --scenario <id>`): the [`replay`] of `id` as a self-contained
/// document (scenario, layer, repro line, verdict with its telemetry
/// digest, and the forensic artifact when the rerun ends in a violation).
#[must_use]
pub fn run_scenario_by_id(id: &str) -> Option<Json> {
    let r = replay(id)?;
    let mut map = BTreeMap::from([
        ("scenario".to_owned(), Json::Str(id.to_owned())),
        ("layer".to_owned(), Json::Str(r.layer.to_owned())),
        ("repro".to_owned(), Json::Str(repro_command(id))),
        ("verdict".to_owned(), r.verdict),
    ]);
    if let Some(f) = r.forensic {
        map.insert("forensic".to_owned(), f);
    }
    Some(Json::Obj(map))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thinned grids of the section named `name`.
    fn smoke_grids(name: &str) -> Grids {
        let section = SECTIONS.iter().find(|s| s.name == name).expect("section");
        (section.grids)(true)
    }

    /// Whether some failure line belongs to `gate`.
    fn names(failures: &[String], gate: &str) -> bool {
        failures.iter().any(|f| f.starts_with(&format!("{gate}:")))
    }

    /// Removes the raw tick tables, the only host-dependent numbers.
    fn strip_phases(doc: &mut Json) {
        match doc {
            Json::Obj(map) => {
                map.remove("phases");
                map.values_mut().for_each(strip_phases);
            }
            Json::Arr(items) => items.iter_mut().for_each(strip_phases),
            _ => {}
        }
    }

    #[test]
    fn baseline_grid_shape() {
        let sweeps = baseline_sweeps();
        assert_eq!(sweeps.len(), 2);
        // 2 algs × 7 adversaries × 3 sizes × 40 seeds, plus
        // 1 alg × 2 adversaries × 3 sizes × 40 seeds.
        assert_eq!(sweeps[0].scenarios().len(), 2 * 7 * 3 * 40);
        assert_eq!(sweeps[1].scenarios().len(), 2 * 3 * 40);
    }

    #[test]
    fn rsm_layer_grid_orders_logs_safely() {
        // The thinned rsm grid (the CI variant): ≥ 100 log-service
        // scenarios, and no dead cell — every (algorithm, adversary,
        // depth, workload) combination must actually order slots.
        let report = run_rsm(&smoke_grids("rsm_layer").rsm);
        assert!(report.scenarios >= 100, "{} scenarios", report.scenarios);
        assert_eq!(rsm_gates("rsm_layer", &report), Vec::<String>::new());
        assert!(report.rounds_per_slot() > 0.0);
        for ((alg, adv, depth, _shards, wl, lease), cell) in report.by_cell() {
            assert!(
                cell.slots > 0,
                "dead cell: {alg}/{adv}/d{depth}/{wl}/lease{lease} ordered nothing"
            );
        }
        // Deeper pipelines must raise per-round throughput under full
        // delivery (the whole point of the depth axis).
        let per_round = |depth: usize| {
            let (commands, rounds) = report
                .verdicts
                .iter()
                .filter(|v| {
                    v.depth == depth
                        && v.algorithm == "one_third_rule"
                        && v.adversary == "full_delivery"
                })
                .fold((0, 0), |(c, r), v| (c + v.commands, r + v.rounds_run));
            commands as f64 / rounds as f64
        };
        assert!(per_round(16) > per_round(1));
    }

    #[test]
    fn sharded_rsm_grid_is_safe() {
        // The thinned sharded grid (the CI variant): every gate passes,
        // every shard count is represented, and every cell ordered work.
        let report = run_rsm(&smoke_grids("sharded_rsm").sharded);
        assert_eq!(rsm_gates("sharded_rsm", &report), Vec::<String>::new());
        let mut seen: Vec<usize> = report.verdicts.iter().map(|v| v.shards).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![1, 4], "thinned grid sweeps S ∈ {{1, 4}}");
        for ((_, adv, _, shards, wl, lease), cell) in report.by_cell() {
            assert!(
                cell.commands > 0,
                "dead cell: {adv}/S{shards}/{wl}/lease{lease}"
            );
        }
        // The scaling rows partition the grid.
        let Json::Obj(map) = sharded_rsm_json(&report, false) else {
            panic!("sharded section is an object");
        };
        let Some(Json::Arr(rows)) = map.get("scaling") else {
            panic!("scaling table missing");
        };
        let scenarios: u64 = rows
            .iter()
            .map(|row| match row {
                Json::Obj(r) => match r.get("scenarios") {
                    Some(Json::UInt(n)) => *n,
                    other => panic!("scenarios = {other:?}"),
                },
                other => panic!("row = {other:?}"),
            })
            .sum();
        assert_eq!(scenarios, report.scenarios as u64);
    }

    #[test]
    fn smoke_document_parses_and_passes_every_gate() {
        let report = run_baseline(true);
        assert_eq!(report.failures, Vec::<String>::new());
        let text = format!("{}\n", report.doc);
        assert_eq!(Json::parse(&text), Ok(report.doc.clone()));
        let Json::Obj(map) = &report.doc else {
            panic!("top level must be an object");
        };
        for key in [
            "benchmark",
            "scenarios",
            "sendplan",
            "cells",
            "predicates",
            "telemetry",
            "pnek_counterexamples",
            "sim_layer",
            "rsm_layer",
            "sharded_rsm",
            "contact_plan",
        ] {
            assert!(map.contains_key(key), "{key} missing");
        }
    }

    #[test]
    fn smoke_document_is_deterministic() {
        // No host timing outside the telemetry tick tables: two runs of
        // the same grids must write the same document.
        let mut a = run_baseline(true).doc;
        let mut b = run_baseline(true).doc;
        strip_phases(&mut a);
        strip_phases(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn sim_gates_name_a_broken_bound_and_a_scheduler_divergence() {
        let section = SimSection::run(&smoke_grids("sim_layer"));
        assert!(section.wheel.events_dispatched > 0);
        assert!(section.wheel.peak_queue_depth > 0);
        assert_eq!(section.failures(), Vec::<String>::new());

        let mut late = section.clone();
        let v = &mut late.wheel.verdicts[0];
        v.within_bound = false;
        v.violation = Some(format!("{}: delivered past bound", v.id()));
        assert!(names(&late.failures(), "sim_layer.bound"));

        let mut diverged = section.clone();
        diverged.heap.verdicts[0].max_round += 1;
        let failures = diverged.failures();
        assert!(names(&failures, "sim_layer.scheduler_equivalence"));
        assert!(!names(&failures, "sim_layer.bound"), "{failures:?}");
    }

    #[test]
    fn rsm_gates_name_an_oracle_break_and_lease_requeue_churn() {
        for (name, grids) in [
            ("rsm_layer", smoke_grids("rsm_layer").rsm),
            ("sharded_rsm", smoke_grids("sharded_rsm").sharded),
        ] {
            let report = run_rsm(&grids);
            assert_eq!(rsm_gates(name, &report), Vec::<String>::new());

            let mut forked = report.clone();
            forked.verdicts[0].violation = Some("prefix agreement broken".into());
            assert!(names(&rsm_gates(name, &forked), &format!("{name}.oracle")));

            let mut churn = report.clone();
            let v = churn
                .verdicts
                .iter_mut()
                .find(|v| v.lease && v.adversary == "full_delivery" && v.commands > 0)
                .expect("a lease-on full-delivery cell");
            v.requeued_commands = v.commands;
            assert!(names(
                &rsm_gates(name, &churn),
                &format!("{name}.lease_requeue")
            ));
        }
    }

    #[test]
    fn model_gates_name_a_cross_check_contradiction_and_a_failed_repro() {
        let section = ModelSection::run(&smoke_grids("model"));
        assert_eq!(section.failures(), Vec::<String>::new());

        // A violating UV verdict whose monitor claims P_nek held all run.
        let mut contradicted = section.clone();
        let victim = contradicted
            .counterexamples
            .verdicts
            .iter_mut()
            .find(|v| !v.is_safe())
            .expect("UV violates agreement outside P_nek");
        victim.predicates.as_mut().unwrap().first_empty_kernel = None;
        let failures = contradicted.failures();
        assert!(names(&failures, "predicates.cross_check"), "{failures:?}");

        // A forensic sample whose repro reruns to a different verdict.
        let mut forged = section.clone();
        let sample = forged
            .counterexamples
            .verdicts
            .iter_mut()
            .find(|v| v.forensic_events.is_some())
            .expect("a drained ring");
        sample.violation = Some("a violation the rerun does not flag".into());
        assert!(names(&forged.failures(), "telemetry.forensic_repro"));

        // A safe-grid violation.
        let mut unsafe_grid = section.clone();
        unsafe_grid.plain.verdicts[0].violation = Some("agreement".into());
        assert!(names(&unsafe_grid.failures(), "model.safety"));
    }

    #[test]
    fn contact_gates_name_a_late_window() {
        let section = ContactSection::run(&smoke_grids("contact_plan"));
        assert_eq!(section.failures(), Vec::<String>::new());
        let mut late = section.clone();
        late.lateness[0].achieved -= 1;
        assert!(names(&late.failures(), "contact_plan.late_window"));
    }

    #[test]
    fn contact_plan_section_degrades_gracefully() {
        // The thinned contact section: every predicate window inside the
        // good-suffix bound but measurably late (the plans must actually
        // disrupt), and every disrupted log catches back up inside its
        // round budget — recovery, not just survival.
        let section = ContactSection::run(&smoke_grids("contact_plan"));
        assert_eq!(section.lateness.len(), 6, "3 plans × {{P_k, P_su}}");
        for row in &section.lateness {
            assert!(row.within_bound(), "{row:?}");
            assert!(row.worst_witness > row.window, "{row:?}");
        }
        assert!(section.service().any(|v| v.divergent_rounds > 0));
        for v in section.service() {
            let catch_up = v.catch_up_rounds.expect("every disrupted log recovers");
            assert!(catch_up <= 80, "{}: catch-up {catch_up}", v.id());
        }
    }

    #[test]
    fn scenario_repro_reproduces_the_sweeps_verdict() {
        // A violating counterexample's id, looked up through the
        // `--scenario` repro path, must rerun to the *same* verdict and
        // carry a self-contained forensic artifact.
        let report = pnek_counterexample_sweep()
            .seeds(0..8)
            .telemetry(true)
            .run();
        let victim = report
            .verdicts
            .iter()
            .find(|v| !v.is_safe())
            .expect("UV violates agreement outside P_nek");
        let doc = run_scenario_by_id(&victim.id()).expect("counterexample ids are canonical");
        let Json::Obj(map) = doc else {
            panic!("repro doc is an object");
        };
        assert_eq!(map.get("scenario"), Some(&Json::Str(victim.id())));
        assert_eq!(map.get("layer"), Some(&Json::Str("model".into())));
        assert_eq!(
            map.get("repro"),
            Some(&Json::Str(repro_command(&victim.id())))
        );
        let Some(Json::Obj(verdict)) = map.get("verdict") else {
            panic!("repro doc embeds the verdict");
        };
        assert_eq!(
            verdict.get("violation"),
            Some(&Json::Str(
                victim.violation.clone().expect("victim violated")
            )),
            "the rerun reproduces the sweep's verdict"
        );
        let Some(Json::Obj(forensic)) = map.get("forensic") else {
            panic!("a violating rerun must produce a forensic artifact");
        };
        assert!(
            matches!(forensic.get("events"), Some(Json::Arr(e)) if !e.is_empty()),
            "the artifact carries the drained ring"
        );
        assert_eq!(forensic.get("seed"), Some(&Json::UInt(victim.seed)));

        // Unknown ids are rejected, not misattributed.
        assert!(run_scenario_by_id("model/no_such_adversary/n0/s0").is_none());

        // The same entry point resolves sim- and rsm-layer ids.
        let sim_id = sim_layer_sweep().scenarios()[0].id();
        assert_eq!(replay(&sim_id).map(|r| r.layer), Some("sim"));
        let rsm_id = rsm_layer_sweeps()[0].scenarios()[0].id();
        assert_eq!(replay(&rsm_id).map(|r| r.layer), Some("rsm"));
        let sharded_id = contact_sharded_sweep().scenarios()[0].id();
        assert_eq!(replay(&sharded_id).map(|r| r.layer), Some("rsm"));
    }

    #[test]
    fn scenario_ids_are_unique_within_each_section() {
        use std::collections::HashSet;
        fn assert_unique(section: &str, ids: &[String]) {
            let mut seen = HashSet::new();
            for id in ids {
                assert!(seen.insert(id), "{section}: duplicate scenario id {id}");
            }
        }
        // Model layer: the safe grid, the P_nek counterexamples, and the
        // contact grid never collide — adversary names are injective now
        // that float parameters format as integers (p200, never 0.2).
        let model: Vec<String> = baseline_sweeps()
            .iter()
            .flat_map(Sweep::scenarios)
            .chain(pnek_counterexample_sweep().scenarios())
            .chain(contact_model_sweep().scenarios())
            .map(|s| s.id())
            .collect();
        assert_unique("model", &model);
        let sim: Vec<String> = sim_layer_sweep()
            .scenarios()
            .into_iter()
            .chain(contact_sim_sweep().scenarios())
            .map(|s| s.id())
            .collect();
        assert_unique("sim", &sim);
        let rsm: Vec<String> = rsm_layer_sweeps()
            .iter()
            .flat_map(RsmSweep::scenarios)
            .chain(contact_rsm_sweep().scenarios())
            .map(|s| s.id())
            .collect();
        assert_unique("rsm_layer", &rsm);
        let sharded: Vec<String> = sharded_rsm_sweeps()
            .iter()
            .flat_map(RsmSweep::scenarios)
            .chain(contact_sharded_sweep().scenarios())
            .map(|s| s.id())
            .collect();
        assert_unique("sharded_rsm", &sharded);
        // Across the two rsm *sections* the S=1 overlap is deliberate:
        // shard_seed(seed, 0) == seed makes those cells bit-identical
        // anchors for reading the router's overhead, not id accidents.
        let rsm_ids: HashSet<&String> = rsm.iter().collect();
        assert!(
            sharded.iter().any(|id| rsm_ids.contains(id)),
            "the S=1 anchor cells must appear in both rsm sections"
        );
    }

    #[test]
    fn cross_check_accepts_the_monitored_grid_and_catches_contradictions() {
        let safe = run_model(&smoke_grids("model").model, |s| s.monitor_predicates(true));
        let counterexamples = pnek_counterexample_sweep()
            .seeds(0..4)
            .monitor_predicates(true)
            .run();
        assert!(counterexamples.violations > 0, "UV caught outside P_nek");
        predicate_cross_check(&safe, &counterexamples).expect("grid is consistent");

        // A violating UV verdict whose monitor claims P_nek held all run
        // must be flagged.
        let mut forged = counterexamples.clone();
        let victim = forged
            .verdicts
            .iter_mut()
            .find(|v| !v.is_safe())
            .expect("a violation exists");
        victim.predicates.as_mut().unwrap().first_empty_kernel = None;
        let err = predicate_cross_check(&safe, &forged).unwrap_err();
        assert!(err.contains("P_nek held"), "{err}");

        // An unmonitored verdict in a monitored grid is also a failure.
        let mut missing = counterexamples.clone();
        missing.verdicts[0].predicates = None;
        assert!(predicate_cross_check(&safe, &missing).is_err());
    }
}
