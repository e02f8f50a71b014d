//! The four benchmark workloads, defined with the harness builder API.
//!
//! The axis values are copied from the repository's canonical grids, but
//! they are spelled out here on purpose: a refactor of the report binary
//! cannot silently change what the benchmark measures. `shift` moves every
//! seed range by `shift * SEED_STRIDE`, so `shift = 0` is the canonical
//! grid and any other value is a grid of the same shape on seeds that were
//! never seen while the code was written.

use ho_core::ContactPlan;
use ho_fd::FdScenario;
use ho_harness::{
    AdversarySpec, AlgorithmSpec, ImplementationSpec, LinkFaultSpec, RsmScenario, RsmSweep,
    Scenario, SimScenario, SimSweep, Sweep, WorkloadSpec,
};

/// Distance between the seed ranges of two consecutive `--seed` values;
/// larger than every seed axis below, so shifted ranges never overlap.
pub const SEED_STRIDE: u64 = 1000;

/// The benchmark's workloads, in the order `--workload all` runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// OTR / LastVoting / UniformVoting on the model-layer executor.
    ModelZoo,
    /// Algorithms 2 and 3 on the system-level simulator.
    SimPredicates,
    /// The replicated log service, unsharded and sharded.
    RsmService,
    /// Chandra–Toueg and Aguilera on the failure-detector network.
    FdBaseline,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::ModelZoo,
        Kind::SimPredicates,
        Kind::RsmService,
        Kind::FdBaseline,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::ModelZoo => "model_zoo",
            Kind::SimPredicates => "sim_predicates",
            Kind::RsmService => "rsm_service",
            Kind::FdBaseline => "fd_baseline",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Worker threads for the timed passes (a closed batch per worker).
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Kind::RsmService => 2,
            _ => 1,
        }
    }
}

/// The first seed of a range of `len` seeds whose canonical start is
/// `start`, shifted by `shift` strides.
fn seeds(shift: u64, start: u64, len: u64) -> std::ops::Range<u64> {
    let first = start + shift * SEED_STRIDE;
    first..first + len
}

/// The largest `--seed` value whose shifted seed ranges do not overflow.
pub const MAX_SHIFT: u64 = u64::MAX / SEED_STRIDE - 1;

/// The contact plans of the canonical grids: an episodic partition, a
/// rotating two-process window and a store-and-forward gap, all fully
/// connected from round 19 on.
fn contact_plans() -> [ContactPlan; 3] {
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

/// The seven-adversary fault zoo OTR and LastVoting run under; their
/// safety needs no communication predicate.
fn fault_zoo() -> [AdversarySpec; 7] {
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

/// `model_zoo`: OTR/LV under the fault zoo and the contact plans, UV under
/// the kernel-preserving adversaries, with predicate monitoring on. The
/// n = 32 cells put the O(n²) round kernels into the tail.
#[must_use]
pub fn model_zoo(shift: u64) -> Vec<Sweep> {
    let otr_lv = [AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting];
    let sweeps = [
        Sweep::new()
            .algorithms(otr_lv)
            .adversaries(fault_zoo())
            .sizes([4, 7, 10])
            .seeds(seeds(shift, 0, 40)),
        Sweep::new()
            .algorithms([AlgorithmSpec::UniformVoting])
            .adversaries([
                AdversarySpec::FullDelivery,
                AdversarySpec::KernelOnly { loss: 0.8 },
            ])
            .sizes([4, 7, 10])
            .seeds(seeds(shift, 0, 40)),
        Sweep::new()
            .algorithms(otr_lv)
            .adversaries(contact_plans().map(|plan| AdversarySpec::ContactPlan { plan }))
            .sizes([4, 7])
            .seeds(seeds(shift, 0, 40)),
        Sweep::new()
            .algorithms(otr_lv)
            .adversaries(fault_zoo())
            .sizes([32])
            .seeds(seeds(shift, 0, 10)),
    ];
    sweeps
        .into_iter()
        .map(|s| s.max_rounds(120).monitor_predicates(true))
        .collect()
}

/// `sim_predicates`: Algorithms 2 and 3 (f = 1) under the four link-fault
/// models and the four contact-plan faults, each verdict checked against
/// its theorem bound.
#[must_use]
pub fn sim_predicates(shift: u64) -> Vec<SimSweep> {
    let implementations = [ImplementationSpec::Alg2, ImplementationSpec::Alg3 { f: 1 }];
    let [episodic, rotating, store_forward] = contact_plans();
    let contact = |plan, round_len| LinkFaultSpec::ContactPlanThenGood { plan, round_len };
    vec![
        SimSweep::new()
            .implementations(implementations)
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
            .seeds(seeds(shift, 0, 10))
            .window(2),
        SimSweep::new()
            .implementations(implementations)
            .faults([
                contact(episodic, 5.0),
                contact(rotating, 5.0),
                contact(store_forward, 5.0),
                contact(store_forward, 2.5),
            ])
            .sizes([4, 6])
            .seeds(seeds(shift, 0, 6))
            .window(2),
    ]
}

/// `rsm_service`: the rsm grid (three inner algorithms, depths {1, 4, 16},
/// four client workloads, leases off and on), the sharded grid
/// (S ∈ {1, 2, 4, 8, 16}) and the contact-plan rsm and sharded grids.
#[must_use]
pub fn rsm_service(shift: u64) -> Vec<RsmSweep> {
    let client_workloads = [
        WorkloadSpec::FixedRate { per_round: 2 },
        WorkloadSpec::ClosedLoop { clients: 8 },
        WorkloadSpec::Bursty {
            burst: 8,
            period: 4,
        },
        WorkloadSpec::SkewedKey { per_round: 2 },
    ];
    let [episodic, _, store_forward] = contact_plans();
    let sweeps = [
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
            .workloads(client_workloads),
        RsmSweep::new()
            .algorithms([AlgorithmSpec::UniformVoting])
            .adversaries([AdversarySpec::FullDelivery])
            .sizes([4, 7])
            .depths([1, 4, 16])
            .workloads(client_workloads),
        RsmSweep::new()
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
            ]),
        RsmSweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
            .adversaries(contact_plans().map(|plan| AdversarySpec::ContactPlan { plan }))
            .sizes([4])
            .depths([1, 4])
            .workloads([
                WorkloadSpec::FixedRate { per_round: 2 },
                WorkloadSpec::ClosedLoop { clients: 8 },
            ]),
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
            .workloads([WorkloadSpec::FixedRate { per_round: 2 }]),
    ];
    sweeps
        .into_iter()
        .map(|s| s.leases([false, true]).seeds(seeds(shift, 0, 3)).rounds(80))
        .collect()
}

/// Which failure-detector algorithm an `fd_baseline` case runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FdAlgorithm {
    /// Chandra–Toueg, ◇S, crash-stop.
    ChandraToueg,
    /// Aguilera et al., ◇Su, crash-recovery with stable storage.
    Aguilera,
}

/// One `fd_baseline` case: an algorithm on a fault scenario.
#[derive(Clone, Debug)]
pub struct FdCase {
    /// The algorithm under test.
    pub algorithm: FdAlgorithm,
    /// The fault scenario's name.
    pub fault: &'static str,
    /// The scenario.
    pub scenario: FdScenario,
}

/// `fd_baseline`: both failure-detector algorithms over the failure-free,
/// one-crash, crash-recovery and 30%-loss scenarios. The grid runs 100
/// seeds rather than the 20 of the comparison table: its time is dominated
/// by the few lossy Chandra–Toueg runs that block until the deadline, and
/// on 20 seeds their number, and with it the pass time, swings by 20%
/// from one seed range to the next.
#[must_use]
pub fn fd_baseline(shift: u64) -> Vec<FdCase> {
    let mut cases = Vec::new();
    for algorithm in [FdAlgorithm::ChandraToueg, FdAlgorithm::Aguilera] {
        for n in [3, 5, 7] {
            for seed in seeds(shift, 0, 100) {
                let faults = [
                    ("failure_free", FdScenario::failure_free(n, seed)),
                    ("one_crash", FdScenario::one_crash(n, 0, seed)),
                    (
                        "crash_recovery",
                        FdScenario::crash_recovery(n, 1, 0.4, 30.0, seed),
                    ),
                    ("loss_p300", FdScenario::lossy(n, 0.3, seed)),
                ];
                for (fault, scenario) in faults {
                    cases.push(FdCase {
                        algorithm,
                        fault,
                        scenario,
                    });
                }
            }
        }
    }
    cases
}

/// The materialised scenario list of a workload.
pub enum Grid {
    /// Model-layer consensus scenarios.
    Model(Vec<Scenario>),
    /// Sim-layer predicate-implementation scenarios.
    Sim(Vec<SimScenario>),
    /// Log-service scenarios.
    Rsm(Vec<RsmScenario>),
    /// Failure-detector cases.
    Fd(Vec<FdCase>),
}

impl Grid {
    /// Builds and materialises `kind`'s grid under seed shift `shift`.
    #[must_use]
    pub fn build(kind: Kind, shift: u64) -> Grid {
        match kind {
            Kind::ModelZoo => {
                Grid::Model(model_zoo(shift).iter().flat_map(Sweep::scenarios).collect())
            }
            Kind::SimPredicates => Grid::Sim(
                sim_predicates(shift)
                    .iter()
                    .flat_map(SimSweep::scenarios)
                    .collect(),
            ),
            Kind::RsmService => Grid::Rsm(
                rsm_service(shift)
                    .iter()
                    .flat_map(RsmSweep::scenarios)
                    .collect(),
            ),
            Kind::FdBaseline => Grid::Fd(fd_baseline(shift)),
        }
    }

    /// Number of scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Grid::Model(s) => s.len(),
            Grid::Sim(s) => s.len(),
            Grid::Rsm(s) => s.len(),
            Grid::Fd(s) => s.len(),
        }
    }
}

impl Grid {
    /// The scenarios whose grid index satisfies `keep`, in grid order.
    #[must_use]
    pub fn subset(&self, keep: impl Fn(usize) -> bool) -> Grid {
        fn pick<T: Clone>(items: &[T], keep: impl Fn(usize) -> bool) -> Vec<T> {
            items
                .iter()
                .enumerate()
                .filter(|(i, _)| keep(*i))
                .map(|(_, t)| t.clone())
                .collect()
        }
        match self {
            Grid::Model(s) => Grid::Model(pick(s, keep)),
            Grid::Sim(s) => Grid::Sim(pick(s, keep)),
            Grid::Rsm(s) => Grid::Rsm(pick(s, keep)),
            Grid::Fd(s) => Grid::Fd(pick(s, keep)),
        }
    }
}
