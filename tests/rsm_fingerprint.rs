//! Behaviour fingerprint for the replicated-log service.
//!
//! One fixed OneThirdRule + LastVoting rsm grid — leases off and on, full
//! delivery, a lossy, a crash-recovery and a contact-plan adversary — is
//! run and every verdict's simulated facts are folded, in grid order, into
//! one 64-bit constant. A change that only makes the service faster or
//! leaner (fewer allocations, cheaper fan-out) must leave the constant
//! where it is; a change that moves it changed what the log orders, when,
//! or how many messages it took.
//!
//! The fold covers the log shape (slots, min_slots, noop_slots, commands),
//! the service counters (requeued, backfill), the latency distribution
//! (p50, p99, max) and the traffic (delivered_messages, divergent_rounds).
//! It deliberately excludes the `payload_*` cost counters: those measure
//! how the bundles were built, not what the service did.
//!
//! When a behaviour change is intentional, rerun with
//! `cargo test --test rsm_fingerprint -- --nocapture`, which prints the new
//! constant, and say in the change why it moved.

use heardof::core::contact::ContactPlan;
use heardof::harness::{AdversarySpec, AlgorithmSpec, RsmSweep, RsmVerdict, WorkloadSpec};

/// The fold of the grid below.
const GOLDEN: u64 = 0x591e_2b3b_2d29_461d;

/// SplitMix64's finaliser over (state, word): a 64-bit fold that moves on
/// every input bit.
#[derive(Clone, Copy)]
struct Fold(u64);

impl Fold {
    fn word(&mut self, v: u64) {
        let mut z = (self.0.rotate_left(23) ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    /// Distinguishes `None` from every value.
    fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.word(1);
                self.word(v);
            }
            None => self.word(0),
        }
    }
}

fn fold_verdict(d: &mut Fold, v: &RsmVerdict) {
    for b in v.id().bytes() {
        d.word(u64::from(b));
    }
    for w in [
        v.rounds_run,
        v.slots,
        v.min_slots,
        v.noop_slots,
        v.commands,
        v.requeued_commands,
        v.backfill_entries,
        v.delivered_messages,
        v.divergent_rounds,
    ] {
        d.word(w);
    }
    d.opt(v.latency_p50);
    d.opt(v.latency_p99);
    d.opt(v.latency_max);
}

#[test]
fn rsm_grid_fingerprint_is_pinned() {
    let report = RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
        .adversaries([
            AdversarySpec::FullDelivery,
            AdversarySpec::RandomLoss { loss: 0.3 },
            AdversarySpec::CrashRecovery,
            AdversarySpec::ContactPlan {
                plan: ContactPlan::Episodic {
                    dark: 3,
                    bright: 2,
                    cycles: 6,
                },
            },
        ])
        .sizes([4, 7])
        .depths([1, 4, 16])
        .workloads([
            WorkloadSpec::FixedRate { per_round: 2 },
            WorkloadSpec::ClosedLoop { clients: 8 },
        ])
        .leases([false, true])
        .seeds(0..3)
        .rounds(60)
        .run();
    assert_eq!(report.scenarios, 2 * 4 * 2 * 3 * 2 * 2 * 3);
    assert_eq!(report.violations, 0, "{:?}", report.violating().first());
    assert!(report.totals.commands > 0);

    let mut d = Fold(0x243F_6A88_85A3_08D3);
    d.word(report.verdicts.len() as u64);
    for v in &report.verdicts {
        fold_verdict(&mut d, v);
    }
    println!("rsm grid fingerprint: {:#018x}", d.0);
    assert_eq!(
        d.0, GOLDEN,
        "the rsm grid's behaviour moved: got {:#018x}",
        d.0
    );
}
