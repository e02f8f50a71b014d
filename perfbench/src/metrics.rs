//! The metric tables and their computation from a finished run.
//!
//! Three groups:
//!
//! * [`END_TO_END`] — what a user of the system sees, defined on every
//!   workload and never 0. The last output line carries exactly these
//!   with `--trace 0`; they are the metrics a later change is gated on.
//! * [`WORKLOAD_END_TO_END`] — end-to-end metrics that exist only on some
//!   workloads (commands per second on the log service, decision rounds
//!   on the model and fd layers, ...) plus the failure share, which is 0 on
//!   a healthy run. They are printed on the `report` line, `null` where a
//!   workload has no such quantity.
//! * [`PER_LAYER`] — per-layer work counts and self-time shares, defined
//!   on every workload (0 where the workload bypasses the layer). The last
//!   output line carries exactly these with `--trace 1`; the per-layer unit
//!   costs in [`LAYER_COSTS`] go on the `layers` line, only for the layers
//!   the workload exercises.

use std::collections::BTreeMap;

use crate::calib::REFERENCE_OPS_PER_S;
use crate::runner::{Counter, Pass, Spans};
use crate::stats::{median, percentile};
use crate::workloads::Kind;

/// A metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`; the self-tests hold `BENCHMARK.json` to it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics on every workload (the `--trace 0` result). Host
/// times are in reference units (see [`crate::calib`]); `setup_s` is in
/// reference seconds.
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s", "lower"),
    m("scenarios_per_s", "1/ref_s", "higher"),
    m("scenario_us_p50", "ref_us", "lower"),
    m("scenario_us_p99", "ref_us", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// End-to-end metrics of some workloads only (the `report` line).
pub const WORKLOAD_END_TO_END: [Metric; 10] = [
    m("commands_per_s", "1/ref_s", "higher"),
    m("commit_rounds_p50", "sim.rounds", "lower"),
    m("commit_rounds_p99", "sim.rounds", "lower"),
    m("decide_round_p50", "sim.rounds", "lower"),
    m("decide_round_p99", "sim.rounds", "lower"),
    m("decided_share", "share", "higher"),
    m("messages_per_decision", "sim.messages", "lower"),
    m("messages_per_command", "sim.messages", "lower"),
    m("bound_ratio_max", "ratio", "lower"),
    m("failure_share", "share", "lower"),
];

/// Per-layer metrics on every workload (the `--trace 1` result).
pub const PER_LAYER: [Metric; 26] = [
    m("harness.busy_share", "share", "higher"),
    m("harness.overhead_us_per_scenario", "us", "lower"),
    m("adversary.self_share", "share", "lower"),
    m("executor.self_share", "share", "lower"),
    m("monitor.self_share", "share", "lower"),
    m("sim.self_share", "share", "lower"),
    m("rsm.self_share", "share", "lower"),
    m("checker.self_share", "share", "lower"),
    m("fd.self_share", "share", "lower"),
    m("executor.rounds", "count", "lower"),
    m("executor.delivered_per_round", "count", "lower"),
    m("executor.allocs_per_round", "count", "lower"),
    m("sim.events_per_scenario", "count", "lower"),
    m("sim.peak_queue_depth", "count", "lower"),
    m("sim.send_steps_per_scenario", "count", "lower"),
    m("sim.drop_share", "share", "lower"),
    m("rsm.commands_per_slot", "count", "higher"),
    m("rsm.requeue_ratio", "ratio", "lower"),
    m("rsm.noop_slot_share", "share", "lower"),
    m("rsm.backfill_per_round", "count", "lower"),
    m("rsm.deferred_commands", "count", "lower"),
    m("rsm.lease_takeovers", "count", "lower"),
    m("fd.stable_writes_per_decision", "count", "lower"),
    m("fd.delivered_share", "share", "higher"),
    m("host.runq_wait_share", "share", "lower"),
    m("trace.overhead", "ratio", "higher"),
];

/// Per-layer unit costs of the layers a workload exercises (the `layers`
/// line).
pub const LAYER_COSTS: [Metric; 9] = [
    m("adversary.fill_ns_per_round", "ns", "lower"),
    m("executor.setup_us_per_scenario", "us", "lower"),
    m("executor.self_ns_per_round", "ns", "lower"),
    m("monitor.observe_ns_per_round", "ns", "lower"),
    m("sim.ns_per_event", "ns", "lower"),
    m("rsm.self_ns_per_round", "ns", "lower"),
    m("checker.ns_per_slot", "ns", "lower"),
    m("fd.ct_run_us", "us", "lower"),
    m("fd.aguilera_run_us", "us", "lower"),
];

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Run {
    /// The workload.
    pub kind: Kind,
    /// Set-up times in seconds, the first from process start.
    pub setups: Vec<f64>,
    /// The calibration kernel's speed right after the set-ups.
    pub setup_speed: f64,
    /// The warm-up pass, whose digest every later pass must repeat.
    pub reference: Pass,
    /// Timed passes through the layers' entry points.
    pub untraced: Vec<Pass>,
    /// Passes with per-layer spans.
    pub traced: Vec<Pass>,
    /// Peak resident set after the timed passes.
    pub peak_rss_mb: f64,
    /// Hypervisor steal over the run, as a share of all CPU ticks.
    pub steal_share: Option<f64>,
}

/// Computed metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn rate(p: &Pass, work: f64) -> f64 {
    work / (p.wall_ns as f64 * 1e-9)
}

/// Converts a wall time measured while the calibration kernel ran at
/// `speed` into reference units.
fn to_reference(t: f64, speed: f64) -> f64 {
    t * speed / REFERENCE_OPS_PER_S
}

fn sum_spans(passes: &[Pass]) -> Spans {
    let mut total = Spans::default();
    for p in passes {
        total.merge(&p.spans);
    }
    total
}

impl Run {
    fn all_passes(&self) -> impl Iterator<Item = &Pass> {
        std::iter::once(&self.reference)
            .chain(&self.untraced)
            .chain(&self.traced)
    }

    /// Scenario executions, and how many of them failed.
    #[must_use]
    pub fn attempted_failed(&self) -> (u64, u64) {
        self.all_passes()
            .fold((0, 0), |(a, f), p| (a + p.walls.len() as u64, f + p.failed))
    }

    fn rates(passes: &[Pass]) -> Vec<f64> {
        passes
            .iter()
            .map(|p| rate(p, p.walls.len() as f64))
            .collect()
    }

    /// Per-pass rates of `work` units per pass over the timed passes, in
    /// reference units when `corrected`.
    fn pass_rates(&self, work: f64, corrected: bool) -> Vec<f64> {
        self.untraced
            .iter()
            .map(|p| {
                let r = rate(p, work);
                if corrected {
                    r * REFERENCE_OPS_PER_S / p.speed
                } else {
                    r
                }
            })
            .collect()
    }

    /// The host timings: set-up, throughput and per-scenario latency (plus
    /// commands per second on the log service), in reference units when
    /// `corrected`, raw otherwise.
    #[must_use]
    pub fn timings(&self, corrected: bool) -> Values {
        let scale = |t: f64, speed: f64| if corrected { to_reference(t, speed) } else { t };
        let mut v = Values::new();
        if let Some(s) = median(&self.setups) {
            v.insert("setup_s", scale(s, self.setup_speed));
        }
        let n = self.reference.walls.len() as f64;
        if let Some(r) = median(&self.pass_rates(n, corrected)) {
            v.insert("scenarios_per_s", r);
        }
        let mut walls: Vec<u64> = self
            .untraced
            .iter()
            .flat_map(|p| {
                p.walls
                    .iter()
                    .map(|&w| scale(w as f64, p.speed).round() as u64)
            })
            .collect();
        walls.sort_unstable();
        v.insert("scenario_samples", walls.len() as f64);
        for (name, q) in [("scenario_us_p50", 50.0), ("scenario_us_p99", 99.0)] {
            if let Some(w) = percentile(&walls, q) {
                v.insert(name, w as f64 / 1e3);
            }
        }
        if self.kind == Kind::RsmService {
            let commands: u64 = self.reference.outcomes.iter().map(|o| o.commands).sum();
            if let Some(r) = median(&self.pass_rates(commands as f64, corrected)) {
                v.insert("commands_per_s", r);
            }
        }
        v
    }

    /// The end-to-end metrics, workload-specific ones included, plus the
    /// sample counts behind the percentiles (`*_samples`).
    #[must_use]
    pub fn end_to_end(&self) -> Values {
        let mut v = self.timings(true);
        let outcomes = &self.reference.outcomes;
        let n = outcomes.len() as f64;
        v.insert("peak_rss_mb", self.peak_rss_mb);
        let (attempted, failed) = self.attempted_failed();
        v.insert("failure_share", ratio(failed as f64, attempted as f64));

        let messages: u64 = outcomes.iter().map(|o| o.messages).sum();
        let decided = outcomes.iter().filter(|o| o.decided).count() as f64;
        match self.kind {
            Kind::ModelZoo | Kind::FdBaseline => {
                v.insert("decided_share", ratio(decided, n));
                v.insert("messages_per_decision", ratio(messages as f64, decided));
            }
            Kind::SimPredicates => {
                let worst = outcomes
                    .iter()
                    .filter_map(|o| o.bound_ratio)
                    .fold(0.0, f64::max);
                v.insert("bound_ratio_max", worst);
            }
            Kind::RsmService => {
                let commands: u64 = outcomes.iter().map(|o| o.commands).sum();
                v.insert(
                    "messages_per_command",
                    ratio(messages as f64, commands as f64),
                );
                let mut latencies: Vec<u64> = self
                    .traced
                    .first()
                    .map(|p| {
                        p.outcomes
                            .iter()
                            .flat_map(|o| o.latencies.clone())
                            .collect()
                    })
                    .unwrap_or_default();
                latencies.sort_unstable();
                v.insert("commit_samples", latencies.len() as f64);
                for (name, q) in [("commit_rounds_p50", 50.0), ("commit_rounds_p99", 99.0)] {
                    if let Some(l) = percentile(&latencies, q) {
                        v.insert(name, l as f64);
                    }
                }
            }
        }
        if self.kind == Kind::ModelZoo {
            let mut rounds: Vec<u64> = outcomes.iter().filter_map(|o| o.decide_round).collect();
            rounds.sort_unstable();
            v.insert("decide_samples", rounds.len() as f64);
            for (name, q) in [("decide_round_p50", 50.0), ("decide_round_p99", 99.0)] {
                if let Some(r) = percentile(&rounds, q) {
                    v.insert(name, r as f64);
                }
            }
        }
        v
    }

    /// Host-noise diagnostics: run-queue wait of the benchmark's worker
    /// threads, hypervisor steal, and traced ÷ untraced throughput.
    #[must_use]
    pub fn diagnostics(&self) -> Values {
        let mut v = Values::new();
        let (mut cpu, mut wait) = (0, 0);
        for p in self.all_passes() {
            cpu += p.spans.get(Counter::CpuNs);
            wait += p.spans.get(Counter::WaitNs);
        }
        v.insert(
            "host.runq_wait_share",
            ratio(wait as f64, (cpu + wait) as f64),
        );
        if let Some(s) = self.steal_share {
            v.insert("host.steal_share", s);
        }
        let speeds: Vec<f64> = self.untraced.iter().map(|p| p.speed).collect();
        if let Some(s) = median(&speeds) {
            v.insert("host.calib_ops_per_s", s);
        }
        if let (Some(t), Some(u)) = (
            median(&Self::rates(&self.traced)),
            median(&Self::rates(&self.untraced)),
        ) {
            v.insert("trace.overhead", t / u);
        }
        v
    }

    /// The per-layer metrics: [`PER_LAYER`] on every workload, and the
    /// [`LAYER_COSTS`] of the layers this workload exercises.
    #[must_use]
    pub fn per_layer(&self) -> Values {
        let mut v = self.diagnostics();
        v.remove("host.steal_share");
        v.remove("host.calib_ops_per_s");
        for metric in PER_LAYER {
            v.entry(metric.name).or_insert(0.0);
        }

        // The harness: timed passes, Σ scenario wall against workers × pass wall.
        let busy: Vec<f64> = self
            .untraced
            .iter()
            .map(|p| {
                let inside: u64 = p.walls.iter().sum();
                ratio(inside as f64, (p.workers as u64 * p.wall_ns) as f64)
            })
            .collect();
        let overhead: Vec<f64> = self
            .untraced
            .iter()
            .map(|p| {
                let inside: u64 = p.walls.iter().sum();
                let capacity = p.workers as u64 * p.wall_ns;
                ratio(
                    capacity.saturating_sub(inside) as f64 / 1e3,
                    p.walls.len() as f64,
                )
            })
            .collect();
        v.insert("harness.busy_share", median(&busy).unwrap_or(0.0));
        v.insert(
            "harness.overhead_us_per_scenario",
            median(&overhead).unwrap_or(0.0),
        );

        let s = sum_spans(&self.traced);
        let traced_wall: u64 = self.traced.iter().flat_map(|p| p.walls.iter()).sum();
        let scenarios: usize = self.traced.iter().map(|p| p.walls.len()).sum();
        let share = |ns: u64| ratio(ns as f64, traced_wall as f64);
        let per = |num: u64, den: u64| ratio(num as f64, den as f64);
        let fill = s.get(Counter::FillNs);
        let observe = s.get(Counter::ObserveNs);

        // Deterministic work counts come from the reference pass.
        let o = &self.reference.outcomes;
        let total = |f: fn(&crate::outcome::Outcome) -> u64| o.iter().map(f).sum::<u64>();
        let (rounds, delivered) = (total(|o| o.rounds), total(|o| o.delivered));
        let n = o.len() as u64;

        match self.kind {
            Kind::ModelZoo => {
                let step = s.get(Counter::StepNs);
                let steps = s.get(Counter::Steps);
                let exec_self = step.saturating_sub(fill + observe);
                v.insert("adversary.self_share", share(fill));
                v.insert("monitor.self_share", share(observe));
                v.insert(
                    "executor.self_share",
                    share(exec_self + s.get(Counter::SetupNs)),
                );
                v.insert("executor.rounds", per(rounds, n));
                v.insert("executor.delivered_per_round", per(delivered, rounds));
                v.insert(
                    "executor.allocs_per_round",
                    per(s.get(Counter::StepAllocs), steps),
                );
                v.insert(
                    "adversary.fill_ns_per_round",
                    per(fill, s.get(Counter::Fills)),
                );
                v.insert(
                    "executor.setup_us_per_scenario",
                    per(s.get(Counter::SetupNs), scenarios as u64) / 1e3,
                );
                v.insert("executor.self_ns_per_round", per(exec_self, steps));
                v.insert(
                    "monitor.observe_ns_per_round",
                    per(observe, s.get(Counter::Observes)),
                );
            }
            Kind::SimPredicates => {
                let events = total(|o| o.events);
                v.insert("sim.self_share", share(s.get(Counter::SimNs)));
                v.insert("sim.events_per_scenario", per(events, n));
                v.insert(
                    "sim.peak_queue_depth",
                    o.iter().map(|o| o.peak_queue).max().unwrap_or(0) as f64,
                );
                v.insert(
                    "sim.send_steps_per_scenario",
                    per(total(|o| o.send_steps), n),
                );
                v.insert(
                    "sim.drop_share",
                    per(total(|o| o.dropped), total(|o| o.messages)),
                );
                // Every traced pass dispatches the reference pass's events.
                v.insert(
                    "sim.ns_per_event",
                    per(s.get(Counter::SimNs), events * self.traced.len() as u64),
                );
            }
            Kind::RsmService => {
                let run = s.get(Counter::RsmRunNs);
                let rsm_self = run.saturating_sub(fill) + s.get(Counter::RsmSetupNs);
                let group_rounds = rounds * self.traced.len() as u64;
                let (commands, slots) = (total(|o| o.commands), total(|o| o.slots));
                v.insert("adversary.self_share", share(fill));
                v.insert("rsm.self_share", share(rsm_self));
                v.insert("checker.self_share", share(s.get(Counter::CheckNs)));
                v.insert("executor.rounds", per(rounds, n));
                v.insert("executor.delivered_per_round", per(delivered, rounds));
                v.insert(
                    "executor.allocs_per_round",
                    per(s.get(Counter::RsmRunAllocs), group_rounds),
                );
                v.insert("rsm.commands_per_slot", per(commands, slots));
                v.insert("rsm.requeue_ratio", per(total(|o| o.requeued), commands));
                v.insert("rsm.noop_slot_share", per(total(|o| o.noop_slots), slots));
                v.insert("rsm.backfill_per_round", per(total(|o| o.backfill), rounds));
                v.insert("rsm.deferred_commands", total(|o| o.deferred) as f64);
                v.insert("rsm.lease_takeovers", total(|o| o.takeovers) as f64);
                v.insert(
                    "adversary.fill_ns_per_round",
                    per(fill, s.get(Counter::Fills)),
                );
                v.insert(
                    "rsm.self_ns_per_round",
                    per(run.saturating_sub(fill), group_rounds),
                );
                v.insert(
                    "checker.ns_per_slot",
                    per(s.get(Counter::CheckNs), slots * self.traced.len() as u64),
                );
            }
            Kind::FdBaseline => {
                let (ct, ag) = (s.get(Counter::CtNs), s.get(Counter::AgNs));
                let decided = o.iter().filter(|o| o.decided).count() as u64;
                v.insert("fd.self_share", share(ct + ag));
                v.insert(
                    "fd.stable_writes_per_decision",
                    per(total(|o| o.stable_writes), decided),
                );
                v.insert("fd.delivered_share", per(delivered, total(|o| o.messages)));
                v.insert("fd.ct_run_us", per(ct, s.get(Counter::CtRuns)) / 1e3);
                v.insert("fd.aguilera_run_us", per(ag, s.get(Counter::AgRuns)) / 1e3);
            }
        }
        v
    }
}
