//! Microbench for the pipelined log's round kernel (`ho_rsm::MultiSlot`
//! under the round executor): one sample builds a `LogDriver` at n = 7,
//! depth 16, with a fixed-rate workload of 2 commands per round, and runs
//! it for 80 rounds under full delivery.
//!
//! OneThirdRule's instances broadcast in every round; LastVoting's
//! alternate point-to-point rounds (4φ−3, 4φ−1) with coordinator
//! broadcasts, so the pair shows what the bundle costs when most live
//! slots are addressed to one process rather than to everybody.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ho_core::adversary::FullDelivery;
use ho_core::algorithms::{LastVoting, OneThirdRule};
use ho_core::HoAlgorithm;
use ho_rsm::{LogDriver, RsmConfig, WorkloadSpec};

const N: usize = 7;
const DEPTH: usize = 16;
const ROUNDS: u64 = 80;

/// Runs one log for `ROUNDS` rounds; returns the commands it ordered.
fn run<A: HoAlgorithm<Value = u64>>(inner: A) -> u64 {
    let mut driver = LogDriver::new(
        inner,
        WorkloadSpec::FixedRate { per_round: 2 },
        RsmConfig::with_depth(DEPTH),
        7,
    );
    driver.run(&mut FullDelivery, ROUNDS).expect("safe");
    driver.check().commands
}

fn bench_multislot(c: &mut Criterion) {
    let mut g = c.benchmark_group("rsm_multislot");
    g.sample_size(20);
    g.bench_function("last_voting/n7/d16/80_rounds", |b| {
        b.iter(|| black_box(run(LastVoting::new(N))));
    });
    g.bench_function("one_third_rule/n7/d16/80_rounds", |b| {
        b.iter(|| black_box(run(OneThirdRule::new(N))));
    });
    g.finish();
}

criterion_group!(benches, bench_multislot);
criterion_main!(benches);
