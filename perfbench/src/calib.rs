//! Host-speed calibration.
//!
//! On a shared virtual machine the host's speed drifts by 15–30% over
//! minutes (other tenants on the same physical cores), which swamps any
//! change a commit makes. The benchmark therefore runs a fixed kernel —
//! owned by the benchmark, independent of the code under test — between
//! blocks of timed passes, on as many threads as the workload uses, and
//! expresses every timing in *reference* units: a wall time `t` measured
//! while the kernel ran at `r` operations per second is reported as
//! `t · r / REFERENCE_OPS_PER_S`, the time the same work would take on a
//! host running the kernel at [`REFERENCE_OPS_PER_S`]. Raw times are
//! printed next to the corrected ones.
//!
//! The kernel churns the allocator the way the scenario loops do: each
//! operation builds a short vector of 1–48 words, reads it, and replaces a
//! random entry of a 64-entry live pool, so it mixes allocation and free,
//! stores, loads and data-dependent branches. Of the kernels tried
//! (random table updates in L2, a larger live pool, this one) it tracked
//! the drift of both the model and the failure-detector workloads best.

use std::time::Instant;

/// The kernel speed that defines one reference second (close to the
/// kernel's median speed on the 2-vCPU host the benchmark was tuned on).
pub const REFERENCE_OPS_PER_S: f64 = 2.5e7;

/// Kernel operations per calibration (about 15 ms per thread).
const OPS: u64 = 400_000;
/// Live vectors kept by the kernel.
const LIVE: usize = 64;

fn kernel(ops: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    let mut pool: Vec<Vec<u64>> = Vec::with_capacity(LIVE);
    for _ in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = 1 + (x % 48) as usize;
        let v: Vec<u64> = (0..len as u64).map(|i| i ^ x).collect();
        acc = acc.wrapping_add(v[len / 2]);
        if pool.len() < LIVE {
            pool.push(v);
        } else {
            let j = (x >> 8) as usize % LIVE;
            acc = acc.wrapping_add(pool[j][0]);
            pool[j] = v;
        }
    }
    acc
}

fn one_thread() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel(OPS));
    OPS as f64 / start.elapsed().as_secs_f64()
}

/// The kernel's speed in operations per second per thread, run on
/// `threads` threads at once (the calling thread is one of them).
#[must_use]
pub fn ops_per_s(threads: usize) -> f64 {
    let threads = threads.max(1);
    let rates: Vec<f64> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(one_thread)).collect();
        let mut rates = vec![one_thread()];
        rates.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("calibration thread panicked")),
        );
        rates
    });
    rates.iter().sum::<f64>() / rates.len() as f64
}
