//! Host readings from `/proc`: per-thread run-queue wait, hypervisor
//! steal and the process's peak resident set. Every reader returns `None`
//! (or 0) where the file is missing, so the benchmark still runs on a
//! kernel without them; the diagnostics then read 0.

/// `(on-cpu ns, run-queue wait ns)` of the calling thread, from
/// `/proc/thread-self/schedstat`.
#[must_use]
pub fn thread_schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    Some((fields.next()?.ok()?, fields.next()?.ok()?))
}

/// `(steal ticks, all ticks)` summed over CPUs, from the first line of
/// `/proc/stat`.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let steal = *ticks.get(7)?;
    let all = ticks.iter().take(8).sum();
    Some((steal, all))
}

/// Peak resident set size in MiB (`VmHWM` in `/proc/self/status`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
