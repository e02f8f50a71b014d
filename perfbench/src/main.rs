//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <model_zoo|sim_predicates|rsm_service|fd_baseline|all>
//!           [--seed S] [--seconds T] [--trace 0|1]
//! ```
//!
//! For the chosen workload it sets the grid up several times (the first
//! time from process start), runs one warm-up pass, then runs closed-batch
//! passes over the grid for `T` seconds and checks every pass: no scenario
//! may fail, and every pass must repeat the warm-up pass's outcome digest.
//! With `--trace 0` it then runs one traced pass, for the diagnostics and
//! the log service's pooled apply latencies; with `--trace 1` it
//! interleaves traced and untraced passes for the whole `T` seconds and
//! reports the per-layer metrics. A traced pass must repeat the untraced
//! digest too. End-to-end host timings are corrected for the host's speed
//! drift by a calibration kernel run between blocks of passes, and are
//! reported in reference units (see [`calib`]); the `report` line also
//! carries them raw.
//!
//! Output, one line each: `run` (what ran, with the seed), `digest`,
//! `report` (every end-to-end metric with unit and sample counts),
//! `diagnostics` (host noise and tracing overhead), `layers` (`--trace 1`),
//! `failure` lines if any, and last a JSON object
//! `{"correct", "attempted", "failed", "metrics"}` whose metrics are the
//! [`metrics::END_TO_END`] table (`--trace 0`) or the
//! [`metrics::PER_LAYER`] table (`--trace 1`). With `--workload all` every
//! workload runs in turn and the last line carries all of their results,
//! each metric name prefixed with its workload. The exit code is 0 only
//! when every check passed.
//!
//! Run it from the repository root:
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload model_zoo`.

mod alloc;
mod calib;
mod host;
mod metrics;
mod outcome;
mod runner;
#[cfg(test)]
mod selftest;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Metric, Run, Values, END_TO_END, LAYER_COSTS, PER_LAYER, WORKLOAD_END_TO_END};
use runner::pass;
use workloads::{Grid, Kind, MAX_SHIFT};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Minimum wall time of a block of passes between two calibrations.
const CALIBRATION_BLOCK: Duration = Duration::from_millis(250);
/// Failure messages printed per run.
const MAX_FAILURE_LINES: usize = 10;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = Some(if name == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?]
                });
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .ok()
                    .filter(|s| *s <= MAX_SHIFT)
                    .ok_or_else(|| format!("--seed takes an integer in 0..={MAX_SHIFT}"))?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number in (0, 3600]")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Builds the grid and runs its first scenario, `SETUPS` times; the first
/// set-up counts from `process_start`.
fn setup_times(kind: Kind, seed: u64, process_start: Option<Instant>) -> Vec<f64> {
    (0..SETUPS)
        .map(|i| {
            let start = process_start
                .filter(|_| i == 0)
                .unwrap_or_else(Instant::now);
            let grid = Grid::build(kind, seed);
            let first = pass(&grid.subset(|i| i == 0), 1, false);
            std::hint::black_box(first);
            start.elapsed().as_secs_f64()
        })
        .collect()
}

fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

fn measure(kind: Kind, args: &Args, process_start: Option<Instant>) -> Run {
    let setups = setup_times(kind, args.seed, process_start);
    let grid = Grid::build(kind, args.seed);
    let workers = kind.workers();
    let ticks = host::cpu_ticks();
    let reference = pass(&grid, workers, false);
    let peak_rss_mb = host::peak_rss_mb();
    let mut speed = calib::ops_per_s(workers);
    let setup_speed = speed;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut untraced, mut traced) = (Vec::<runner::Pass>::new(), Vec::<runner::Pass>::new());
    // Blocks of passes between two calibrations; each pass is charged the
    // mean kernel speed of the calibrations around its block.
    while untraced.len() < MIN_PASSES || Instant::now() < deadline {
        let block_start = Instant::now();
        let (first_untraced, first_traced) = (untraced.len(), traced.len());
        while block_start.elapsed() < CALIBRATION_BLOCK {
            let mut p = pass(&grid, workers, false);
            p.release_outcomes();
            untraced.push(p);
            if args.trace {
                let mut p = pass(&grid, workers, true);
                if !traced.is_empty() {
                    p.release_outcomes();
                }
                traced.push(p);
            }
        }
        let after = calib::ops_per_s(workers);
        for p in untraced[first_untraced..]
            .iter_mut()
            .chain(&mut traced[first_traced..])
        {
            p.speed = (speed + after) / 2.0;
        }
        speed = after;
    }
    if !args.trace {
        let mut p = pass(&grid, workers, true);
        p.speed = speed;
        traced.push(p);
    }
    Run {
        kind,
        setups,
        setup_speed,
        reference,
        untraced,
        traced,
        peak_rss_mb,
        steal_share: steal_share(ticks, host::cpu_ticks()),
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `"prefix.name": {"value": v, "unit": u}` fields over `tables`; a metric
/// without a value prints `null` when `nulls`, and is skipped otherwise.
fn metric_fields(tables: &[&[Metric]], values: &Values, nulls: bool, prefix: &str) -> Vec<String> {
    tables
        .iter()
        .flat_map(|t| t.iter())
        .filter_map(|metric| {
            let value = match values.get(metric.name) {
                Some(v) => num(*v),
                None if nulls => "null".into(),
                None => return None,
            };
            Some(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(&format!("{prefix}{}", metric.name)),
                quote(metric.unit)
            ))
        })
        .collect()
}

fn metric_object(tables: &[&[Metric]], values: &Values, nulls: bool) -> String {
    format!(
        "{{{}}}",
        metric_fields(tables, values, nulls, "").join(", ")
    )
}

/// A run's verdict: the fields of the last output line.
struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The result metrics' JSON fields.
    fields: Vec<String>,
}

/// Whether every pass repeated the warm-up digest.
fn digests_agree(run: &Run) -> (bool, bool) {
    let want = run.reference.digest;
    (
        run.untraced.iter().all(|p| p.digest == want),
        run.traced.iter().all(|p| p.digest == want),
    )
}

/// Prints a run's lines and returns its verdict, metric names prefixed
/// with `prefix`.
fn report(run: &Run, args: &Args, prefix: &str) -> Verdict {
    let name = quote(run.kind.name());
    let head = format!("\"workload\": {name}, \"seed\": {}", args.seed);
    let (attempted, failed) = run.attempted_failed();
    let (untraced_ok, traced_ok) = digests_agree(run);
    println!(
        "run {{{head}, \"seconds\": {}, \"trace\": {}, \"workers\": {}, \"scenarios\": {}, \"passes\": {}, \"traced_passes\": {}}}",
        num(args.seconds),
        u8::from(args.trace),
        run.reference.workers,
        run.reference.walls.len(),
        run.untraced.len(),
        run.traced.len(),
    );
    println!(
        "digest {{{head}, \"digest\": \"{:016x}\", \"passes_agree\": {untraced_ok}, \"traced_agrees\": {traced_ok}}}",
        run.reference.digest
    );
    let e2e = run.end_to_end();
    let samples: Vec<String> = [
        ("scenario_us", "scenario_samples"),
        ("commit_rounds", "commit_samples"),
        ("decide_round", "decide_samples"),
    ]
    .iter()
    .filter_map(|(label, key)| Some(format!("\"{label}\": {}", e2e.get(key)?)))
    .collect();
    let raw: Vec<String> = run
        .timings(false)
        .iter()
        .filter(|(k, _)| !k.ends_with("_samples"))
        .map(|(k, v)| format!("{}: {}", quote(k), num(*v)))
        .collect();
    println!(
        "report {{{head}, \"metrics\": {}, \"samples\": {{{}}}, \"raw\": {{{}}}}}",
        metric_object(&[&END_TO_END, &WORKLOAD_END_TO_END], &e2e, true),
        samples.join(", "),
        raw.join(", ")
    );
    let diag = run.diagnostics();
    let diag_fields: Vec<String> = diag
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), num(*v)))
        .collect();
    println!("diagnostics {{{head}, {}}}", diag_fields.join(", "));
    let layers = args.trace.then(|| run.per_layer());
    if let Some(layers) = &layers {
        println!(
            "layers {{{head}, \"metrics\": {}}}",
            metric_object(&[&PER_LAYER, &LAYER_COSTS], layers, false)
        );
    }
    // The warm-up pass keeps every outcome; a later pass can only add a
    // failure the warm-up pass did not have if the run is nondeterministic.
    let mut printed: Vec<&String> = Vec::new();
    for f in run
        .reference
        .outcomes
        .iter()
        .filter_map(|o| o.failure.as_ref())
        .chain(
            run.untraced
                .iter()
                .chain(&run.traced)
                .filter_map(|p| p.first_failure.as_ref()),
        )
    {
        if printed.len() == MAX_FAILURE_LINES {
            break;
        }
        if !printed.contains(&f) {
            println!("failure {f}");
            printed.push(f);
        }
    }
    let correct = failed == 0 && untraced_ok && traced_ok;
    let (tables, values): (&[&[Metric]], &Values) = match &layers {
        Some(layers) => (&[&PER_LAYER], layers),
        None => (&[&END_TO_END], &e2e),
    };
    Verdict {
        correct,
        attempted,
        failed,
        fields: metric_fields(tables, values, true, prefix),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed S] [--seconds T] [--trace 0|1]",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // With several workloads the last line carries every workload's
    // result, each metric prefixed with its workload's name.
    let several = args.workloads.len() > 1;
    let verdicts: Vec<Verdict> = args
        .workloads
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let run = measure(kind, &args, (i == 0).then_some(process_start));
            let prefix = if several {
                format!("{}.", kind.name())
            } else {
                String::new()
            };
            report(&run, &args, &prefix)
        })
        .collect();
    let all_correct = verdicts.iter().all(|v| v.correct);
    let fields: Vec<String> = verdicts.iter().flat_map(|v| v.fields.clone()).collect();
    let last = format!(
        "{{\"correct\": {all_correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdicts.iter().map(|v| v.attempted).sum::<u64>(),
        verdicts.iter().map(|v| v.failed).sum::<u64>(),
        fields.join(", ")
    );
    println!("{last}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
