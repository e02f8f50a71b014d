//! SW — the scenario sweep: writes `BENCH_sweep.json`.
//!
//! `sweep [--smoke] [PATH]` — runs every section of the report table in
//! `bench::sweep` and writes the document (default `BENCH_sweep.json`).
//! With `--smoke` the thinned CI grids run instead. Either way the exit
//! status is 1 when any gate failed — a safety violation, a cross-check
//! contradiction, a sim-layer theorem bound broken, a scheduler
//! divergence, a log-oracle violation, lease-on requeue churn, a late
//! contact-plan window, or a forensic repro that does not reproduce — and
//! every failed gate is listed on stderr.
//!
//! `sweep --rsm [PATH]` — runs only the replicated-log sections at full
//! size, per-scenario verdicts embedded (default `BENCH_rsm.json`), gated
//! the same way.
//!
//! `sweep --scenario <id> [PATH]` — single-scenario repro mode, the
//! command every forensic artifact embeds: reruns exactly one scenario
//! from any canonical grid with the flight recorder on and prints (or
//! writes, when PATH is given) the self-contained result document —
//! verdict, telemetry digest, and the forensic artifact when the run
//! ends in a violation. Exits 2 when no grid produces the id.

fn main() {
    let mut smoke = false;
    let mut rsm_only = false;
    let mut scenario: Option<String> = None;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--rsm" => rsm_only = true,
            "--scenario" => {
                scenario = Some(args.next().unwrap_or_else(|| {
                    eprintln!(
                        "--scenario needs an id (e.g. uniform_voting/random_loss_0p40/n4/s0)"
                    );
                    std::process::exit(2);
                }));
            }
            _ => path = Some(arg),
        }
    }

    if let Some(id) = scenario {
        let Some(doc) = bench::sweep::run_scenario_by_id(&id) else {
            eprintln!("no canonical grid produces scenario id {id:?}");
            std::process::exit(2);
        };
        let text = format!("{}\n", doc.pretty());
        if let Some(path) = path {
            std::fs::write(&path, &text).expect("write repro document");
            println!("wrote {path}");
        } else {
            print!("{text}");
        }
        return;
    }

    let (report, default_path) = if rsm_only {
        (bench::sweep::run_rsm_sections(), "BENCH_rsm.json")
    } else {
        (bench::sweep::run_baseline(smoke), "BENCH_sweep.json")
    };
    let path = path.unwrap_or_else(|| default_path.to_owned());
    std::fs::write(&path, format!("{}\n", report.doc)).expect("write sweep report");
    println!("wrote {path}");
    if !report.failures.is_empty() {
        for failure in &report.failures {
            eprintln!("gate FAILED: {failure}");
        }
        std::process::exit(1);
    }
    println!("every gate passed");
}
