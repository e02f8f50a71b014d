//! The benchmark's own tests: `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;

use ho_harness::Json;

use crate::metrics::{Metric, END_TO_END, LAYER_COSTS, PER_LAYER, WORKLOAD_END_TO_END};
use crate::runner::pass;
use crate::workloads::{Grid, Kind};

fn well_formed(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A thin sample of a workload's grid: every 41st scenario, so every axis
/// still shows up and a pass takes milliseconds.
fn tiny(kind: Kind, shift: u64) -> Grid {
    Grid::build(kind, shift).subset(|i| i % 41 == 0)
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for m in [
        &END_TO_END[..],
        &WORKLOAD_END_TO_END,
        &PER_LAYER,
        &LAYER_COSTS,
    ]
    .concat()
    {
        assert!(well_formed(m.name), "bad metric name {}", m.name);
        assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        assert!(m.better == "higher" || m.better == "lower", "{}", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {}",
            m.unit
        );
    }
    for kind in Kind::ALL {
        assert!(well_formed(kind.name()));
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let Ok(Json::Obj(doc)) = Json::parse(&text) else {
        panic!("BENCHMARK.json is not an object");
    };
    let field = |entry: &Json, key: &str| match entry {
        Json::Obj(map) => match map.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        },
        _ => panic!("entry is not an object"),
    };
    let listed = |key: &str| match doc.get(key) {
        Some(Json::Arr(entries)) => entries
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect::<Vec<_>>(),
        other => panic!("{key}: {other:?}"),
    };
    let table = |metrics: &[Metric]| {
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
            .collect::<Vec<_>>()
    };
    assert_eq!(listed("end_to_end"), table(&END_TO_END));
    assert_eq!(listed("per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = match doc.get("workloads") {
        Some(Json::Arr(entries)) => entries.iter().map(|e| field(e, "name")).collect(),
        other => panic!("workloads: {other:?}"),
    };
    let names: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_owned()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn canonical_grids_have_the_documented_sizes() {
    let sizes: Vec<usize> = Kind::ALL.iter().map(|&k| Grid::build(k, 0).len()).collect();
    assert_eq!(sizes, [2540, 256, 1584, 2400]);
}

#[test]
fn digest_repeats_across_runs() {
    for kind in Kind::ALL {
        let grid = tiny(kind, 0);
        let a = pass(&grid, 1, false);
        let b = pass(&grid, 1, false);
        assert_eq!(a.digest, b.digest, "{}", kind.name());
        assert_eq!(a.failed, 0, "{}: {:?}", kind.name(), a.first_failure);
    }
}

#[test]
fn digest_is_the_same_at_one_and_two_workers() {
    for kind in Kind::ALL {
        let grid = tiny(kind, 0);
        assert_eq!(
            pass(&grid, 1, false).digest,
            pass(&grid, 2, false).digest,
            "{}",
            kind.name()
        );
    }
}

#[test]
fn seed_one_changes_the_digest() {
    for kind in Kind::ALL {
        assert_ne!(
            pass(&tiny(kind, 0), 1, false).digest,
            pass(&tiny(kind, 1), 1, false).digest,
            "{}",
            kind.name()
        );
    }
}

#[test]
fn traced_digest_equals_untraced() {
    for kind in Kind::ALL {
        let grid = tiny(kind, 0);
        let untraced = pass(&grid, 2, false);
        let traced = pass(&grid, 2, true);
        assert_eq!(untraced.digest, traced.digest, "{}", kind.name());
        assert_eq!(untraced.walls.len(), traced.walls.len());
    }
}

#[test]
fn traced_passes_record_the_layers_they_cross() {
    use crate::runner::Counter;
    let spans = |kind| pass(&tiny(kind, 0), 1, true).spans;
    let model = spans(Kind::ModelZoo);
    assert!(model.get(Counter::Steps) > 0);
    assert_eq!(model.get(Counter::Fills), model.get(Counter::Steps));
    assert_eq!(model.get(Counter::Observes), model.get(Counter::Steps));
    assert!(spans(Kind::SimPredicates).get(Counter::SimNs) > 0);
    let rsm = spans(Kind::RsmService);
    assert!(rsm.get(Counter::RsmRunNs) > 0 && rsm.get(Counter::CheckNs) > 0);
    assert!(rsm.get(Counter::Fills) > 0);
    let fd = spans(Kind::FdBaseline);
    assert!(fd.get(Counter::CtRuns) > 0 && fd.get(Counter::AgRuns) > 0);
}

#[test]
fn arguments_are_checked() {
    let parse = |line: &str| {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        crate::parse_args(&argv)
    };
    let ok = parse("--workload rsm_service --seed 3 --seconds 10 --trace 1").expect("valid");
    assert_eq!(ok.workloads, [Kind::RsmService]);
    assert_eq!((ok.seed, ok.trace), (3, true));
    assert_eq!(parse("--workload all").expect("valid").workloads.len(), 4);
    for bad in [
        "",
        "--workload nope",
        "--seed 1",
        "--workload fd_baseline --trace 2",
        "--workload fd_baseline --seconds -1",
        "--workload fd_baseline --seed x",
        "--workload fd_baseline --seed 99999999999999999999",
        "--workload fd_baseline --bogus",
        "--workload",
    ] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
}
