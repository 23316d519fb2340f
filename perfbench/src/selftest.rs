//! Self-tests of the benchmark in short mode (`--seconds 0`: one episode
//! per pass). Run them on an optimized build:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::harness::{Ctx, Outcome, DEFAULT_SEED, END_TO_END, PER_LAYER};
use crate::{run_named, WORKLOADS};

fn short(trace: bool) -> Ctx {
    Ctx {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        width: 2,
        pin: None,
    }
}

fn assert_complete(name: &str, outcome: &Outcome, declared: &[(&str, &str)]) {
    assert!(outcome.correct(), "{name}: {:?}", outcome.problems);
    assert!(outcome.attempted > 0, "{name}: nothing attempted");
    let emitted: Vec<(&str, &str)> = outcome.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
    assert_eq!(
        emitted, declared,
        "{name}: emitted metrics differ from the declared ones"
    );
    for (metric, value, unit) in &outcome.metrics {
        assert!(value.is_finite(), "{name}: {metric} = {value}");
        assert!(!unit.is_empty(), "{name}: {metric} has no unit");
    }
}

/// Every workload, untraced and traced, is correct and emits every
/// declared metric, finite, with its unit.
#[test]
fn every_metric_is_emitted_finite_with_its_unit() {
    for name in WORKLOADS {
        let outcome = run_named(name, &short(false)).expect("known workload");
        assert_complete(name, &outcome, &END_TO_END);
        let value = |metric: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.0 == metric)
                .map_or(0.0, |m| m.1)
        };
        for (metric, _) in END_TO_END {
            assert!(value(metric) > 0.0, "{name}: end-to-end {metric} reads 0");
        }
        let traced = run_named(name, &short(true)).expect("known workload");
        assert_complete(name, &traced, &PER_LAYER);
    }
}

/// A wrong pinned fingerprint fails the run, so the check is not
/// vacuous; the true one passes.
#[test]
fn a_wrong_pinned_fingerprint_fails_the_check() {
    let name = WORKLOADS[3];
    let wrong = Ctx {
        pin: Some(0x0123_4567_89ab_cdef),
        ..short(false)
    };
    let outcome = run_named(name, &wrong).expect("known workload");
    assert!(!outcome.correct() && outcome.failed > 0);
    assert!(
        outcome.problems.iter().any(|p| p.contains("pinned")),
        "{:?}",
        outcome.problems
    );
    assert!(run_named(name, &short(false))
        .expect("known workload")
        .correct());
}

fn listing(dir: &Path, out: &mut BTreeSet<PathBuf>) {
    for entry in std::fs::read_dir(dir)
        .expect("readable directory")
        .flatten()
    {
        let path = entry.path();
        // Build output is not the benchmark's writing.
        if path.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        if path.is_dir() {
            listing(&path, out);
        }
        out.insert(path);
    }
}

/// Short mode writes nothing: no baseline, no results file.
#[test]
fn short_mode_writes_no_files() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut before = BTreeSet::new();
    listing(dir, &mut before);
    for name in WORKLOADS {
        assert!(run_named(name, &short(false))
            .expect("known workload")
            .correct());
    }
    let mut after = BTreeSet::new();
    listing(dir, &mut after);
    assert_eq!(before, after);
}

/// `BENCHMARK.json` at the repository root names only workloads the
/// program runs and declares exactly the metrics it emits.
#[test]
fn benchmark_json_matches_the_program() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote"))
        .collect();
    let workloads = names.iter().take_while(|n| WORKLOADS.contains(n)).count();
    assert!(workloads >= 2, "BENCHMARK.json names {workloads} workloads");
    let declared: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    assert_eq!(names[workloads..], declared);
    for (metric, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{metric}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
