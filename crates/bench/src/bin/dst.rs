//! dst: the deterministic simulation-testing driver.
//!
//! Fans a contiguous seed range through the `sid-dst` harness: each
//! seed expands into a full scenario, runs through the real pipeline
//! with the journal attached, and is replayed through every invariant
//! oracle. Violating seeds are shrunk to minimal repros and persisted
//! to `results/DST_failures.json` (an empty run writes a byte-stable
//! empty array, so CI can diff it).
//!
//! Usage: `dst [--seeds N] [--seed-start S] [--seed n] [--threads N]
//! [--quick] [--sabotage] [--fleet] [--no-write] [--check]`
//!
//! * default: 200 seeds from 1000 (`--quick`: 40) fanned over the
//!   worker pool. Each scenario itself runs single-threaded, so
//!   per-seed journals are identical at any `--threads`; the printed
//!   population fingerprint (merged in seed order) proves it.
//! * `--seed n` replays exactly one scenario: prints the scenario JSON
//!   and every oracle verdict, then exits non-zero on violations.
//! * `--sabotage` builds every scenario with the gutted cluster quorum
//!   (`Sabotage::LooseQuorum`) — the harness's fire drill; the
//!   `confirmed_implies_quorum` oracle must catch and shrink it.
//! * `--fleet` expands seeds through `Scenario::fleet` instead of
//!   `Scenario::generate`: free-form coastlines of 200–2000 duty-cycled
//!   nodes, every one re-run through the event scheduler by the
//!   `scheduler_equivalence` oracle. Use a seed range disjoint from the
//!   committed smoke population, with `--no-write`.
//! * `--no-write` runs as a pure gate: the exit code and printed
//!   fingerprint stand, but `results/DST_*.json` are left untouched
//!   (for auxiliary seed slices that must not clobber the committed
//!   `dst-smoke` population).
//! * `--check` reads the committed `results/DST_summary.json` before
//!   running and exits 1 when the run's `deterministic` section (stage
//!   counts and journal size) differs from it, 2 when the file is
//!   unreadable. `dst-smoke` runs the committed population with
//!   `--no-write --check`, so it verifies the artifact instead of
//!   rewriting it with this host's thread count.

use std::time::Instant;

use sid_bench::common::write_json;
use sid_dst::{check_all, execute, shrink, FailureRecord, Sabotage, Scenario, SHRINK_BUDGET};
use sid_obs::{fnv1a, DeterministicSummary, Event, Obs, RunSummary, StageCounts};

/// The committed summary `--check` compares against.
const SUMMARY_PATH: &str = "results/DST_summary.json";

struct SeedOutcome {
    seed: u64,
    counts: StageCounts,
    journal_hash: u64,
    events: Vec<Event>,
    failure: Option<FailureRecord>,
}

fn replay_one(seed: u64, sabotage: Sabotage, fleet: bool) {
    let scenario = if fleet {
        Scenario::fleet(seed)
    } else {
        Scenario::generate(seed)
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&scenario).expect("scenario serializes")
    );
    let report = execute(&scenario, sabotage);
    let violations = check_all(&report);
    println!(
        "seed {seed}: {} events, {} reports, {} confirmations, {} sink accepts",
        report.counts.events_recorded,
        report.counts.node_reports_emitted,
        report.counts.clusters_confirmed,
        report.counts.sink_accepted
    );
    if violations.is_empty() {
        println!("seed {seed}: all oracles passed");
    } else {
        for v in &violations {
            println!("VIOLATION [{}] {}", v.oracle, v.detail);
        }
        std::process::exit(1);
    }
}

/// Reads the `deterministic` section of the committed [`SUMMARY_PATH`],
/// exiting with status 2 when it cannot.
fn committed_deterministic() -> DeterministicSummary {
    let read = || -> Result<DeterministicSummary, String> {
        let json = std::fs::read_to_string(SUMMARY_PATH)
            .map_err(|e| format!("cannot read {SUMMARY_PATH}: {e}"))?;
        let summary: RunSummary =
            serde_json::from_str(&json).map_err(|e| format!("cannot parse {SUMMARY_PATH}: {e}"))?;
        Ok(summary.deterministic)
    };
    read().unwrap_or_else(|e| {
        eprintln!("dst --check: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(threads) = sid_exec::threads_from_args(&args) {
        sid_exec::set_global_threads(threads);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let sabotage = if args.iter().any(|a| a == "--sabotage") {
        Sabotage::LooseQuorum
    } else {
        Sabotage::None
    };
    let flag_value = |name: &str| -> Option<u64> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let fleet = args.iter().any(|a| a == "--fleet");
    if let Some(seed) = flag_value("--seed") {
        replay_one(seed, sabotage, fleet);
        return;
    }
    let committed = args
        .iter()
        .any(|a| a == "--check")
        .then(committed_deterministic);
    let seed_start = flag_value("--seed-start").unwrap_or(1000);
    let seeds = flag_value("--seeds")
        .unwrap_or(if quick { 40 } else { 200 })
        .max(1) as usize;
    println!(
        "=== DST: {seeds}{} seeds from {seed_start}{} ===",
        if fleet { " fleet" } else { "" },
        if sabotage == Sabotage::None {
            ""
        } else {
            " (SABOTAGE: loose quorum)"
        }
    );
    let wall = Instant::now();
    let seed_list: Vec<u64> = (0..seeds as u64).map(|i| seed_start + i).collect();
    // Env-selected run-wide recorder (SID_OBS=jsonl for the journal).
    // Scenario runs record into private in-memory journals on the
    // worker threads; only this main thread touches the shared one.
    let env_obs = Obs::from_env();
    let keep_events = env_obs.enabled();
    let pool = sid_exec::global();
    pool.set_obs(env_obs.clone());
    let outcomes: Vec<SeedOutcome> = pool.par_map(&seed_list, |&seed| {
        let scenario = if fleet {
            Scenario::fleet(seed)
        } else {
            Scenario::generate(seed)
        };
        let report = execute(&scenario, sabotage);
        let violations = check_all(&report);
        // One record per violating seed: shrink against the first
        // (highest-priority) violated oracle.
        let failure = violations.first().map(|v| {
            let result = shrink(&scenario, sabotage, v.oracle, SHRINK_BUDGET);
            FailureRecord {
                seed,
                oracle: v.oracle.to_string(),
                detail: v.detail.clone(),
                scenario: result.scenario,
                shrink_iterations: result.runs,
                shrunk: result.shrunk,
            }
        });
        SeedOutcome {
            seed,
            counts: report.counts,
            journal_hash: fnv1a(0, report.journal.as_bytes()),
            events: if keep_events { report.events } else { Vec::new() },
            failure,
        }
    });
    // Merge in seed order (par_map places results by input index): the
    // counts, fingerprint and failure file are identical at any
    // --threads setting.
    let mut counts = StageCounts::default();
    let mut fingerprint = 0u64;
    let mut failures: Vec<FailureRecord> = Vec::new();
    for outcome in outcomes {
        counts.merge(&outcome.counts);
        fingerprint = fnv1a(fingerprint, &outcome.journal_hash.to_be_bytes());
        if keep_events {
            env_obs.record(Event::RunMarker {
                label: format!("dst seed {}", outcome.seed),
            });
            env_obs.replay(&outcome.events);
        }
        if let Some(failure) = outcome.failure {
            println!(
                "seed {}: VIOLATION [{}] {} (shrunk over {} runs)",
                failure.seed, failure.oracle, failure.detail, failure.shrink_iterations
            );
            failures.push(failure);
        }
    }
    env_obs.flush();
    let summary = RunSummary::new("dst", pool.threads(), counts, &env_obs);
    if args.iter().any(|a| a == "--no-write") {
        println!("[--no-write: results/DST_*.json left untouched]");
    } else {
        write_json("DST_failures", &failures);
        write_json("DST_summary", &summary);
    }
    println!(
        "{} seeds: {} violations, fingerprint {fingerprint:016x}",
        seeds,
        failures.len()
    );
    println!(
        "population: {} events, {} reports, {} confirmations, {} sink accepts, {} faults",
        counts.events_recorded,
        counts.node_reports_emitted,
        counts.clusters_confirmed,
        counts.sink_accepted,
        counts.faults_injected
    );
    println!(
        "perf: {} threads, {:.1} s wall",
        pool.threads(),
        wall.elapsed().as_secs_f64()
    );
    if let Some(expected) = committed {
        if summary.deterministic != expected {
            eprintln!(
                "dst --check: FAIL — the deterministic summary differs from {SUMMARY_PATH} \
                 ({} vs {} journal events)",
                summary.deterministic.journal_events, expected.journal_events
            );
            std::process::exit(1);
        }
        println!("dst --check: deterministic summary matches {SUMMARY_PATH}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
