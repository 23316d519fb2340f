//! The SID benchmark: four workloads, each checked for correctness,
//! reduced to end-to-end metrics (tracing off) or to a per-layer
//! breakdown (`--trace 1`). See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <harbor-5x5|fleet-2048|serve-12|stream-16|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the run's provenance. A readable table goes to standard
//! error.

mod fleet;
mod harbor;
mod harness;
#[cfg(test)]
mod selftest;
mod serve;
mod stream;

use std::panic::{catch_unwind, AssertUnwindSafe};

use harness::{Ctx, Outcome, Workload, DEFAULT_SEED};

/// Every workload, in the order `all` runs them.
const WORKLOADS: [&str; 4] = [
    <harbor::Harbor as Workload>::NAME,
    <fleet::Fleet as Workload>::NAME,
    <serve::Serve as Workload>::NAME,
    <stream::Stream as Workload>::NAME,
];

/// Builds the named workload's inputs from the seed and runs it.
/// `None` for an unknown name.
fn run_named(name: &str, ctx: &Ctx) -> Option<Outcome> {
    let guarded = |f: &dyn Fn() -> Outcome| {
        catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Outcome {
            attempted: 1,
            failed: 1,
            problems: vec![format!("{name}: panicked")],
            metrics: Vec::new(),
        })
    };
    let seed = ctx.seed;
    Some(match name {
        n if n == harbor::Harbor::NAME => {
            guarded(&|| harness::run(&harbor::Harbor::new(seed), ctx))
        }
        n if n == fleet::Fleet::NAME => guarded(&|| harness::run(&fleet::Fleet::new(seed), ctx)),
        n if n == serve::Serve::NAME => guarded(&|| harness::run(&serve::Serve::new(seed), ctx)),
        n if n == stream::Stream::NAME => {
            guarded(&|| harness::run(&stream::Stream::new(seed), ctx))
        }
        _ => return None,
    })
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = "all".to_string();
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = value.clone(),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {value}: expected 0 to 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = nproc.min(2);
    Ok(Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            trace,
            width,
            pin: None,
        },
    })
}

/// The checked-out revision, read from `.git` in the working directory
/// (a plain source tree has none).
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(reference))
                            .map(|l| l.split(' ').next().unwrap_or_default().to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

fn json_str(s: &str) -> String {
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

/// The result line. Non-finite values cannot be written as JSON; they
/// are written as 0 and the run is marked incorrect.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report(name: &str, outcome: &Outcome) {
    eprintln!(
        "== {name}: {} ({} attempted, {} failed)",
        if outcome.correct() {
            "correct"
        } else {
            "INCORRECT"
        },
        outcome.attempted,
        outcome.failed
    );
    for problem in &outcome.problems {
        eprintln!("   problem: {problem}");
    }
    for (metric, value, unit) in &outcome.metrics {
        eprintln!("   {metric:<30} {value:>16.6} {unit}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&args.workload.as_str()) {
        vec![args.workload.as_str()]
    } else {
        eprintln!(
            "perfbench: unknown workload {} (expected one of {WORKLOADS:?} or all)",
            args.workload
        );
        std::process::exit(2);
    };
    let ctx = &args.ctx;
    println!(
        "{{\"provenance\": {{\"nproc\": {}, \"pool_width\": {}, \"git_revision\": {}, \"rustc\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ctx.width,
        json_str(&git_revision()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&args.workload),
        ctx.seed,
        ctx.seconds,
        ctx.trace
    );
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for name in &names {
        if names.len() > 1 && !harness::reset_peak_rss() {
            eprintln!("perfbench: cannot reset the peak-RSS mark; peak_rss_mib is cumulative");
        }
        let outcome = run_named(name, ctx).expect("workload names checked above");
        report(name, &outcome);
        let finite = outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
        correct &= outcome.correct() && finite;
        attempted += outcome.attempted;
        failed += outcome.failed + u64::from(!finite);
        for (metric, value, unit) in outcome.metrics {
            let key = if names.len() > 1 {
                format!("{name}.{metric}")
            } else {
                metric.to_string()
            };
            metrics.push((key, value, unit));
        }
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
