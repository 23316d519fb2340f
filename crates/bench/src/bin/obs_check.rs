//! Smoke-checks an observed bench run (`just obs-smoke`): parses the
//! JSONL journal and the run summary written beside it, and asserts the
//! two agree and that the pipeline stages actually fired.
//!
//! ```text
//! SID_OBS=jsonl cargo run --release -p sid-bench --bin chaos_sweep -- --quick
//! cargo run --release -p sid-bench --bin obs_check
//! ```
//!
//! Reads the journal from `SID_OBS_PATH` (default
//! `results/OBS_journal.jsonl`) and the summary of the same run from the
//! path [`sid_obs::summary_path_for_journal`] derives from it (default
//! `results/OBS_journal.summary.json`), and exits non-zero on any failed
//! check, so CI can gate on it.

use std::process::ExitCode;

use sid_obs::{journal_path_from_env, summary_path_for_journal, Event, RunSummary, StageCounts};

fn fail(msg: &str) -> ExitCode {
    eprintln!("obs_check: FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let journal_path = journal_path_from_env();
    let summary_path = summary_path_for_journal(&journal_path);
    let summary_text = match std::fs::read_to_string(&summary_path) {
        Ok(text) => text,
        Err(e) => return fail(&format!("cannot read {}: {e}", summary_path.display())),
    };
    let summary: RunSummary = match serde_json::from_str(&summary_text) {
        Ok(s) => s,
        Err(e) => return fail(&format!("{} does not parse: {e}", summary_path.display())),
    };

    let journal_text = match std::fs::read_to_string(&journal_path) {
        Ok(text) => text,
        Err(e) => return fail(&format!("cannot read {}: {e}", journal_path.display())),
    };
    let mut journal_counts = StageCounts::default();
    let mut lines = 0u64;
    for (i, line) in journal_text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: Event = match serde_json::from_str(line) {
            Ok(event) => event,
            Err(e) => {
                return fail(&format!(
                    "{} line {}: not a valid event: {e}",
                    journal_path.display(),
                    i + 1
                ))
            }
        };
        journal_counts.bump(&event);
        lines += 1;
    }

    if lines != summary.deterministic.journal_events {
        return fail(&format!(
            "journal has {lines} events but the summary says {}",
            summary.deterministic.journal_events
        ));
    }
    if journal_counts != summary.deterministic.stage_counts {
        return fail("journal-derived stage counts disagree with the summary");
    }
    let c = &summary.deterministic.stage_counts;
    for (name, value) in [
        ("node_reports_emitted", c.node_reports_emitted),
        ("clusters_formed", c.clusters_formed),
        ("clusters_evaluated", c.clusters_evaluated),
        ("sink_accepted", c.sink_accepted),
        ("alerts_emitted", c.alerts_emitted),
        ("radio_drops", c.radio_drops),
    ] {
        if value == 0 {
            return fail(&format!("stage count {name} is zero — pipeline stage never fired"));
        }
    }

    println!(
        "obs_check: OK — run `{}`, {} journal events across {} lines, \
         {} reports, {} clusters evaluated, {} sink-accepted",
        summary.run,
        summary.deterministic.journal_events,
        lines,
        c.node_reports_emitted,
        c.clusters_evaluated,
        c.sink_accepted
    );
    ExitCode::SUCCESS
}
