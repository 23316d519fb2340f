//! Regenerates every table and figure of the paper in one run, writing
//! all JSON results under `results/`.
//!
//! ```text
//! cargo run --release -p sid-bench --bin repro_all [-- quick] [-- --threads N]
//! ```
//!
//! `quick` uses reduced trial counts (~2 min total); the default counts
//! match EXPERIMENTS.md (~10 min). `--threads` sizes the worker pool
//! (default: `SID_THREADS` or the machine's core count). Every job is
//! seed-deterministic, so the figures fan out over the pool and the
//! output — console report and JSON files alike — is identical at any
//! thread count: jobs render on worker threads, the main thread prints
//! and writes in figure order.

use std::fmt::Write as _;
use std::time::Instant;

use sid_bench::common::{
    northbound_scene, quiet_scene, render_json, write_json_rendered, write_obs_summary,
};
use sid_bench::node_level::{fig11, fig11_envelope};
use sid_bench::spectra::{fig05, fig06, fig07, fig08};
use sid_bench::speed_eval::fig12;
use sid_bench::tables::{table1, table2, CorrelationTable};
use sid_core::{ClassifierConfig, IntrusionDetectionSystem, SpectralClassifier, SystemConfig};
use sid_obs::{Event, Obs, RunSummary};

/// What one figure/table job hands back to the main thread: its console
/// report, the JSON documents to write, and how long it took.
struct JobOutput {
    label: String,
    report: String,
    results: Vec<(&'static str, Option<String>)>,
    secs: f64,
}

fn table_report(table: &CorrelationTable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>6} {:>8} {:>8} {:>8}", "M", "rows=4", "rows=5", "rows=6");
    for &m in &[1.0, 2.0, 3.0] {
        let row: Vec<String> = (4..=6)
            .map(|rows| {
                table
                    .cell(m, rows)
                    .map(|c| format!("{:8.3}", c.c_mean))
                    .unwrap_or_else(|| "     n/a".to_string())
            })
            .collect();
        let _ = writeln!(out, "{m:>6} {}", row.join(" "));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(threads) = sid_exec::threads_from_args(&args) {
        sid_exec::set_global_threads(threads);
    }
    let quick = args.iter().any(|a| a == "quick");
    let (fig11_trials, table1_trials, table2_trials, fig12_trials) =
        if quick { (12, 2, 1, 3) } else { (60, 6, 4, 10) };

    type Job = Box<dyn Fn() -> (String, Vec<(&'static str, Option<String>)>) + Send + Sync>;
    let jobs: Vec<(String, Job)> = vec![
        (
            "Fig. 5: three-axis ocean record".into(),
            Box::new(|| (String::new(), vec![("fig05", render_json("fig05", &fig05(2026)))])),
        ),
        (
            "Fig. 6: STFT spectra".into(),
            Box::new(|| {
                let f6 = fig06(7);
                (
                    format!("  ship-band rise ×{:.0}\n", f6.ship_band_rise),
                    vec![("fig06", render_json("fig06", &f6))],
                )
            }),
        ),
        (
            "Fig. 7: Morlet scalogram".into(),
            Box::new(|| {
                let f7 = fig07(11);
                (
                    format!("  ship-band wavelet rise ×{:.1}\n", f7.ship_band_rise),
                    vec![("fig07", render_json("fig07", &f7))],
                )
            }),
        ),
        (
            "Fig. 8: raw vs. filtered".into(),
            Box::new(|| {
                let f8 = fig08(23);
                (
                    format!(
                        "  filtered ship peak {:.0} counts over {:.1}-count background\n",
                        f8.filtered_ship_peak, f8.filtered_quiet_peak
                    ),
                    vec![("fig08", render_json("fig08", &f8))],
                )
            }),
        ),
        (
            format!("Fig. 11: detection ratio ({fig11_trials} trials/cell)"),
            Box::new(move || {
                let f11 = fig11(fig11_trials, 77);
                let anchor = f11
                    .cells
                    .iter()
                    .find(|c| (c.m - 2.0).abs() < 1e-9 && (c.af - 0.6).abs() < 1e-9)
                    .expect("anchor");
                (
                    format!(
                        "  anchor (M=2, af=60 %): {:.0} %\n",
                        100.0 * anchor.detection_ratio
                    ),
                    vec![
                        ("fig11", render_json("fig11", &f11)),
                        (
                            "fig11_envelope",
                            render_json("fig11_envelope", &fig11_envelope(fig11_trials, 77)),
                        ),
                    ],
                )
            }),
        ),
        (
            format!("Table I: no intrusion ({table1_trials} trials/cell)"),
            Box::new(move || {
                let t1 = table1(table1_trials, 1009);
                (table_report(&t1), vec![("table1", render_json("table1", &t1))])
            }),
        ),
        (
            format!("Table II: with intrusion ({table2_trials} trials/cell)"),
            Box::new(move || {
                let t2 = table2(table2_trials, 2027);
                (table_report(&t2), vec![("table2", render_json("table2", &t2))])
            }),
        ),
        (
            format!("Fig. 12: speed estimation ({fig12_trials} crossings/speed)"),
            Box::new(move || {
                let f12 = fig12(fig12_trials, 404);
                let mut report = String::new();
                for b in &f12.bands {
                    let _ = writeln!(
                        report,
                        "  {:>4.0} kn → {:.1}–{:.1} kn (worst {:.0} %)",
                        b.true_knots,
                        b.est_min,
                        b.est_max,
                        100.0 * b.worst_error
                    );
                }
                (report, vec![("fig12", render_json("fig12", &f12))])
            }),
        ),
    ];

    let pool = sid_exec::global();
    let wall = Instant::now();
    let outputs: Vec<JobOutput> = pool.par_map(&jobs, |(label, job)| {
        let t = Instant::now();
        let (report, results) = job();
        JobOutput {
            label: label.clone(),
            report,
            results,
            secs: t.elapsed().as_secs_f64(),
        }
    });
    let wall_secs = wall.elapsed().as_secs_f64();

    let mut work_secs = 0.0;
    for out in outputs {
        println!("[{:7.1} s] {}", out.secs, out.label);
        print!("{}", out.report);
        for (name, json) in out.results {
            if let Some(json) = json {
                write_json_rendered(name, &json);
            }
        }
        work_secs += out.secs;
    }
    observability_pass(pool.threads());
    println!("\ndone — see results/*.json and EXPERIMENTS.md");
    println!(
        "perf: {} threads, {:.1} s wall, est. {:.2}x speedup vs 1 thread ({:.1} s aggregate figure work)",
        pool.threads(),
        wall_secs,
        work_secs / wall_secs.max(1e-9),
        work_secs
    );
}

/// Short observed end-to-end runs after the figures: a ship passage, a
/// quiet sea, and a handful of classifier verdicts, so the emitted
/// `results/OBS_summary.json` exercises every stage of the event
/// taxonomy. Counts come from a private in-memory recorder; the events
/// are additionally replayed into the env-selected journal when
/// `SID_OBS=jsonl` is set. Everything here is seed-deterministic.
fn observability_pass(threads: usize) {
    let env_obs = Obs::from_env();
    let observed = Obs::in_memory();
    observed.record(Event::RunMarker {
        label: "repro_all observability pass: ship".to_string(),
    });
    let mut ship = IntrusionDetectionSystem::new(
        northbound_scene(7, 37.0, 10.0, -300.0),
        SystemConfig::paper_default(5, 5),
        7 ^ 0x5EA,
    )
    .with_obs(observed.clone());
    ship.run(180.0);
    observed.record(Event::RunMarker {
        label: "repro_all observability pass: quiet".to_string(),
    });
    let mut quiet = IntrusionDetectionSystem::new(
        quiet_scene(507),
        SystemConfig::paper_default(5, 5),
        7 ^ 0xCA1,
    )
    .with_obs(observed.clone());
    quiet.run(120.0);
    // Classifier verdicts on synthetic windows: a narrowband swell
    // (ocean) and a two-tone ship-like signature.
    let cfg = ClassifierConfig::paper_default();
    let frame_len = cfg.stft.frame_len;
    let fs = cfg.stft.sample_rate;
    let clf = SpectralClassifier::new(cfg).expect("paper-default classifier");
    let swell: Vec<f64> = (0..frame_len)
        .map(|i| 60.0 * (2.0 * std::f64::consts::PI * 0.17 * i as f64 / fs).sin())
        .collect();
    let two_tone: Vec<f64> = (0..frame_len)
        .map(|i| {
            let t = i as f64 / fs;
            30.0 * (2.0 * std::f64::consts::PI * 0.3 * t).sin()
                + 25.0 * (2.0 * std::f64::consts::PI * 0.9 * t).sin()
        })
        .collect();
    for (node, window) in [(0u32, &swell), (1u32, &two_tone)] {
        clf.classify_window_recorded(window, 0.0, node, &observed)
            .expect("window length matches the STFT frame");
    }
    if env_obs.enabled() {
        env_obs.replay(&observed.events().expect("in-memory recorder"));
    }
    env_obs.flush();
    let summary = RunSummary::new("repro_all", threads, observed.counts(), &env_obs);
    write_obs_summary(&summary, true);
    let c = observed.counts();
    println!(
        "\nobservability: {} events — {} reports, {} clusters formed, {} evaluated, {} sink-accepted, {} classifier verdicts",
        c.events_recorded,
        c.node_reports_emitted,
        c.clusters_formed,
        c.clusters_evaluated,
        c.sink_accepted,
        c.classifier_ship_verdicts + c.classifier_ocean_verdicts
    );
}
