//! The workload-independent half of the benchmark: the metric
//! declarations, the closed-loop episode runner, the correctness checks
//! and the reduction of episodes to end-to-end and per-layer numbers.
//!
//! A workload is a repeatable *episode*: a fixed amount of seed-derived
//! work whose output fingerprint is known in advance from an untimed
//! reference run through an independent code path. The loop repeats
//! episodes until the requested measuring time is used up, so every
//! episode is both a timing sample and a correctness check.
//!
//! Every episode performs the same sequence of timed steps. On a shared
//! host, interference from other processes comes and goes in phases of
//! a second or more and only ever adds time, so a run reports its pace
//! in the phases without it: the lower quartile of step times relative
//! to each step's median (see [`clean_time`]). Operation latencies are
//! scaled the same way.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sid_core::IntrusionDetectionSystem;
use sid_exec::Pool;
use sid_obs::{fnv1a, CounterId, Obs, Stage};

/// The seed the pinned reference fingerprints belong to.
pub const DEFAULT_SEED: u64 = 1;

/// Metrics a user of the system sees, emitted for every workload with
/// tracing off. `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_x_realtime", "sim-s/s"),
    ("samples_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Metrics of single layers, emitted for every workload by the traced
/// pass. A layer a workload does not run reads 0. Every `_s` time is a
/// per-episode mean of the layer's self time (its call time minus the
/// layers nested inside it), except `exec.batch_s`, which is nested
/// inside the fan-out that issues the batch.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("ocean.sense_s", "s"),
    ("ocean.ns_per_sample", "ns"),
    ("ocean.samples", "count"),
    ("core.begin_tick_s", "s"),
    ("core.finish_tick_s", "s"),
    ("core.detect_s", "s"),
    ("core.clusters_s", "s"),
    ("core.sched_s", "s"),
    ("core.awake_frac", "ratio"),
    ("core.reports", "count"),
    ("core.clusters_evaluated", "count"),
    ("core.confirm_ratio", "ratio"),
    ("sink.incidents", "count"),
    ("alert.emitted", "count"),
    ("net.deliveries_s", "s"),
    ("net.faults_s", "s"),
    ("net.delivery_ratio", "ratio"),
    ("net.index_build_s", "s"),
    ("exec.batches", "count"),
    ("exec.tasks_per_batch", "ratio"),
    ("exec.batch_s", "s"),
    ("exec.speedup_2w", "ratio"),
    ("serve.open_s", "s"),
    ("serve.advance_s", "s"),
    ("serve.checkpoint_s", "s"),
    ("serve.resume_s", "s"),
    ("serve.close_s", "s"),
    ("serve.migrate_s", "s"),
    ("serve.replay_x_realtime", "sim-s/s"),
    ("serve.journal_events", "count"),
    ("serve.advance_p50_ms", "ms"),
    ("serve.advance_p90_ms", "ms"),
    ("stream.push_s", "s"),
    ("stream.pump_s", "s"),
    ("stream.peak_resident_bytes", "bytes"),
    ("stream.windows", "count"),
    ("stream.alarms", "count"),
    ("stream.backpressure_retries", "count"),
    ("stream.verdict_p50_ms", "ms"),
    ("stream.verdict_p90_ms", "ms"),
    ("core.ingest_block_s", "s"),
    ("dsp.stft_s", "s"),
    ("core.classify_s", "s"),
    ("core.classify_us_per_window", "us"),
    ("obs.wall_s", "s"),
    ("obs.covered_s", "s"),
    ("obs.tracing_overhead", "ratio"),
    ("obs.layer_coverage", "ratio"),
];

/// A traced run fails when its layer self times cover less than this
/// share of the traced wall time, or more than its reciprocal.
pub const MIN_COVERAGE: f64 = 0.95;

/// Before every episode, set-up is timed back to back for this long
/// (at least once; the last one built runs the episode). Set-up is
/// small, so many repetitions spread over the whole run give a median
/// that does not hang on one moment of the host.
const SETUP_SLICE_S: f64 = 0.002;

/// Per-episode layer readings: self times, counts, and `obs.covered_s`
/// (the summed time of the top-level calls the workload timed).
pub type Layers = BTreeMap<&'static str, f64>;

/// How a run is configured.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measuring time of the run, seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Worker-pool width.
    pub width: usize,
    /// Replaces the pinned default-seed fingerprint (self-tests use it
    /// to prove the check is not vacuous).
    pub pin: Option<u64>,
}

/// One closed-loop episode.
#[derive(Debug, Default)]
pub struct Episode {
    /// Wall time of the timed loop, seconds.
    pub wall_s: f64,
    /// Simulated seconds the episode covered (summed over tenants).
    pub sim_s: f64,
    /// Node-samples the episode processed, where the episode counts
    /// them (the untraced paths do not expose the count; they process
    /// the reference's).
    pub samples: Option<u64>,
    /// Service time of each operation, milliseconds, in an order that
    /// is the same in every episode.
    pub ops_ms: Vec<f64>,
    /// Wall time of each timed step, seconds: steps partition the
    /// episode's work and come in the same order in every episode.
    pub steps_s: Vec<f64>,
    /// Output fingerprint.
    pub fingerprint: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Layer readings (traced episodes only).
    pub layers: Layers,
}

/// The expected outcome of one episode, from an untimed reference run
/// through an independent path.
#[derive(Debug, Default)]
pub struct Reference {
    /// Output fingerprint every episode must reproduce.
    pub fingerprint: u64,
    /// Exact node-samples in one episode.
    pub samples: u64,
    /// Node-ticks in one episode (denominator of the awake fraction).
    pub node_ticks: u64,
    /// Exact behaviour counts (reports, clusters, windows, …).
    pub counts: Layers,
}

/// A benchmark workload. Implementations generate their inputs from the
/// seed when constructed, before anything is timed.
pub trait Workload {
    /// A freshly set-up system, ready to run one episode.
    type Ready;
    /// The workload name on the command line.
    const NAME: &'static str;
    /// The reference fingerprint of [`DEFAULT_SEED`].
    const PINNED: u64;
    /// The per-layer names of this workload's operation percentiles.
    const OP_LAYERS: Option<(&'static str, &'static str)> = None;

    /// Builds the system for one episode; its wall time is set-up time.
    fn setup(&self, pool: &Arc<Pool>) -> Self::Ready;
    /// Runs one episode untimed through an independent path.
    fn reference(&self, pool: &Arc<Pool>) -> Reference;
    /// Runs one timed episode; `traced` fills [`Episode::layers`].
    fn episode(&self, ready: Self::Ready, pool: &Arc<Pool>, traced: bool) -> Episode;
}

/// A run's verdict and numbers.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (episode operations plus checks).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Human-readable reasons for each failure.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn check(&mut self, ok: bool, weight: u64, what: impl FnOnce() -> String) {
        self.attempted += weight;
        if !ok {
            self.failed += weight;
            self.problems.push(what());
        }
    }
}

/// Runs a workload as `ctx` says and reduces it to metrics.
pub fn run<W: Workload>(w: &W, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let pool = Arc::new(Pool::new(ctx.width));
    let reference = w.reference(&pool);
    if ctx.seed == DEFAULT_SEED {
        let pin = ctx.pin.unwrap_or(W::PINNED);
        out.check(reference.fingerprint == pin, 1, || {
            format!(
                "{}: reference fingerprint {:016x} differs from the pinned {pin:016x}",
                W::NAME,
                reference.fingerprint
            )
        });
    }
    if !ctx.trace {
        let (episodes, setups) = measure(w, &pool, ctx.seconds, false);
        verify::<W>(&episodes, &reference, "untraced", &mut out);
        out.metrics = end_to_end(&episodes, &setups, reference.samples);
        return out;
    }
    // Traced pass: untraced episodes give the overhead baseline, traced
    // episodes at the run's width give the layers, and traced episodes
    // on one worker give the two-worker speed-up.
    let (base, _) = measure(w, &pool, 0.4 * ctx.seconds, false);
    let (traced, _) = measure(w, &pool, 0.4 * ctx.seconds, true);
    let narrow = if ctx.width > 1 {
        let one = Arc::new(Pool::new(1));
        measure(w, &one, 0.2 * ctx.seconds, true).0
    } else {
        Vec::new()
    };
    verify::<W>(&base, &reference, "untraced", &mut out);
    verify::<W>(&traced, &reference, "traced", &mut out);
    verify::<W>(&narrow, &reference, "one-worker traced", &mut out);
    let values = per_layer::<W>(&base, &traced, &narrow, &reference);
    let coverage = values["obs.layer_coverage"];
    out.check(
        (MIN_COVERAGE..=1.0 / MIN_COVERAGE).contains(&coverage),
        1,
        || {
            format!(
                "{}: layer self times cover {coverage:.4} of the traced wall time",
                W::NAME
            )
        },
    );
    out.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    out
}

/// Repeats set-up + episode until `seconds` of episode time are spent
/// (at least one episode). Returns the episodes and the set-up times.
fn measure<W: Workload>(
    w: &W,
    pool: &Arc<Pool>,
    seconds: f64,
    traced: bool,
) -> (Vec<Episode>, Vec<f64>) {
    let mut setups = Vec::new();
    let mut episodes = Vec::new();
    let mut spent = 0.0;
    while episodes.is_empty() || spent < seconds {
        let start = Instant::now();
        let ready = loop {
            let t = Instant::now();
            let ready = w.setup(pool);
            setups.push(t.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                break ready;
            }
        };
        let episode = w.episode(ready, pool, traced);
        spent += episode.wall_s;
        episodes.push(episode);
    }
    (episodes, setups)
}

fn verify<W: Workload>(episodes: &[Episode], reference: &Reference, pass: &str, out: &mut Outcome) {
    let shape = |e: &Episode| (e.steps_s.len(), e.ops_ms.len());
    for (i, e) in episodes.iter().enumerate() {
        out.check(shape(e) == shape(&episodes[0]), 1, || {
            format!(
                "{}: {pass} episode {i} has {:?} steps and operations, episode 0 {:?}",
                W::NAME,
                shape(e),
                shape(&episodes[0])
            )
        });
        out.attempted += e.attempted;
        out.failed += e.failed;
        if e.failed > 0 {
            out.problems.push(format!(
                "{}: {pass} episode {i}: {} operations failed",
                W::NAME,
                e.failed
            ));
        }
        out.check(e.fingerprint == reference.fingerprint, 1, || {
            format!(
                "{}: {pass} episode {i} fingerprint {:016x} differs from the reference {:016x}",
                W::NAME,
                e.fingerprint,
                reference.fingerprint
            )
        });
        if let Some(samples) = e.samples {
            out.check(samples == reference.samples, 1, || {
                format!(
                    "{}: {pass} episode {i} processed {samples} samples, the reference {}",
                    W::NAME,
                    reference.samples
                )
            });
        }
    }
}

fn end_to_end(
    episodes: &[Episode],
    setups: &[f64],
    samples: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let time = clean_time(episodes);
    let ops = paced_ops(episodes);
    let values = [
        episodes[0].sim_s / time,
        samples as f64 / time,
        percentile(&ops, 0.5),
        percentile(&ops, 0.9),
        median(setups),
        peak_rss_mib(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

fn per_layer<W: Workload>(
    base: &[Episode],
    traced: &[Episode],
    narrow: &[Episode],
    reference: &Reference,
) -> Layers {
    let n = traced.len() as f64;
    let mut v = Layers::new();
    for e in traced {
        for (&k, &x) in &e.layers {
            add(&mut v, k, x / n);
        }
    }
    for (&k, &x) in &reference.counts {
        v.insert(k, x);
    }
    let traced_time = clean_time(traced);
    v.insert(
        "obs.wall_s",
        traced.iter().map(|e| e.wall_s).sum::<f64>() / n,
    );
    v.insert("obs.tracing_overhead", traced_time / clean_time(base) - 1.0);
    v.insert(
        "obs.layer_coverage",
        v.get("obs.covered_s").copied().unwrap_or(0.0) / v["obs.wall_s"],
    );
    if !narrow.is_empty() {
        v.insert("exec.speedup_2w", clean_time(narrow) / traced_time);
    }
    v.insert("ocean.samples", reference.samples as f64);
    if reference.samples > 0 {
        let sense = v.get("ocean.sense_s").copied().unwrap_or(0.0);
        v.insert(
            "ocean.ns_per_sample",
            sense * 1e9 / reference.samples as f64,
        );
    }
    if reference.node_ticks > 0 {
        v.insert(
            "core.awake_frac",
            reference.samples as f64 / reference.node_ticks as f64,
        );
    }
    let batches = v.get("exec.batches").copied().unwrap_or(0.0);
    if batches > 0.0 {
        v.insert(
            "exec.tasks_per_batch",
            v.get("exec.tasks").copied().unwrap_or(0.0) / batches,
        );
    }
    if let Some((p50, p90)) = W::OP_LAYERS {
        let ops = paced_ops(base);
        v.insert(p50, percentile(&ops, 0.5));
        v.insert(p90, percentile(&ops, 0.9));
    }
    v
}

/// The episode time with host interference filtered out. Each step's
/// time is divided by that step's median across the episodes; the
/// [`FAST_QUANTILE`] of those ratios, pooled over every step of every
/// episode, is the run's uninterfered pace relative to its median
/// episode. The median untimed remainder of the loop is added as is.
pub fn clean_time(episodes: &[Episode]) -> f64 {
    let (medians, pace) = pace(episodes.iter().map(|e| e.steps_s.as_slice()));
    let rest: Vec<f64> = episodes
        .iter()
        .map(|e| e.wall_s - e.steps_s.iter().sum::<f64>())
        .collect();
    pace * medians.iter().sum::<f64>() + median(&rest).max(0.0)
}

/// Each operation's uninterfered latency (its median across the
/// episodes at the run's uninterfered pace), sorted.
fn paced_ops(episodes: &[Episode]) -> Vec<f64> {
    let (medians, pace) = pace(episodes.iter().map(|e| e.ops_ms.as_slice()));
    let mut ops: Vec<f64> = medians.iter().map(|m| m * pace).collect();
    ops.sort_by(f64::total_cmp);
    ops
}

/// Index-wise medians of equally long series, and the
/// [`FAST_QUANTILE`] of every value over its index's median.
fn pace<'a>(series: impl Iterator<Item = &'a [f64]> + Clone) -> (Vec<f64>, f64) {
    let len = series.clone().map(<[f64]>::len).min().unwrap_or(0);
    let medians: Vec<f64> = (0..len)
        .map(|k| median(&series.clone().map(|s| s[k]).collect::<Vec<_>>()))
        .collect();
    let mut ratios: Vec<f64> = series
        .flat_map(|s| {
            s.iter()
                .zip(&medians)
                .filter(|(_, &m)| m > 0.0)
                .map(|(&x, &m)| x / m)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let pace = if ratios.is_empty() {
        1.0
    } else {
        percentile(&ratios, FAST_QUANTILE)
    };
    (medians, pace)
}

/// Share of step times faster than the pace a run reports (the lower
/// quartile): interference must leave at least this share of a run
/// untouched.
pub const FAST_QUANTILE: f64 = 0.25;

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Linear-interpolated percentile `q` of sorted values (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| {
                    l.split_whitespace()
                        .nth(1)
                        .and_then(|kb| kb.parse::<f64>().ok())
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak-resident mark so the next workload in the same
/// process reports its own peak. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Fingerprint of a pipeline's deterministic output: every node report,
/// cluster evaluation and sink detection, the behaviour counters, the
/// radio statistics and the final clock bits.
pub fn system_fingerprint(sys: &IntrusionDetectionSystem) -> u64 {
    let t = sys.trace();
    let text = format!(
        "{:?}|{:?}|{:?}|{} {} {} {} {} {}|{:?}|{:016x}",
        t.node_reports,
        t.cluster_outcomes,
        t.sink_detections,
        t.faults_applied,
        t.head_failovers,
        t.degraded_evaluations,
        t.alerts_emitted,
        t.alerts_suppressed,
        t.alert_summaries,
        sys.net_stats(),
        sys.now().to_bits()
    );
    fnv1a(0, text.as_bytes())
}

/// The exact behaviour counts of a finished pipeline run.
pub fn outcome_counts(systems: &[&IntrusionDetectionSystem]) -> Layers {
    let (mut reports, mut evaluated, mut confirmed) = (0usize, 0usize, 0usize);
    let (mut incidents, mut alerts, mut delivered, mut sent) = (0usize, 0usize, 0u64, 0u64);
    for sys in systems {
        let t = sys.trace();
        reports += t.node_reports.len();
        evaluated += t.cluster_outcomes.len();
        confirmed += t.cluster_outcomes.iter().filter(|c| c.confirmed).count();
        incidents += sys.sink_tracker().incidents().len();
        alerts += t.alerts_emitted;
        let net = sys.net_stats();
        delivered += net.delivered;
        sent += net.transmissions;
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    Layers::from([
        ("core.reports", reports as f64),
        ("core.clusters_evaluated", evaluated as f64),
        (
            "core.confirm_ratio",
            ratio(confirmed as f64, evaluated as f64),
        ),
        ("sink.incidents", incidents as f64),
        ("alert.emitted", alerts as f64),
        ("net.delivery_ratio", ratio(delivered as f64, sent as f64)),
    ])
}

/// Adds the pipeline stage spans and `sid-exec` counters an in-memory
/// recorder collected to `layers`, returning the summed stage time.
pub fn add_stages(obs: &Obs, layers: &mut Layers) -> f64 {
    let wall = obs.wall();
    let mut total = 0.0;
    for stage in &wall.stages {
        let key = match stage.stage.as_str() {
            s if s == Stage::Faults.name() => "net.faults_s",
            s if s == Stage::PhaseASense.name() => "ocean.sense_s",
            s if s == Stage::PhaseBDetect.name() => "core.detect_s",
            s if s == Stage::Deliveries.name() => "net.deliveries_s",
            s if s == Stage::Clusters.name() => "core.clusters_s",
            // Nested inside whichever fan-out issued the batch.
            _ => {
                add(layers, "exec.batch_s", stage.secs);
                continue;
            }
        };
        add(layers, key, stage.secs);
        total += stage.secs;
    }
    for counter in &wall.counters {
        let key = if counter.counter == CounterId::ExecBatches.name() {
            "exec.batches"
        } else {
            "exec.tasks"
        };
        add(layers, key, counter.count as f64);
    }
    total
}

/// Adds `x` to layer reading `key`.
pub fn add(layers: &mut Layers, key: &'static str, x: f64) {
    *layers.entry(key).or_insert(0.0) += x;
}

/// Drives `ticks` ticks through the streaming seam, returning the
/// node-samples sensed. With `layers`, times each call: the scene
/// fan-out is Phase-A sensing (`ocean.sense_s`), and `begin_tick` /
/// `finish_tick` are recorded whole (the caller subtracts their nested
/// stages).
pub fn seam(
    sys: &mut IntrusionDetectionSystem,
    pool: &Pool,
    ticks: u64,
    mut layers: Option<&mut Layers>,
) -> u64 {
    let mut sampling = Vec::with_capacity(sys.node_count());
    let mut samples = 0;
    for _ in 0..ticks {
        let t0 = Instant::now();
        let now = sys.begin_tick(&mut sampling);
        let t1 = Instant::now();
        let envs = pool.par_map(&sampling, |&idx| sys.sense_at(idx, now));
        let t2 = Instant::now();
        sys.finish_tick(&sampling, &envs);
        samples += sampling.len() as u64;
        if let Some(layers) = layers.as_deref_mut() {
            let t3 = Instant::now();
            add(layers, "core.begin_tick_s", (t1 - t0).as_secs_f64());
            add(layers, "ocean.sense_s", (t2 - t1).as_secs_f64());
            add(layers, "core.finish_tick_s", (t3 - t2).as_secs_f64());
            add(layers, "obs.covered_s", (t3 - t0).as_secs_f64());
        }
    }
    samples
}
