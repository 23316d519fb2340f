//! # sid-obs
//!
//! A lightweight, deterministic observability layer for the SID
//! reproduction: typed counters, gauges and histograms, span-style
//! per-stage wall timers, and a structured JSONL event journal covering
//! every stage of the detection pipeline (node report emitted/suppressed,
//! classifier verdict, cluster formed/evaluated, sink accept/dedup-drop,
//! fault and radio events).
//!
//! ## Determinism contract
//!
//! The journal ([`Event`] stream) is recorded **only from sequential
//! main-thread pipeline code**, so it is a pure function of scene +
//! config + seed: byte-identical at any `--threads` setting. Stage
//! counts ([`StageCounts`]) are commutative sums over those events and
//! inherit the guarantee. Wall-clock timings, gauges and execution
//! counters ([`WallStats`]) are scheduling-dependent by nature and are
//! kept in a separate, clearly non-deterministic section of
//! `results/OBS_summary.json`. See DESIGN.md §10.
//!
//! ## Zero overhead when off
//!
//! The default recorder is [`NoopRecorder`]: [`Obs::enabled`] returns
//! `false` and every instrumentation site gates event construction on
//! it, so a disabled pipeline does not even allocate the event.
//!
//! ```
//! use sid_obs::{Event, Obs};
//!
//! let obs = Obs::in_memory();
//! if obs.enabled() {
//!     obs.record(Event::ClusterFormed { time: 12.5, head: 7 });
//! }
//! assert_eq!(obs.counts().clusters_formed, 1);
//! assert_eq!(obs.events().expect("in-memory").len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod recorder;
pub mod summary;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub use event::{CounterId, Event, GaugeId, Stage, StageCounts};
pub use recorder::{
    CounterReading, GaugeReading, InMemoryRecorder, JsonlRecorder, NoopRecorder, Recorder,
    StageTiming, WallStats, HISTOGRAM_BOUNDS, HISTOGRAM_BUCKETS,
};
pub use summary::{DeterministicSummary, RunSummary};

/// Default journal path when `SID_OBS=jsonl` is set without
/// `SID_OBS_PATH`.
pub const DEFAULT_JOURNAL_PATH: &str = "results/OBS_journal.jsonl";

/// A cheaply-clonable handle to a [`Recorder`]. Every subsystem holds one
/// of these; the default is the no-op recorder.
#[derive(Clone)]
pub struct Obs(Arc<dyn Recorder>);

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("enabled", &self.enabled()).finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::noop()
    }
}

impl Obs {
    /// Wraps an arbitrary recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Obs(recorder)
    }

    /// The zero-overhead disabled handle.
    pub fn noop() -> Self {
        Obs(Arc::new(NoopRecorder))
    }

    /// A recorder that retains every event in memory.
    pub fn in_memory() -> Self {
        Obs(Arc::new(InMemoryRecorder::new()))
    }

    /// A recorder that streams events to a JSONL journal at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the journal file cannot be created.
    pub fn jsonl(path: &Path) -> std::io::Result<Self> {
        Ok(Obs(Arc::new(JsonlRecorder::create(path)?)))
    }

    /// Builds a handle from the environment: `SID_OBS=jsonl` streams to
    /// `SID_OBS_PATH` (default [`DEFAULT_JOURNAL_PATH`]), `SID_OBS=mem`
    /// keeps events in memory, anything else (or unset) is the no-op.
    /// A journal that cannot be created degrades to the no-op with a
    /// warning on stderr rather than aborting the run.
    pub fn from_env() -> Self {
        match std::env::var("SID_OBS").as_deref() {
            Ok("jsonl") => {
                let path = journal_path_from_env();
                match Self::jsonl(&path) {
                    Ok(obs) => obs,
                    Err(err) => {
                        eprintln!(
                            "sid-obs: cannot create journal {}: {err}; observability disabled",
                            path.display()
                        );
                        Self::noop()
                    }
                }
            }
            Ok("mem") | Ok("memory") => Self::in_memory(),
            Ok("") | Ok("off") | Ok("0") | Err(_) => Self::noop(),
            Ok(other) => {
                // Not silent, but once per process: repeated from_env
                // calls (bench sweeps build several handles) shouldn't
                // spam the same misconfiguration.
                static WARNED: std::sync::atomic::AtomicBool =
                    std::sync::atomic::AtomicBool::new(false);
                if !WARNED.swap(true, std::sync::atomic::Ordering::SeqCst) {
                    eprintln!(
                        "sid-obs: unknown SID_OBS mode {other:?}; accepted values are \
                         jsonl, mem/memory, off/0/empty — observability disabled"
                    );
                }
                Self::noop()
            }
        }
    }

    /// Whether recording is on. Instrumentation sites check this before
    /// constructing events, so the disabled path costs one virtual call.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Records one structured event (deterministic journal — call only
    /// from order-stable code; see the crate docs).
    pub fn record(&self, event: Event) {
        self.0.record(&event);
    }

    /// Replays already-recorded events into this recorder, in order.
    /// Bench sweeps use this to flush per-cell in-memory journals into
    /// one file from the main thread in deterministic grid order.
    pub fn replay(&self, events: &[Event]) {
        for event in events {
            self.0.record(event);
        }
    }

    /// Adds one wall-clock span to `stage`.
    pub fn add_time(&self, stage: Stage, secs: f64) {
        self.0.add_time(stage, secs);
    }

    /// Starts a span timer for `stage`, or `None` when disabled. The
    /// guard owns a clone of this handle (one `Arc` bump, paid only when
    /// recording) and records the elapsed wall time on drop.
    pub fn span(&self, stage: Stage) -> Option<SpanTimer> {
        self.enabled().then(|| SpanTimer {
            obs: self.clone(),
            stage,
            start: Instant::now(),
        })
    }

    /// Raises a gauge's high-water mark to at least `value`.
    pub fn gauge_max(&self, gauge: GaugeId, value: f64) {
        self.0.gauge_max(gauge, value);
    }

    /// Adds `n` to a non-deterministic execution counter.
    pub fn add_count(&self, counter: CounterId, n: u64) {
        self.0.add_count(counter, n);
    }

    /// Deterministic stage counts aggregated so far.
    pub fn counts(&self) -> StageCounts {
        self.0.counts()
    }

    /// Wall-clock statistics aggregated so far.
    pub fn wall(&self) -> WallStats {
        self.0.wall()
    }

    /// The retained events, when the recorder keeps them in memory.
    pub fn events(&self) -> Option<Vec<Event>> {
        self.0.events()
    }

    /// Flushes buffered journal output.
    pub fn flush(&self) {
        self.0.flush();
    }
}

/// Serializes a journal exactly as the JSONL recorder writes it: one
/// event per line, in order. This is the canonical byte representation
/// determinism checks compare — two runs are "journal-identical" iff
/// their rendered journals are equal strings.
pub fn render_journal(events: &[Event]) -> String {
    events
        .iter()
        .map(|e| serde_json::to_string(e).expect("events serialize"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders a journal with every line prefixed by `tenant` and a tab —
/// the per-tenant namespacing `sid-serve` uses so N concurrent session
/// journals can share one log stream and still be split back apart
/// byte-exactly (`grep '^<tenant>\t'`, strip the prefix, and you hold
/// the session's canonical [`render_journal`] bytes again). The tenant
/// label must not contain `\n` or `\t`; offending characters are
/// replaced with `_` so the framing cannot be corrupted.
///
/// ```
/// use sid_obs::{render_namespaced_journal, Event};
///
/// let events = vec![Event::RunMarker { label: "ep1".into() }];
/// let lines = render_namespaced_journal("harbor-7", &events);
/// assert!(lines.starts_with("harbor-7\t{"));
/// ```
pub fn render_namespaced_journal(tenant: &str, events: &[Event]) -> String {
    let clean: String = tenant
        .chars()
        .map(|c| if c == '\n' || c == '\t' { '_' } else { c })
        .collect();
    events
        .iter()
        .map(|e| {
            let line = serde_json::to_string(e).expect("events serialize");
            format!("{clean}\t{line}")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The [`fnv1a`] fingerprint of a journal's canonical bytes
/// ([`render_journal`]) — the one number two runs must agree on to be
/// journal-identical. Session managers and benches print this per
/// tenant; it is namespace-independent (the tenant prefix is *not*
/// hashed), so the same scenario fingerprints identically no matter
/// which tenant label it runs under.
pub fn journal_fingerprint(events: &[Event]) -> u64 {
    fnv1a(0, render_journal(events).as_bytes())
}

/// FNV-1a over `bytes`, chained from `h`: the cheap, stable journal
/// fingerprint the determinism gates print and compare. Pass `h = 0`
/// to start a fresh hash (the canonical offset basis is substituted);
/// pass a previous result to fold multiple buffers into one
/// fingerprint, as the DST driver does across its seed population.
///
/// ```
/// use sid_obs::fnv1a;
///
/// let a = fnv1a(0, b"journal");
/// assert_eq!(a, fnv1a(0, b"journal"));
/// assert_ne!(a, fnv1a(0, b"journa1"));
/// ```
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The journal path the environment selects: `SID_OBS_PATH` if set, else
/// [`DEFAULT_JOURNAL_PATH`].
pub fn journal_path_from_env() -> PathBuf {
    std::env::var("SID_OBS_PATH")
        .ok()
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(DEFAULT_JOURNAL_PATH))
}

/// Where a run puts the [`RunSummary`] of the journal at `journal`: the
/// same path with the extension `summary.json`
/// (`results/OBS_journal.jsonl` → `results/OBS_journal.summary.json`),
/// so a journal and the summary of the same run always sit side by side.
pub fn summary_path_for_journal(journal: &Path) -> PathBuf {
    journal.with_extension("summary.json")
}

/// A span-style wall timer: created by [`Obs::span`], records the elapsed
/// time into its stage when dropped.
#[derive(Debug)]
pub struct SpanTimer {
    obs: Obs,
    stage: Stage,
    start: Instant,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.obs.add_time(self.stage, self.start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_handle_is_disabled_and_inert() {
        let obs = Obs::default();
        assert!(!obs.enabled());
        obs.record(Event::ClusterFormed { time: 0.0, head: 0 });
        assert!(obs.counts().is_empty());
        assert!(obs.events().is_none());
        assert!(obs.span(Stage::Clusters).is_none());
    }

    #[test]
    fn span_timer_records_on_drop() {
        let obs = Obs::in_memory();
        {
            let _guard = obs.span(Stage::Deliveries).expect("enabled");
        }
        let wall = obs.wall();
        assert_eq!(wall.stages.len(), 1);
        assert_eq!(wall.stages[0].stage, "deliveries");
        assert_eq!(wall.stages[0].calls, 1);
    }

    #[test]
    fn replay_preserves_order_and_counts() {
        let source = Obs::in_memory();
        source.record(Event::ClusterFormed { time: 1.0, head: 1 });
        source.record(Event::ClusterOrphaned { time: 2.0, head: 1 });
        let target = Obs::in_memory();
        target.replay(&source.events().expect("kept"));
        assert_eq!(target.events(), source.events());
        assert_eq!(target.counts(), source.counts());
    }

    #[test]
    fn clones_share_one_recorder() {
        let obs = Obs::in_memory();
        let clone = obs.clone();
        clone.record(Event::NodeUp { time: 3.0, node: 1 });
        assert_eq!(obs.counts().nodes_up, 1);
        assert_eq!(format!("{obs:?}"), "Obs { enabled: true }");
    }

    #[test]
    fn namespaced_journal_round_trips_to_canonical_bytes() {
        let events = vec![
            Event::NodeUp { time: 1.0, node: 4 },
            Event::ClusterFormed { time: 2.0, head: 4 },
        ];
        let spliced = render_namespaced_journal("tenant-a", &events);
        // Stripping the prefix recovers the canonical journal exactly.
        let stripped: Vec<&str> = spliced
            .lines()
            .map(|l| l.split_once('\t').expect("tenant prefix").1)
            .collect();
        assert_eq!(stripped.join("\n"), render_journal(&events));
        assert!(spliced.lines().all(|l| l.starts_with("tenant-a\t")));
        // Fingerprints hash the canonical bytes, not the namespace.
        assert_eq!(
            journal_fingerprint(&events),
            fnv1a(0, render_journal(&events).as_bytes())
        );
        // Framing characters in the label are sanitized.
        let hostile = render_namespaced_journal("a\tb\nc", &events);
        assert!(hostile.lines().all(|l| l.starts_with("a_b_c\t")));
    }
}
