//! # sid-core
//!
//! The SID ship-intrusion-detection system (*SID: Ship Intrusion
//! Detection with Wireless Sensor Networks*, ICDCS 2011) — the paper's
//! primary contribution, implemented over the `sid-dsp`, `sid-ocean`,
//! `sid-sensor` and `sid-net` substrates.
//!
//! The pipeline follows the paper's architecture:
//!
//! 1. **Node level** ([`NodeDetector`]): preprocess the z-axis stream
//!    ([`Preprocessor`]: 1 g removal, < 1 Hz low-pass, rectification),
//!    keep an environment-adaptive threshold ([`AdaptiveThreshold`],
//!    eq. 4–6), and report when the anomaly frequency `af` (eq. 7)
//!    crosses its bar, carrying the crossing energy `E_Δt` (eq. 8) and
//!    onset time.
//! 2. **Spectral discrimination** ([`SpectralClassifier`]): STFT
//!    single-peak vs. multi-peak structure (Fig. 6) plus Morlet wavelet
//!    low-band concentration (Fig. 7).
//! 3. **Cluster level** ([`ClusterHead`], [`correlation_coefficient`]):
//!    on-demand temporary clusters fuse member reports with the
//!    spatial–temporal correlation statistic `C = CNt·CNe` (eq. 9–13).
//! 4. **Speed estimation** ([`speed::estimate_speed`], eq. 14–16): the
//!    fixed Kelvin cusp angle turns four timestamps into ship speed and
//!    track angle.
//! 5. **System** ([`IntrusionDetectionSystem`]): everything wired over
//!    the discrete-event WSN, scored by [`metrics`].
//!
//! # Paper-equation cross-reference
//!
//! Where each numbered equation of the paper lives in code:
//!
//! | Equation | Meaning | Module / function |
//! |---|---|---|
//! | eq. 1–3 | wake/wave physics of the sensed signal | `sid-ocean` ([`Scene`](sid_ocean::Scene)), `sid-acoustic` |
//! | eq. 4–6 | EWMA mean/std and the adaptive threshold `Th` | [`threshold::AdaptiveThreshold`], fed by [`preprocess::Preprocessor`] |
//! | eq. 7 | anomaly frequency `af` over the sliding window | [`node_detect::NodeDetector`] |
//! | eq. 8 | crossing energy `E_Δt` carried by a report | [`node_detect::NodeDetector`], [`report::NodeReport`] |
//! | eq. 9–13 | spatial–temporal correlation `C = CNt · CNe` | [`correlation::correlation_coefficient`], [`cluster_detect::ClusterHead`] |
//! | eq. 14–16 | speed & track angle from the Kelvin cusp geometry | [`speed::estimate_speed`], [`cluster_detect::estimate_speed_from_reports`] |
//!
//! The reproduction's post-seed subsystems sit around those equations
//! without changing any of them — each is proven byte-identical to the
//! baseline path it replaces or accelerates:
//!
//! | Subsystem | What it adds | Module / crate |
//! |---|---|---|
//! | event-driven scheduler | skips idle ticks, lazily charges sleepers; journal-identical to the fixed-tick sweep (DESIGN.md §15) | [`sched`], [`IntrusionDetectionSystem::run_events`] on `sid-net`'s `EventScheduler` |
//! | spectral front-end | real-input FFT, sliding STFT and Parseval-wavelet band energies behind the eq. 7–8 / Fig. 6–7 classifiers; the full complex-FFT + time-domain-wavelet route stays as [`SpectralClassifier::classify_window_reference`] (DESIGN.md §14) | `sid-dsp`, [`classify::SpectralClassifier`] |
//! | streaming engine | push-based ingest of the eq. 4–8 detector with bounded rings and serde snapshot/restore (DESIGN.md §12) | `sid-stream` |
//! | alerting edge | severity grading, token-bucket rate limiting and storm coalescing downstream of sink confirmation (DESIGN.md §13) | `sid-alert`, wired via `SystemConfig::alert` |
//! | fleet index | spatial-hash neighbor tables, byte-identical to the brute-force scan (DESIGN.md §16) | `sid-net` (`Topology`, `NeighborIndex`) |
//! | windowed Phase A | both drivers sense one pool task per node over 32-tick windows, byte-identical to the per-tick seam; a session's shard count is carried through `sid-serve` checkpoints but no longer changes dispatch (DESIGN.md §9, §17) | [`IntrusionDetectionSystem::run`], [`IntrusionDetectionSystem::run_events`], [`IntrusionDetectionSystem::with_shards`] |
//! | multi-tenant service | N sessions multiplexed on one pool with deterministic per-tenant journals and checkpoint/migrate/resume (DESIGN.md §17) | `sid-serve` |
//!
//! # Examples
//!
//! Run the full system on a synthetic harbor scene:
//!
//! ```
//! use rand::SeedableRng;
//! use sid_core::{IntrusionDetectionSystem, SystemConfig};
//! use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let sea = SeaState::synthesize(WaveSpectrum::calm_sea(), 64, &mut rng);
//! let mut scene = Scene::new(sea, ShipWaveModel::default());
//! scene.add_ship(Ship::new(Vec2::new(37.0, -150.0), Angle::from_degrees(90.0), Knots::new(10.0)));
//!
//! let mut system = IntrusionDetectionSystem::new(scene, SystemConfig::paper_default(4, 4), 7);
//! system.run(30.0);
//! assert!(system.now() >= 29.9);
//! ```

// `!(x > 0.0)`-style validation is used deliberately throughout: unlike
// `x <= 0.0`, the negated comparison also rejects NaN inputs.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classify;
pub mod cluster_detect;
pub mod config;
pub mod correlation;
pub mod metrics;
pub mod node_detect;
pub mod pipeline;
pub mod preprocess;
pub mod report;
pub mod retune;
pub mod sched;
pub mod sink;
pub mod speed;
pub mod threshold;

pub use classify::{Classification, ClassifierConfig, SignalClass, SpectralClassifier};
pub use cluster_detect::{
    estimate_speed_from_reports, ClusterEvaluation, ClusterHead, ClusterHeadConfig, PlacedReport,
};
pub use config::{ConfigError, DetectorConfig};
pub use correlation::{
    correlation_coefficient, correlation_coefficient_oriented, CorrelationConfig,
    CorrelationResult, GridOrientation, GridReport, RowCorrelation,
};
pub use metrics::{score_node_reports, score_system, NodeScore, SystemScore};
pub use node_detect::NodeDetector;
pub use pipeline::{
    ClusterOutcome, DutyCycleConfig, IntrusionDetectionSystem, SystemConfig, SystemTrace,
};

/// The full detection pipeline — an alias for [`IntrusionDetectionSystem`]
/// emphasizing its role as the drivable sensor → preprocess → node-detect →
/// cluster → sink chain rather than the simulation it hosts.
///
/// A pipeline can be driven two ways, and both produce byte-identical
/// journals and traces:
///
/// * offline: [`Pipeline::run`] advances whole seconds at a time;
/// * streaming: a driver alternates [`Pipeline::begin_tick`] →
///   [`Pipeline::sense_at`] → [`Pipeline::finish_tick`] one tick at a
///   time (this is what `sid-stream` builds on).
///
/// ```
/// use rand::SeedableRng;
/// use sid_core::{Pipeline, SystemConfig};
/// use sid_ocean::{Scene, SeaState, ShipWaveModel, WaveSpectrum};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let sea = SeaState::synthesize(WaveSpectrum::calm_sea(), 64, &mut rng);
/// let scene = Scene::new(sea, ShipWaveModel::default());
/// let mut pipeline = Pipeline::new(scene, SystemConfig::paper_default(4, 4), 11);
///
/// // Drive one 20 ms tick through the streaming seam by hand.
/// let mut sampling = Vec::new();
/// let now = pipeline.begin_tick(&mut sampling);
/// let envs: Vec<_> = sampling.iter().map(|&i| pipeline.sense_at(i, now)).collect();
/// pipeline.finish_tick(&sampling, &envs);
///
/// assert_eq!(sampling.len(), 16); // every node of the 4x4 grid sampled
/// assert!((pipeline.now() - pipeline.tick_dt()).abs() < 1e-12);
/// ```
pub type Pipeline = IntrusionDetectionSystem;
pub use preprocess::{preprocess_offline, Preprocessor};
pub use report::{ClusterDetection, NodeReport, SidMessage};
pub use retune::{DetectionRetune, RetuneError};
pub use sched::SchedEvent;
pub use sink::{Incident, IncidentState, SinkTracker, TrackerConfig};
pub use speed::{SpeedEstimate, SpeedError};
pub use threshold::AdaptiveThreshold;
