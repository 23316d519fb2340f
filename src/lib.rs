//! # sid — Ship Intrusion Detection with Wireless Sensor Networks
//!
//! A full reproduction of *SID: Ship Intrusion Detection with Wireless
//! Sensor Networks* (Luo et al., ICDCS 2011): accelerometer buoys on the
//! sea surface detect passing ships by the Kelvin wake they drag, fuse
//! node-level alarms through temporary clusters with spatial–temporal
//! correlation, and estimate the intruder's speed from the fixed Kelvin
//! cusp angle.
//!
//! This facade crate re-exports the whole stack:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`dsp`] | `sid-dsp` | FFT, STFT, Morlet CWT, filters, running stats |
//! | [`ocean`] | `sid-ocean` | Sea spectra, Kelvin wake, ship waves, buoys |
//! | [`sensor`] | `sid-sensor` | LIS3L02DQ model, clocks, energy budgets |
//! | [`net`] | `sid-net` | Topology, lossy radio, DES, clusters, time sync |
//! | [`core`] | `sid-core` | The SID detection system itself |
//! | [`acoustic`] | `sid-acoustic` | Underwater acoustics + fusion (the paper's future work) |
//! | [`exec`] | `sid-exec` | Deterministic fork–join worker pool (`par_map`) |
//! | [`stream`] | `sid-stream` | Push-based streaming driver + online detection engine |
//! | [`serve`] | `sid-serve` | Multi-tenant session manager: per-tenant pipelines on one pool, checkpoint/migrate/resume |
//! | [`obs`] | `sid-obs` | Structured tracing, counters and per-stage timing |
//! | [`alert`] | `sid-alert` | Alerting edge: severity, rate limiting, storm suppression, JSONL/CEF |
//!
//! # Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use sid::core::{IntrusionDetectionSystem, SystemConfig};
//! use sid::ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};
//!
//! // A sheltered harbor with one 10-knot intruder.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 96, &mut rng);
//! let mut scene = Scene::new(sea, ShipWaveModel::default());
//! scene.add_ship(Ship::new(
//!     Vec2::new(37.0, -150.0),
//!     Angle::from_degrees(90.0),
//!     Knots::new(10.0),
//! ));
//!
//! // A 5×5 grid of buoys at the paper's 25 m spacing.
//! let mut system = IntrusionDetectionSystem::new(scene, SystemConfig::paper_default(5, 5), 7);
//! system.run(10.0);
//! assert!(system.now() > 9.9);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

#![warn(missing_docs)]

pub use sid_acoustic as acoustic;
pub use sid_alert as alert;
pub use sid_core as core;
pub use sid_dsp as dsp;
pub use sid_exec as exec;
pub use sid_net as net;
pub use sid_obs as obs;
pub use sid_ocean as ocean;
pub use sid_sensor as sensor;
pub use sid_serve as serve;
pub use sid_stream as stream;
