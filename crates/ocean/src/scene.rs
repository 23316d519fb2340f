//! The composite sea scene: ambient sea plus any number of passing ships.
//!
//! [`Scene`] is the ground-truth world the sensor network floats in. It
//! answers one question — "what is the water doing at point *p* at time
//! *t*?" — by superposing the ambient [`SeaState`] field with each ship's
//! [`WaveTrain`](crate::shipwave::WaveTrain) contribution, and it exposes
//! the ground-truth passage
//! events that the evaluation harness scores detections against.

use serde::{Deserialize, Serialize};

use crate::kelvin::cusp_arrival_delay;
use crate::sea::SeaState;
use crate::ship::Ship;
use crate::shipwave::ShipWaveModel;
use crate::units::Vec2;

/// Ground truth about one ship's wave train reaching one point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PassageEvent {
    /// Index of the ship in the scene.
    pub ship_index: usize,
    /// Time (s) at which the ship passes closest to the point.
    pub time_of_cpa: f64,
    /// Time (s) at which the wave train peaks at the point.
    pub arrival_time: f64,
    /// Duration (s) of the disturbance window.
    pub duration: f64,
    /// Lateral distance (m) from the sailing line.
    pub lateral: f64,
    /// Side of the track: +1 port, −1 starboard.
    pub side: i8,
    /// Peak divergent wave height (m) at the point.
    pub peak_height: f64,
}

/// A simulated patch of ocean with ships.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let sea = SeaState::synthesize(WaveSpectrum::moderate_sea(), 64, &mut rng);
/// let mut scene = Scene::new(sea, ShipWaveModel::default());
/// scene.add_ship(Ship::new(Vec2::new(-500.0, 0.0), Angle::from_degrees(0.0), Knots::new(10.0)));
/// let a = scene.acceleration(Vec2::new(0.0, 25.0), 100.0);
/// assert!(a[2].is_finite());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scene {
    sea: SeaState,
    wave_model: ShipWaveModel,
    ships: Vec<Ship>,
    /// Fraction of the ship-wave vertical acceleration that couples into
    /// the horizontal axes (surface orbital motion).
    horizontal_coupling: f64,
}

impl Scene {
    /// Creates a scene with the given ambient sea and ship-wave physics.
    pub fn new(sea: SeaState, wave_model: ShipWaveModel) -> Self {
        Scene {
            sea,
            wave_model,
            ships: Vec::new(),
            horizontal_coupling: 0.6,
        }
    }

    /// Adds a ship; returns its index.
    pub fn add_ship(&mut self, ship: Ship) -> usize {
        self.ships.push(ship);
        self.ships.len() - 1
    }

    /// The ships in the scene.
    pub fn ships(&self) -> &[Ship] {
        &self.ships
    }

    /// The ambient sea.
    pub fn sea(&self) -> &SeaState {
        &self.sea
    }

    /// The ship-wave model.
    pub fn wave_model(&self) -> &ShipWaveModel {
        &self.wave_model
    }

    /// Vertical water acceleration (m/s²) contributed by ship waves alone
    /// at `position`, `t`.
    ///
    /// The activity window is decided from the two cheap train
    /// parameters (arrival delay and duration) first; the full
    /// [`WaveTrain`](crate::shipwave::WaveTrain) is built only while the
    /// train is active — the same functions of the same inputs
    /// [`WaveTrain::is_active`](crate::shipwave::WaveTrain::is_active)
    /// tests, so the result is unchanged.
    pub fn ship_wave_acceleration(&self, position: Vec2, t: f64) -> f64 {
        self.ships
            .iter()
            .map(|ship| {
                let g = ship.track_geometry(position);
                if g.lateral < 1e-6 {
                    return 0.0; // directly on the track: run-over, not wake
                }
                let speed = ship.speed_mps();
                let dt = t - g.time_of_cpa;
                let arrival = cusp_arrival_delay(g.lateral, speed);
                let active = (dt - arrival).abs() <= 1.5 * self.wave_model.duration(g.lateral);
                if !active {
                    return 0.0;
                }
                self.wave_model
                    .wave_train(speed, g.lateral)
                    .vertical_acceleration(dt)
            })
            .sum()
    }

    /// Total water acceleration `[ax, ay, az]` (m/s², gravity *not*
    /// included) at `position`, `t`.
    pub fn acceleration(&self, position: Vec2, t: f64) -> [f64; 3] {
        let mut a = self.sea.acceleration(position, t);
        let ship_az = self.ship_wave_acceleration(position, t);
        a[2] += ship_az;
        // Divergent waves propagate ~ perpendicular to the sailing line;
        // approximate the horizontal orbital component as an isotropic
        // fraction split between axes.
        let h = self.horizontal_coupling * ship_az * std::f64::consts::FRAC_1_SQRT_2;
        a[0] += h;
        a[1] += h;
        a
    }

    /// Ground-truth passage events at `position`: one per ship whose wave
    /// train reaches the point within `[0, horizon]` seconds.
    pub fn passage_events(&self, position: Vec2, horizon: f64) -> Vec<PassageEvent> {
        self.ships
            .iter()
            .enumerate()
            .filter_map(|(i, ship)| {
                let g = ship.track_geometry(position);
                if g.lateral < 1e-6 {
                    return None;
                }
                let train = self.wave_model.wave_train(ship.speed_mps(), g.lateral);
                let arrival = g.time_of_cpa + train.arrival_delay;
                if arrival < 0.0 || arrival > horizon {
                    return None;
                }
                Some(PassageEvent {
                    ship_index: i,
                    time_of_cpa: g.time_of_cpa,
                    arrival_time: arrival,
                    duration: train.duration,
                    lateral: g.lateral,
                    side: g.side,
                    peak_height: train.divergent_height,
                })
            })
            .collect()
    }

    /// Batched [`Scene::acceleration`]: `n` uniform samples `dt` apart
    /// from `t0` at a fixed `position`.
    ///
    /// The ambient sea advances by phase recurrence
    /// ([`SeaState::accumulate_block`]) and each ship's wave-train
    /// geometry is computed once per block instead of once per sample, so
    /// the whole evaluation does O(components + ships) trigonometry per
    /// resync window rather than per sample. Agrees with the pointwise
    /// path to ~1e-12 relative (see the block-accuracy tests).
    pub fn acceleration_block(&self, position: Vec2, t0: f64, dt: f64, n: usize) -> Vec<[f64; 3]> {
        let mut out = self.sea.acceleration_block(position, t0, dt, n);
        // Per-block ship geometry: track_geometry and wave_train depend
        // only on the position, not the sample time.
        let trains: Vec<_> = self
            .ships
            .iter()
            .filter_map(|ship| {
                let g = ship.track_geometry(position);
                if g.lateral < 1e-6 {
                    return None; // on the track: run-over, not wake
                }
                let train = self.wave_model.wave_train(ship.speed_mps(), g.lateral);
                Some((g.time_of_cpa, train))
            })
            .collect();
        if trains.is_empty() {
            return out;
        }
        for (i, slot) in out.iter_mut().enumerate() {
            let t = t0 + i as f64 * dt;
            let ship_az: f64 = trains
                .iter()
                .map(|(cpa, train)| {
                    let rel = t - cpa;
                    if train.is_active(rel) {
                        train.vertical_acceleration(rel)
                    } else {
                        0.0
                    }
                })
                .sum();
            slot[2] += ship_az;
            let h = self.horizontal_coupling * ship_az * std::f64::consts::FRAC_1_SQRT_2;
            slot[0] += h;
            slot[1] += h;
        }
        out
    }

    /// Samples the three-axis water acceleration at `position` into uniform
    /// series (`sample_rate` Hz, `n` samples from `t0`): returns
    /// `(ax, ay, az)` vectors.
    #[allow(clippy::type_complexity)]
    pub fn sample_acceleration(
        &self,
        position: Vec2,
        t0: f64,
        sample_rate: f64,
        n: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut ax = Vec::with_capacity(n);
        let mut ay = Vec::with_capacity(n);
        let mut az = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.acceleration(position, t0 + i as f64 / sample_rate);
            ax.push(a[0]);
            ay.push(a[1]);
            az.push(a[2]);
        }
        (ax, ay, az)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::WaveSpectrum;
    use crate::units::{Angle, Knots};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quiet_scene(seed: u64) -> Scene {
        let mut rng = StdRng::seed_from_u64(seed);
        let sea = SeaState::synthesize(WaveSpectrum::calm_sea(), 64, &mut rng);
        Scene::new(sea, ShipWaveModel::default())
    }

    fn crossing_ship() -> Ship {
        // Passes x=0 at t = 500/5.14 ≈ 97 s, 25 m south of the origin buoy.
        Ship::new(
            Vec2::new(-500.0, -25.0),
            Angle::from_degrees(0.0),
            Knots::new(10.0),
        )
    }

    #[test]
    fn empty_scene_is_pure_sea() {
        let scene = quiet_scene(1);
        let p = Vec2::new(10.0, 10.0);
        let sea_a = scene.sea().acceleration(p, 50.0);
        let scene_a = scene.acceleration(p, 50.0);
        assert_eq!(sea_a, scene_a);
        assert_eq!(scene.ship_wave_acceleration(p, 50.0), 0.0);
        assert!(scene.passage_events(p, 1000.0).is_empty());
    }

    #[test]
    fn ship_wave_appears_at_predicted_time() {
        let mut scene = quiet_scene(2);
        scene.add_ship(crossing_ship());
        let p = Vec2::ZERO;
        let events = scene.passage_events(p, 1000.0);
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert!((ev.lateral - 25.0).abs() < 1e-9);
        // Wave energy near the arrival time, none long before.
        let near: f64 = (0..60)
            .map(|i| {
                scene
                    .ship_wave_acceleration(p, ev.arrival_time - 3.0 + i as f64 * 0.1)
                    .abs()
            })
            .fold(0.0, f64::max);
        let before: f64 = (0..60)
            .map(|i| scene.ship_wave_acceleration(p, 10.0 + i as f64 * 0.1).abs())
            .fold(0.0, f64::max);
        assert!(near > 0.01, "no wave energy near arrival: {near}");
        assert_eq!(before, 0.0);
    }

    #[test]
    fn events_outside_horizon_are_dropped() {
        let mut scene = quiet_scene(3);
        scene.add_ship(crossing_ship());
        assert!(scene.passage_events(Vec2::ZERO, 10.0).is_empty());
        assert_eq!(scene.passage_events(Vec2::ZERO, 1000.0).len(), 1);
    }

    #[test]
    fn closer_points_see_bigger_waves_sooner() {
        let mut scene = quiet_scene(4);
        scene.add_ship(crossing_ship());
        let near = &scene.passage_events(Vec2::new(0.0, 0.0), 1e4)[0]; // 25 m
        let far = &scene.passage_events(Vec2::new(0.0, 50.0), 1e4)[0]; // 75 m
        assert!(near.peak_height > far.peak_height);
        assert!(near.arrival_time < far.arrival_time);
        assert!(far.duration >= near.duration);
    }

    #[test]
    fn two_ships_superpose() {
        let mut scene = quiet_scene(5);
        scene.add_ship(crossing_ship());
        scene.add_ship(Ship::new(
            Vec2::new(-500.0, 40.0),
            Angle::from_degrees(0.0),
            Knots::new(16.0),
        ));
        let events = scene.passage_events(Vec2::ZERO, 1e4);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ship_index, 0);
        assert_eq!(events[1].ship_index, 1);
    }

    #[test]
    fn point_on_track_is_skipped() {
        let mut scene = quiet_scene(6);
        scene.add_ship(Ship::new(
            Vec2::new(-500.0, 0.0),
            Angle::from_degrees(0.0),
            Knots::new(10.0),
        ));
        // Exactly on the sailing line: no wake contribution (the model is
        // about lateral wave propagation).
        assert!(scene.passage_events(Vec2::ZERO, 1e4).is_empty());
        assert_eq!(scene.ship_wave_acceleration(Vec2::ZERO, 100.0), 0.0);
    }

    #[test]
    fn sampled_series_matches_pointwise() {
        let mut scene = quiet_scene(7);
        scene.add_ship(crossing_ship());
        let (ax, ay, az) = scene.sample_acceleration(Vec2::ZERO, 90.0, 50.0, 100);
        assert_eq!(ax.len(), 100);
        let direct = scene.acceleration(Vec2::ZERO, 90.0 + 42.0 / 50.0);
        assert_eq!(ax[42], direct[0]);
        assert_eq!(ay[42], direct[1]);
        assert_eq!(az[42], direct[2]);
    }

    #[test]
    fn block_series_matches_pointwise_through_a_passage() {
        // Block synthesis across the wave-train arrival window: the ship
        // ramp must switch on at exactly the same samples as pointwise.
        let mut scene = quiet_scene(9);
        scene.add_ship(crossing_ship());
        let p = Vec2::ZERO;
        let ev = scene.passage_events(p, 1e4)[0];
        let t0 = ev.arrival_time - 30.0;
        let n = 60 * 50;
        let dt = 1.0 / 50.0;
        let block = scene.acceleration_block(p, t0, dt, n);
        let scale = scene.sea().vertical_accel_rms().max(1.0);
        for i in (0..n).step_by(7) {
            let direct = scene.acceleration(p, t0 + i as f64 * dt);
            for (axis, name) in ["ax", "ay", "az"].iter().enumerate() {
                assert!(
                    (block[i][axis] - direct[axis]).abs() < 1e-10 * scale,
                    "{name} sample {i}"
                );
            }
        }
    }

    #[test]
    fn ship_wave_detectable_above_calm_sea() {
        // At 25 m from a 10 kn ship in a calm sea, the wave-train vertical
        // acceleration should rival or exceed the ambient RMS — that is
        // what makes detection possible at the paper's D = 25 m.
        let mut scene = quiet_scene(8);
        scene.add_ship(crossing_ship());
        let ev = scene.passage_events(Vec2::ZERO, 1e4)[0];
        let peak: f64 = (0..100)
            .map(|i| {
                scene
                    .ship_wave_acceleration(Vec2::ZERO, ev.arrival_time - 2.5 + i as f64 * 0.05)
                    .abs()
            })
            .fold(0.0, f64::max);
        let ambient = scene.sea().vertical_accel_rms();
        assert!(
            peak > 0.5 * ambient,
            "peak {peak} vs ambient rms {ambient}"
        );
    }
}
