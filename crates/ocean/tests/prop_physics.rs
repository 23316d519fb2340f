//! Property-based tests on the ocean/ship-wave physics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sid_ocean::dispersion::{
    deep_phase_speed, deep_wavenumber, depth_froude_number, wavenumber_at_depth,
};
use sid_ocean::kelvin::{cusp_arrival_delay, divergent_wave_angle, wake_relation};
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum, GRAVITY};

proptest! {
    #[test]
    fn dispersion_consistency(omega in 0.05..10.0f64) {
        let k = deep_wavenumber(omega);
        prop_assert!((omega * omega - GRAVITY * k).abs() < 1e-9);
        prop_assert!((deep_phase_speed(omega) * k - omega).abs() < 1e-9);
    }

    #[test]
    fn finite_depth_wavenumber_exceeds_deep(omega in 0.1..5.0f64, depth in 1.0..100.0f64) {
        // Shallower water shortens the wave: k(h) ≥ k(∞).
        let k_deep = deep_wavenumber(omega);
        let k = wavenumber_at_depth(omega, depth);
        prop_assert!(k >= k_deep - 1e-9);
        // And satisfies its own dispersion relation.
        let lhs = omega * omega;
        let rhs = GRAVITY * k * (k * depth).tanh();
        prop_assert!((lhs - rhs).abs() < 1e-6 * lhs);
    }

    #[test]
    fn froude_number_monotone_in_speed(v1 in 0.1..10.0f64, dv in 0.1..5.0f64, h in 1.0..60.0f64) {
        prop_assert!(depth_froude_number(v1 + dv, h) > depth_froude_number(v1, h));
    }

    #[test]
    fn divergent_angle_bounded(fd in 0.0..3.0f64) {
        let theta = divergent_wave_angle(fd).degrees();
        prop_assert!((0.0..=35.27 + 1e-9).contains(&theta));
    }

    #[test]
    fn wave_height_decays_with_distance(
        v in 1.0..12.0f64,
        d1 in 5.0..200.0f64,
        factor in 1.01..10.0f64,
    ) {
        let model = ShipWaveModel::default();
        let near = model.divergent_height(v, d1);
        let far = model.divergent_height(v, d1 * factor);
        prop_assert!(near > far);
        // Exact d^{-1/3} law.
        prop_assert!((near / far - factor.powf(1.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn arrival_delay_monotone(v in 1.0..12.0f64, d in 1.0..300.0f64) {
        let t1 = cusp_arrival_delay(d, v);
        let t2 = cusp_arrival_delay(d + 10.0, v);
        prop_assert!(t2 > t1);
        // Faster ship: wake sweeps sooner.
        let t3 = cusp_arrival_delay(d, v * 2.0);
        prop_assert!((t3 - t1 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn wake_wedge_is_convex_in_lateral(
        along in 1.0..500.0f64,
        lateral in 0.0..500.0f64,
    ) {
        let heading = Angle::from_degrees(0.0);
        let inside = wake_relation(Vec2::ZERO, heading, Vec2::new(-along, lateral)).inside_wedge;
        // If (along, lateral) is inside, any smaller lateral at the same
        // along is also inside.
        if inside && lateral > 1.0 {
            let closer = wake_relation(Vec2::ZERO, heading, Vec2::new(-along, lateral / 2.0));
            prop_assert!(closer.inside_wedge);
        }
    }

    #[test]
    fn ship_track_geometry_consistency(
        sx in -500.0..500.0f64,
        sy in -500.0..500.0f64,
        heading_deg in 0.0..360.0f64,
        speed in 1.0..20.0f64,
        px in -500.0..500.0f64,
        py in -500.0..500.0f64,
    ) {
        let ship = Ship::new(
            Vec2::new(sx, sy),
            Angle::from_degrees(heading_deg),
            Knots::new(speed),
        );
        let p = Vec2::new(px, py);
        let g = ship.track_geometry(p);
        prop_assert!(g.lateral >= 0.0);
        // The ship's position at CPA time is `lateral` from the point.
        let at_cpa = ship.position(g.time_of_cpa);
        prop_assert!((at_cpa.distance(p) - g.lateral).abs() < 1e-6);
    }

    #[test]
    fn wave_train_envelope_is_bounded(v in 1.0..12.0f64, d in 2.0..300.0f64) {
        let model = ShipWaveModel::default();
        let train = model.wave_train(v, d);
        let amp = 0.5 * (train.divergent_height + train.transverse_height);
        // Sample the train densely: never exceeds the component amplitudes.
        for i in 0..200 {
            let dt = train.arrival_delay - 3.0 * train.duration
                + i as f64 * (6.0 * train.duration / 200.0);
            prop_assert!(train.elevation(dt).abs() <= amp + 1e-9);
        }
    }

    #[test]
    fn sea_statistics_scale_with_wind(seed in 0u64..50) {
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        let calm = SeaState::synthesize(
            WaveSpectrum::PiersonMoskowitz { wind_speed: 5.0 }, 64, &mut r1);
        let rough = SeaState::synthesize(
            WaveSpectrum::PiersonMoskowitz { wind_speed: 12.0 }, 64, &mut r2);
        prop_assert!(rough.spectrum().significant_wave_height()
            > calm.spectrum().significant_wave_height());
    }

    #[test]
    fn spectra_are_nonnegative(omega in 0.01..20.0f64, wind in 1.0..25.0f64) {
        let pm = WaveSpectrum::PiersonMoskowitz { wind_speed: wind };
        prop_assert!(pm.density(omega) >= 0.0);
        let j = WaveSpectrum::Jonswap { wind_speed: wind, fetch: 10_000.0, gamma: 3.3 };
        prop_assert!(j.density(omega) >= 0.0);
    }
}

/// Satellite accuracy bound: the phase-recurrence synthesis in
/// `SeaState::acceleration_block` must track direct per-sample `sin`/`cos`
/// evaluation to better than 1e-9 *relative* error over a full 600 s run
/// (30 000 samples at 50 Hz) — the longest record any figure job produces.
#[test]
fn block_synthesis_drift_stays_below_1e9_over_600_s() {
    let mut rng = StdRng::seed_from_u64(0x51D_600);
    let sea = SeaState::synthesize(
        WaveSpectrum::Jonswap { wind_speed: 7.0, fetch: 25_000.0, gamma: 3.3 },
        96,
        &mut rng,
    );
    let position = Vec2::new(37.0, -12.0);
    let sample_rate = 50.0;
    let dt = 1.0 / sample_rate;
    let n = (600.0 * sample_rate) as usize; // 30 000 samples

    let block = sea.acceleration_block(position, 0.0, dt, n);
    assert_eq!(block.len(), n);

    // Relative scale: RMS magnitude of the direct signal, per axis.
    let mut sum_sq = [0.0f64; 3];
    let mut max_err = [0.0f64; 3];
    for (i, got) in block.iter().enumerate() {
        let t = i as f64 * dt;
        let direct = sea.acceleration(position, t);
        for axis in 0..3 {
            sum_sq[axis] += direct[axis] * direct[axis];
            max_err[axis] = max_err[axis].max((got[axis] - direct[axis]).abs());
        }
    }
    for axis in 0..3 {
        let rms = (sum_sq[axis] / n as f64).sqrt();
        assert!(rms > 0.0, "degenerate axis {axis}: rms = 0");
        let rel = max_err[axis] / rms;
        assert!(
            rel < 1e-9,
            "axis {axis}: max drift {:.3e} = {:.3e} relative to rms {:.3e} (bound 1e-9)",
            max_err[axis],
            rel,
            rms
        );
    }
}

/// One sea component as the per-call reference formula reads it: the
/// stored physical parameters only, none of the derived table.
#[derive(serde::Deserialize)]
struct RefComponent {
    amplitude: f64,
    omega: f64,
    wavenumber: f64,
    direction: f64,
    phase: f64,
}

#[derive(serde::Deserialize)]
struct RefSea {
    components: Vec<RefComponent>,
}

#[derive(serde::Deserialize)]
struct RefScene {
    sea: RefSea,
    horizontal_coupling: f64,
}

impl RefSea {
    fn of(sea: &SeaState) -> Self {
        serde::Deserialize::from_value(&serde::Serialize::to_value(sea)).expect("sea round-trips")
    }

    /// The per-call phase: wave vector rebuilt from `direction` every time.
    fn phase(c: &RefComponent, position: Vec2, t: f64) -> f64 {
        let k_vec = Vec2::new(c.direction.cos(), c.direction.sin()).scale(c.wavenumber);
        k_vec.dot(position) - c.omega * t + c.phase
    }

    fn elevation(&self, position: Vec2, t: f64) -> f64 {
        self.components
            .iter()
            .map(|c| c.amplitude * Self::phase(c, position, t).cos())
            .sum()
    }

    fn acceleration(&self, position: Vec2, t: f64) -> [f64; 3] {
        let mut a = [0.0f64; 3];
        for c in &self.components {
            let phi = Self::phase(c, position, t);
            let aw2 = c.amplitude * c.omega * c.omega;
            a[2] -= aw2 * phi.cos();
            let h = aw2 * phi.sin();
            a[0] += h * c.direction.cos();
            a[1] += h * c.direction.sin();
        }
        a
    }
}

impl RefScene {
    fn of(scene: &Scene) -> Self {
        serde::Deserialize::from_value(&serde::Serialize::to_value(scene))
            .expect("scene round-trips")
    }

    /// The per-call ship term: the full wave train built for every ship
    /// at every sample, then tested for activity.
    fn ship_wave_acceleration(scene: &Scene, position: Vec2, t: f64) -> f64 {
        scene
            .ships()
            .iter()
            .map(|ship| {
                let g = ship.track_geometry(position);
                if g.lateral < 1e-6 {
                    return 0.0;
                }
                let train = scene.wave_model().wave_train(ship.speed_mps(), g.lateral);
                let dt = t - g.time_of_cpa;
                if train.is_active(dt) {
                    train.vertical_acceleration(dt)
                } else {
                    0.0
                }
            })
            .sum()
    }

    fn acceleration(&self, scene: &Scene, position: Vec2, t: f64) -> [f64; 3] {
        let mut a = self.sea.acceleration(position, t);
        let ship_az = Self::ship_wave_acceleration(scene, position, t);
        a[2] += ship_az;
        let h = self.horizontal_coupling * ship_az * std::f64::consts::FRAC_1_SQRT_2;
        a[0] += h;
        a[1] += h;
        a
    }
}

fn preset(i: usize) -> WaveSpectrum {
    match i {
        0 => WaveSpectrum::moderate_sea(),
        1 => WaveSpectrum::calm_sea(),
        _ => WaveSpectrum::sheltered_harbor(),
    }
}

fn bits3(a: [f64; 3]) -> [u64; 3] {
    a.map(f64::to_bits)
}

proptest! {
    /// The component-table kernel is bit-identical to the per-call
    /// formula it replaced, for every preset, component count, position
    /// and time.
    #[test]
    fn sea_kernel_is_bit_identical_to_per_call_formula(
        seed in 0u64..10_000,
        which in 0usize..3,
        n in 1usize..129,
        direction in -3.2..3.2f64,
        px in -500.0..500.0f64,
        py in -500.0..500.0f64,
        t in 0.0..2_000.0f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sea = SeaState::synthesize_with_direction(preset(which), n, direction, &mut rng);
        let reference = RefSea::of(&sea);
        prop_assert_eq!(reference.components.len(), n);
        let p = Vec2::new(px, py);
        prop_assert_eq!(sea.elevation(p, t).to_bits(), reference.elevation(p, t).to_bits());
        prop_assert_eq!(bits3(sea.acceleration(p, t)), bits3(reference.acceleration(p, t)));
    }

    /// `Scene::acceleration`, with its ship-wave early-out, is
    /// bit-identical to the per-call formula inside the active window,
    /// on and just beyond its ±1.5·duration edges, far from it, and at a
    /// point exactly on the sailing line.
    #[test]
    fn scene_kernel_is_bit_identical_to_per_call_formula(
        seed in 0u64..10_000,
        which in 0usize..3,
        n in 1usize..129,
        sx in -300.0..300.0f64,
        sy in -300.0..300.0f64,
        heading in 0.0..360.0f64,
        knots in 2.0..25.0f64,
        px in -200.0..200.0f64,
        py in -200.0..200.0f64,
        inside in -1.0..1.0f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sea = SeaState::synthesize(preset(which), n, &mut rng);
        let mut scene = Scene::new(sea, ShipWaveModel::default());
        let ship = Ship::new(Vec2::new(sx, sy), Angle::from_degrees(heading), Knots::new(knots));
        scene.add_ship(ship);
        let reference = RefScene::of(&scene);
        let p = Vec2::new(px, py);
        let g = ship.track_geometry(p);
        prop_assume!(g.lateral >= 1e-6);
        let train = scene.wave_model().wave_train(ship.speed_mps(), g.lateral);
        let centre = g.time_of_cpa + train.arrival_delay;
        let edge = 1.5 * train.duration;
        let nudge = |t: f64, ulps: i64| f64::from_bits((t.to_bits() as i64 + ulps) as u64);
        let mut times = vec![
            centre,
            centre + inside * edge,
            centre - 1_000.0,
            centre + 1_000.0,
        ];
        for boundary in [centre - edge, centre + edge] {
            for ulps in -2..=2 {
                times.push(nudge(boundary, ulps));
            }
            times.push(boundary - 1e-6);
            times.push(boundary + 1e-6);
        }
        // The cases reach both branches of the early-out.
        prop_assert!(scene.ship_wave_acceleration(p, centre) != 0.0);
        prop_assert_eq!(scene.ship_wave_acceleration(p, centre + 1_000.0), 0.0);
        for &t in &times {
            prop_assert_eq!(
                bits3(scene.acceleration(p, t)),
                bits3(reference.acceleration(&scene, p, t)),
                "t = {}", t
            );
            prop_assert_eq!(
                scene.ship_wave_acceleration(p, t).to_bits(),
                RefScene::ship_wave_acceleration(&scene, p, t).to_bits()
            );
        }
        // Exactly on the sailing line: run-over, no wake term.
        let on_track = ship.start();
        prop_assert_eq!(ship.track_geometry(on_track).lateral, 0.0);
        prop_assert_eq!(
            bits3(scene.acceleration(on_track, centre)),
            bits3(reference.acceleration(&scene, on_track, centre))
        );
    }
}
