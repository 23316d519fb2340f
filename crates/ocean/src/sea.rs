//! Random-sea synthesis: turns a [`WaveSpectrum`] into elevation and
//! acceleration time series at arbitrary surface points.
//!
//! The standard linear random-phase model: the sea is a sum of `N`
//! independent harmonic components whose amplitudes follow the spectrum
//! (`Aᵢ = √(2·S(ωᵢ)·Δω)`), with uniformly random phases and cos²-spread
//! directions. The same component set evaluated at different positions
//! yields the *spatially coherent* wave field the cluster-level correlation
//! experiments need — nearby buoys see correlated, time-shifted water.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dispersion::deep_wavenumber;
use crate::spectrum::WaveSpectrum;
use crate::units::Vec2;

/// One harmonic component of the synthesised sea, with the per-sample
/// constants derived once at synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct SeaComponent {
    amplitude: f64,
    omega: f64,
    wavenumber: f64,
    /// Propagation direction (radians from +x).
    direction: f64,
    phase: f64,
    /// Wave vector `(cos θ·k, sin θ·k)`.
    kx: f64,
    ky: f64,
    /// `cos θ` and `sin θ`: the horizontal-axis split.
    dir_cos: f64,
    dir_sin: f64,
    /// Acceleration amplitude `A·ω·ω`.
    aw2: f64,
}

impl SeaComponent {
    /// Builds a component and its derived table entries. Each entry is
    /// the exact expression (and evaluation order) the per-sample kernel
    /// used to recompute, so every table value is the same `f64`.
    fn new(amplitude: f64, omega: f64, direction: f64, phase: f64) -> Self {
        let wavenumber = deep_wavenumber(omega);
        let (dir_sin, dir_cos) = direction.sin_cos();
        SeaComponent {
            amplitude,
            omega,
            wavenumber,
            direction,
            phase,
            kx: dir_cos * wavenumber,
            ky: dir_sin * wavenumber,
            dir_cos,
            dir_sin,
            aw2: amplitude * omega * omega,
        }
    }
}

/// A frozen realisation of a random sea.
///
/// Construct once (seeded), then evaluate [`SeaState::elevation`] and
/// [`SeaState::acceleration`] anywhere, at any time; evaluations are pure.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sid_ocean::{SeaState, WaveSpectrum, Vec2};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let sea = SeaState::synthesize(WaveSpectrum::moderate_sea(), 128, &mut rng);
/// let eta = sea.elevation(Vec2::ZERO, 10.0);
/// assert!(eta.abs() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeaState {
    components: Vec<SeaComponent>,
    spectrum: WaveSpectrum,
    mean_direction: f64,
}

impl SeaState {
    /// Synthesises a sea realisation with `n_components` harmonics from the
    /// given spectrum, with the mean wave direction along +x.
    ///
    /// # Panics
    ///
    /// Panics if `n_components` is zero.
    pub fn synthesize<R: Rng + ?Sized>(
        spectrum: WaveSpectrum,
        n_components: usize,
        rng: &mut R,
    ) -> Self {
        Self::synthesize_with_direction(spectrum, n_components, 0.0, rng)
    }

    /// Synthesises a sea with the given mean propagation direction
    /// (radians from +x).
    ///
    /// # Panics
    ///
    /// Panics if `n_components` is zero.
    pub fn synthesize_with_direction<R: Rng + ?Sized>(
        spectrum: WaveSpectrum,
        n_components: usize,
        mean_direction: f64,
        rng: &mut R,
    ) -> Self {
        assert!(n_components > 0, "need at least one component");
        let wp = spectrum.peak_omega();
        let (lo, hi) = (wp * 0.3, wp * 6.0);
        let dw = (hi - lo) / n_components as f64;
        let curve = spectrum.curve();
        let components = (0..n_components)
            .map(|i| {
                // Jitter each component inside its bin so the record is not
                // periodic with the bin spacing.
                let omega = lo + (i as f64 + rng.gen::<f64>()) * dw;
                let amplitude = (2.0 * curve.density(omega) * dw).sqrt();
                // cos²-spread direction about the mean: draw by rejection.
                let spread = loop {
                    let d: f64 = rng.gen_range(-std::f64::consts::FRAC_PI_2
                        ..std::f64::consts::FRAC_PI_2);
                    let p: f64 = rng.gen();
                    if p < d.cos().powi(2) {
                        break d;
                    }
                };
                SeaComponent::new(
                    amplitude,
                    omega,
                    mean_direction + spread,
                    rng.gen_range(0.0..std::f64::consts::TAU),
                )
            })
            .collect();
        SeaState {
            components,
            spectrum,
            mean_direction,
        }
    }

    /// The spectrum this sea was synthesised from.
    pub fn spectrum(&self) -> &WaveSpectrum {
        &self.spectrum
    }

    /// Number of harmonic components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// `k·p − ω·t + φ` from the component table: no trigonometry.
    #[inline]
    fn component_phase(c: &SeaComponent, position: Vec2, t: f64) -> f64 {
        c.kx * position.x + c.ky * position.y - c.omega * t + c.phase
    }

    /// Sea-surface elevation (m) at `position` and time `t` (s).
    pub fn elevation(&self, position: Vec2, t: f64) -> f64 {
        self.components
            .iter()
            .map(|c| c.amplitude * Self::component_phase(c, position, t).cos())
            .sum()
    }

    /// Surface water acceleration (m/s²) at `position` and time `t`:
    /// `(ax, ay, az)` where `az` is the vertical component a floating buoy
    /// heaves with and `(ax, ay)` the horizontal orbital components.
    ///
    /// One `sin`/`cos` pair per component; everything else comes from the
    /// table built at synthesis.
    pub fn acceleration(&self, position: Vec2, t: f64) -> [f64; 3] {
        let mut a = [0.0f64; 3];
        for c in &self.components {
            let (sin, cos) = Self::component_phase(c, position, t).sin_cos();
            // Deep-water linear theory at the surface: vertical accel
            // −∂²η/∂t² in phase with −cos, horizontal 90° out of phase.
            a[2] -= c.aw2 * cos;
            let h = c.aw2 * sin;
            a[0] += h * c.dir_cos;
            a[1] += h * c.dir_sin;
        }
        a
    }

    /// Root-mean-square vertical acceleration (m/s²), analytic:
    /// `√(Σ (Aω²)²/2)`.
    pub fn vertical_accel_rms(&self) -> f64 {
        (self
            .components
            .iter()
            .map(|c| c.aw2.powi(2) / 2.0)
            .sum::<f64>())
        .sqrt()
    }

    /// Samples the vertical acceleration at one point into a uniform series
    /// (`sample_rate` Hz, `n` samples, starting at `t0`).
    pub fn sample_vertical_accel(
        &self,
        position: Vec2,
        t0: f64,
        sample_rate: f64,
        n: usize,
    ) -> Vec<f64> {
        (0..n)
            .map(|i| self.acceleration(position, t0 + i as f64 / sample_rate)[2])
            .collect()
    }

    /// Batched [`SeaState::acceleration`]: `n` uniform samples spaced `dt`
    /// seconds apart starting at `t0`, at a fixed `position`.
    ///
    /// Instead of fresh `sin`/`cos` per component per sample — the
    /// O(samples × components) trigonometry that dominates long sweeps —
    /// each harmonic advances by one complex rotation per step
    /// (`φ ← φ − ω·dt` via the angle-sum recurrence), with the exact
    /// phase re-evaluated every [`PHASE_RESYNC_STEPS`] steps so rounding
    /// drift stays below ~1e-12 relative over arbitrarily long records
    /// (bounded by the resync interval, not the record length).
    pub fn acceleration_block(&self, position: Vec2, t0: f64, dt: f64, n: usize) -> Vec<[f64; 3]> {
        let mut out = vec![[0.0f64; 3]; n];
        self.accumulate_block(position, t0, dt, &mut out);
        out
    }

    /// As [`SeaState::acceleration_block`], accumulating into `out`
    /// (`out.len()` samples) without allocating.
    pub fn accumulate_block(&self, position: Vec2, t0: f64, dt: f64, out: &mut [[f64; 3]]) {
        let n = out.len();
        for c in &self.components {
            let (dir_sin, dir_cos, aw2) = (c.dir_sin, c.dir_cos, c.aw2);
            let (rot_sin, rot_cos) = (-c.omega * dt).sin_cos();
            let mut start = 0;
            while start < n {
                let end = (start + PHASE_RESYNC_STEPS).min(n);
                let phi = Self::component_phase(c, position, t0 + start as f64 * dt);
                let (mut sin, mut cos) = phi.sin_cos();
                for slot in &mut out[start..end] {
                    slot[2] -= aw2 * cos;
                    let h = aw2 * sin;
                    slot[0] += h * dir_cos;
                    slot[1] += h * dir_sin;
                    let next_sin = sin * rot_cos + cos * rot_sin;
                    cos = cos * rot_cos - sin * rot_sin;
                    sin = next_sin;
                }
                start = end;
            }
        }
    }
}

/// How many phase-recurrence steps run between exact `sin`/`cos`
/// re-evaluations in the block synthesis paths. Each resync caps the
/// accumulated rounding error of the rotation recurrence at roughly
/// `PHASE_RESYNC_STEPS × ε`, i.e. ~3e-14, independent of record length.
pub const PHASE_RESYNC_STEPS: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_sea(seed: u64) -> SeaState {
        let mut rng = StdRng::seed_from_u64(seed);
        SeaState::synthesize(WaveSpectrum::moderate_sea(), 200, &mut rng)
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let a = test_sea(42);
        let b = test_sea(42);
        assert_eq!(a, b);
        let c = test_sea(43);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "need at least one component")]
    fn zero_components_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        SeaState::synthesize(WaveSpectrum::moderate_sea(), 0, &mut rng);
    }

    #[test]
    fn elevation_variance_matches_spectrum() {
        // Time-average variance over a long record ≈ m₀ = (Hs/4)².
        let sea = test_sea(1);
        let hs = sea.spectrum().significant_wave_height();
        let m0 = (hs / 4.0).powi(2);
        let n = 60_000;
        let var: f64 = (0..n)
            .map(|i| sea.elevation(Vec2::ZERO, i as f64 * 0.1))
            .map(|e| e * e)
            .sum::<f64>()
            / n as f64;
        assert!(
            (var - m0).abs() / m0 < 0.25,
            "var {var} vs m0 {m0} (random-phase realisation)"
        );
    }

    #[test]
    fn acceleration_is_second_derivative_of_elevation() {
        let sea = test_sea(2);
        let p = Vec2::new(3.0, -2.0);
        let t = 17.3;
        let h = 1e-3;
        let num = (sea.elevation(p, t + h) - 2.0 * sea.elevation(p, t)
            + sea.elevation(p, t - h))
            / (h * h);
        let a = sea.acceleration(p, t)[2];
        assert!((num - a).abs() < 1e-2 * a.abs().max(1.0), "{num} vs {a}");
    }

    #[test]
    fn accel_rms_matches_analytic() {
        let sea = test_sea(3);
        let analytic = sea.vertical_accel_rms();
        let n = 40_000;
        let ms: f64 = (0..n)
            .map(|i| sea.acceleration(Vec2::ZERO, i as f64 * 0.07)[2].powi(2))
            .sum::<f64>()
            / n as f64;
        let empirical = ms.sqrt();
        assert!(
            (empirical - analytic).abs() / analytic < 0.1,
            "{empirical} vs {analytic}"
        );
    }

    #[test]
    fn nearby_points_are_correlated_far_points_less() {
        let sea = test_sea(4);
        let n = 4000;
        let series = |p: Vec2| -> Vec<f64> {
            (0..n).map(|i| sea.elevation(p, i as f64 * 0.1)).collect()
        };
        let a = series(Vec2::ZERO);
        let near = series(Vec2::new(2.0, 0.0));
        let far = series(Vec2::new(500.0, 400.0));
        let corr = |x: &[f64], y: &[f64]| -> f64 {
            let mx = x.iter().sum::<f64>() / x.len() as f64;
            let my = y.iter().sum::<f64>() / y.len() as f64;
            let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
            let vx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum();
            let vy: f64 = y.iter().map(|b| (b - my).powi(2)).sum();
            cov / (vx * vy).sqrt()
        };
        assert!(corr(&a, &near) > 0.8);
        assert!(corr(&a, &far).abs() < 0.3);
    }

    #[test]
    fn sample_vertical_accel_length_and_rate() {
        let sea = test_sea(5);
        let s = sea.sample_vertical_accel(Vec2::ZERO, 0.0, 50.0, 500);
        assert_eq!(s.len(), 500);
        // Direct evaluation agrees.
        let direct = sea.acceleration(Vec2::ZERO, 3.0 / 50.0)[2];
        assert_eq!(s[3], direct);
    }

    #[test]
    fn acceleration_block_tracks_pointwise_evaluation() {
        let sea = test_sea(7);
        let p = Vec2::new(12.0, -7.5);
        let (t0, dt, n) = (3.25, 0.02, 2000);
        let block = sea.acceleration_block(p, t0, dt, n);
        assert_eq!(block.len(), n);
        let scale = sea.vertical_accel_rms();
        for (i, b) in block.iter().enumerate() {
            let direct = sea.acceleration(p, t0 + i as f64 * dt);
            for axis in 0..3 {
                assert!(
                    (b[axis] - direct[axis]).abs() < 1e-10 * scale.max(1.0),
                    "axis {axis} sample {i}: {} vs {}",
                    b[axis],
                    direct[axis]
                );
            }
        }
    }

    #[test]
    fn vertical_block_matches_sample_vertical_accel() {
        let sea = test_sea(8);
        let p = Vec2::new(-3.0, 9.0);
        let a = sea.sample_vertical_accel(p, 1.0, 50.0, 700);
        let b = sea.acceleration_block(p, 1.0, 1.0 / 50.0, 700);
        assert_eq!(b.len(), a.len());
        let scale = sea.vertical_accel_rms();
        for (x, y) in a.iter().zip(b.iter().map(|s| s[2])) {
            assert!((x - y).abs() < 1e-10 * scale.max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn block_resync_bounds_drift_at_chunk_edges() {
        // The worst recurrence drift sits just before a resync boundary;
        // check those samples specifically.
        let sea = test_sea(9);
        let p = Vec2::ZERO;
        let dt = 0.02;
        let n = 4 * PHASE_RESYNC_STEPS;
        let block = sea.acceleration_block(p, 0.0, dt, n);
        let scale = sea.vertical_accel_rms();
        for k in 1..=4 {
            let i = k * PHASE_RESYNC_STEPS - 1;
            let direct = sea.acceleration(p, i as f64 * dt)[2];
            assert!(
                (block[i][2] - direct).abs() < 1e-10 * scale.max(1.0),
                "boundary sample {i}"
            );
        }
    }

    #[test]
    fn dominant_period_near_spectral_peak() {
        // Count mean zero-crossing period of elevation; should be near
        // 2π/ω_p (within a factor reflecting spectral width).
        let sea = test_sea(6);
        let wp = sea.spectrum().peak_omega();
        let dt = 0.05;
        let n = 120_000;
        let mut crossings = 0;
        let mut prev = sea.elevation(Vec2::ZERO, 0.0);
        for i in 1..n {
            let e = sea.elevation(Vec2::ZERO, i as f64 * dt);
            if prev <= 0.0 && e > 0.0 {
                crossings += 1;
            }
            prev = e;
        }
        let mean_period = (n as f64 * dt) / crossings as f64;
        let peak_period = std::f64::consts::TAU / wp;
        assert!(
            mean_period > 0.4 * peak_period && mean_period < 1.6 * peak_period,
            "mean {mean_period} vs peak {peak_period}"
        );
    }
}
