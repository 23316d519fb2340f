//! Ocean wave energy spectra: Pierson–Moskowitz and JONSWAP.
//!
//! These drive the ambient-sea synthesis that replaces the paper's real
//! ocean (see DESIGN.md §2). Both are standard one-dimensional frequency
//! spectra `S(ω)` in m²·s/rad; integrating over ω gives the elevation
//! variance `m₀`, and the significant wave height is `Hs = 4·√m₀`.

use serde::{Deserialize, Serialize};

use crate::units::GRAVITY;

/// A one-dimensional ocean wave spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum WaveSpectrum {
    /// Pierson–Moskowitz fully developed sea, parameterised by the wind
    /// speed at 19.5 m elevation (m/s).
    PiersonMoskowitz {
        /// Wind speed at 19.5 m above the surface, m/s.
        wind_speed: f64,
    },
    /// JONSWAP fetch-limited sea.
    Jonswap {
        /// Wind speed at 10 m elevation, m/s.
        wind_speed: f64,
        /// Fetch in metres.
        fetch: f64,
        /// Peak-enhancement factor γ (3.3 typical).
        gamma: f64,
    },
}

impl WaveSpectrum {
    /// A moderate coastal sea: PM at 8 m/s wind (≈ sea state 3–4) — the
    /// kind of conditions the paper's experiments ran in.
    pub fn moderate_sea() -> Self {
        WaveSpectrum::PiersonMoskowitz { wind_speed: 8.0 }
    }

    /// A calm sea: PM at 4 m/s wind.
    pub fn calm_sea() -> Self {
        WaveSpectrum::PiersonMoskowitz { wind_speed: 4.0 }
    }

    /// Sheltered near-coast water: fetch-limited JONSWAP chop whose peak
    /// sits above 1 Hz, leaving the sub-1 Hz band (where ship waves live
    /// and the SID detector listens) quiet — the conditions of the paper's
    /// harbor experiments.
    pub fn sheltered_harbor() -> Self {
        WaveSpectrum::Jonswap {
            wind_speed: 5.0,
            fetch: 150.0,
            gamma: 3.3,
        }
    }

    /// Spectral density S(ω) in m²·s/rad at angular frequency `omega`
    /// (rad/s). Returns 0 for non-positive `omega`.
    pub fn density(&self, omega: f64) -> f64 {
        self.curve().density(omega)
    }

    /// The spectrum with its ω-independent constants evaluated once, for
    /// callers that sample many frequencies.
    pub(crate) fn curve(&self) -> DensityCurve {
        match *self {
            WaveSpectrum::PiersonMoskowitz { wind_speed } => DensityCurve::PiersonMoskowitz {
                omega0: GRAVITY / wind_speed.max(1e-6),
            },
            WaveSpectrum::Jonswap {
                wind_speed,
                fetch,
                gamma,
            } => {
                let u = wind_speed.max(1e-6);
                let x = fetch.max(1.0);
                // Dimensionless fetch and standard JONSWAP parameters.
                let x_tilde = GRAVITY * x / (u * u);
                DensityCurve::Jonswap {
                    alpha: 0.076 * x_tilde.powf(-0.22),
                    omega_p: 22.0 * (GRAVITY * GRAVITY / (u * x)).powf(1.0 / 3.0),
                    gamma,
                }
            }
        }
    }

    /// Peak angular frequency ω_p (rad/s).
    pub fn peak_omega(&self) -> f64 {
        match *self {
            WaveSpectrum::PiersonMoskowitz { wind_speed } => {
                // dS/dω = 0 → ω_p = (4β/5)^(1/4)·g/U
                (4.0 * 0.74 / 5.0f64).powf(0.25) * GRAVITY / wind_speed.max(1e-6)
            }
            WaveSpectrum::Jonswap {
                wind_speed, fetch, ..
            } => {
                let u = wind_speed.max(1e-6);
                22.0 * (GRAVITY * GRAVITY / (u * fetch.max(1.0))).powf(1.0 / 3.0)
            }
        }
    }

    /// Zeroth spectral moment `m₀ = ∫S(ω)dω` by trapezoidal quadrature over
    /// `[lo, hi]` rad/s with `steps` intervals.
    ///
    /// # Panics
    ///
    /// Panics if the band is empty or `steps == 0`.
    pub fn moment0(&self, lo: f64, hi: f64, steps: usize) -> f64 {
        assert!(hi > lo && lo >= 0.0, "need 0 <= lo < hi");
        assert!(steps > 0, "need at least one step");
        let dw = (hi - lo) / steps as f64;
        let curve = self.curve();
        let mut sum = 0.0;
        for i in 0..=steps {
            let w = lo + i as f64 * dw;
            let weight = if i == 0 || i == steps { 0.5 } else { 1.0 };
            sum += weight * curve.density(w);
        }
        sum * dw
    }

    /// Significant wave height `Hs = 4√m₀` in metres, integrating the
    /// spectrum over a generous band around its peak.
    pub fn significant_wave_height(&self) -> f64 {
        let wp = self.peak_omega();
        4.0 * self.moment0(wp * 0.2, wp * 8.0, 4000).sqrt()
    }
}

/// A [`WaveSpectrum`] with its frequency-independent constants
/// precomputed: [`WaveSpectrum::density`] without re-evaluating them
/// (two `powf` per JONSWAP call) at every frequency.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DensityCurve {
    PiersonMoskowitz {
        /// `g/U`.
        omega0: f64,
    },
    Jonswap {
        /// Phillips constant `0.076·x̃^−0.22`.
        alpha: f64,
        /// Peak angular frequency (rad/s).
        omega_p: f64,
        /// Peak-enhancement factor γ.
        gamma: f64,
    },
}

impl DensityCurve {
    /// S(ω) in m²·s/rad; 0 for non-positive `omega`.
    pub(crate) fn density(&self, omega: f64) -> f64 {
        if omega <= 0.0 {
            return 0.0;
        }
        match *self {
            DensityCurve::PiersonMoskowitz { omega0 } => {
                let alpha = 8.1e-3;
                let beta = 0.74;
                alpha * GRAVITY * GRAVITY / omega.powi(5)
                    * (-beta * (omega0 / omega).powi(4)).exp()
            }
            DensityCurve::Jonswap {
                alpha,
                omega_p,
                gamma,
            } => {
                let sigma = if omega <= omega_p { 0.07 } else { 0.09 };
                let r = (-(omega - omega_p).powi(2)
                    / (2.0 * sigma * sigma * omega_p * omega_p))
                    .exp();
                alpha * GRAVITY * GRAVITY / omega.powi(5)
                    * (-1.25 * (omega_p / omega).powi(4)).exp()
                    * gamma.powf(r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_zero_below_zero_frequency() {
        let s = WaveSpectrum::moderate_sea();
        assert_eq!(s.density(0.0), 0.0);
        assert_eq!(s.density(-1.0), 0.0);
    }

    #[test]
    fn pm_peak_location_matches_analytic() {
        let s = WaveSpectrum::PiersonMoskowitz { wind_speed: 10.0 };
        let wp = s.peak_omega();
        // Numerically confirm the analytic peak: density lower on both sides.
        assert!(s.density(wp) > s.density(wp * 0.9));
        assert!(s.density(wp) > s.density(wp * 1.1));
        // ω_p ≈ 0.877·g/U
        assert!((wp - 0.8777 * GRAVITY / 10.0).abs() / wp < 1e-3);
    }

    #[test]
    fn pm_hs_grows_with_wind() {
        let calm = WaveSpectrum::PiersonMoskowitz { wind_speed: 5.0 };
        let rough = WaveSpectrum::PiersonMoskowitz { wind_speed: 15.0 };
        assert!(rough.significant_wave_height() > 4.0 * calm.significant_wave_height());
    }

    #[test]
    fn pm_hs_matches_textbook_relation() {
        // For PM, Hs ≈ 0.21·U²/g.
        for &u in &[6.0, 8.0, 12.0] {
            let s = WaveSpectrum::PiersonMoskowitz { wind_speed: u };
            let hs = s.significant_wave_height();
            let expected = 0.21 * u * u / GRAVITY;
            assert!((hs - expected).abs() / expected < 0.05, "U={u}: {hs} vs {expected}");
        }
    }

    #[test]
    fn jonswap_peakier_than_pm() {
        let u = 10.0;
        let j = WaveSpectrum::Jonswap {
            wind_speed: u,
            fetch: 50_000.0,
            gamma: 3.3,
        };
        let wp = j.peak_omega();
        // γ>1 sharpens the peak: density at ω_p is at least ~γ/2 times the
        // same spectrum with γ=1.
        let j1 = WaveSpectrum::Jonswap {
            wind_speed: u,
            fetch: 50_000.0,
            gamma: 1.0,
        };
        assert!(j.density(wp) > 2.0 * j1.density(wp));
    }

    #[test]
    fn jonswap_peak_moves_down_with_fetch() {
        let short = WaveSpectrum::Jonswap {
            wind_speed: 10.0,
            fetch: 5_000.0,
            gamma: 3.3,
        };
        let long = WaveSpectrum::Jonswap {
            wind_speed: 10.0,
            fetch: 200_000.0,
            gamma: 3.3,
        };
        assert!(long.peak_omega() < short.peak_omega());
    }

    #[test]
    fn moment0_converges() {
        let s = WaveSpectrum::moderate_sea();
        let wp = s.peak_omega();
        let coarse = s.moment0(wp * 0.2, wp * 8.0, 500);
        let fine = s.moment0(wp * 0.2, wp * 8.0, 8000);
        assert!((coarse - fine).abs() / fine < 1e-3);
    }

    #[test]
    #[should_panic(expected = "need 0 <= lo < hi")]
    fn moment0_rejects_empty_band() {
        WaveSpectrum::moderate_sea().moment0(2.0, 1.0, 10);
    }

    #[test]
    fn moderate_sea_is_reasonable() {
        // ~0.5–2 m significant height: buoys bob but detection is feasible.
        let hs = WaveSpectrum::moderate_sea().significant_wave_height();
        assert!(hs > 0.5 && hs < 2.5, "Hs = {hs}");
    }
}
