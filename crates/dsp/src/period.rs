//! Dominant-period estimation from the biased autocorrelation.
//!
//! The period of the strongest wave at a buoy is what links the wake to
//! the ship: transverse waves travel at the ship's speed `U`, so their
//! period `T` gives `U = gT/2π`.

use crate::error::{DspError, DspResult};

/// Biased autocorrelation `r[lag] = (1/N)·Σ x[i]·x[i+lag]` for lags
/// `0..=max_lag`.
///
/// # Errors
///
/// * [`DspError::EmptyInput`] for an empty signal.
/// * [`DspError::InvalidParameter`] if `max_lag >= signal.len()`.
pub fn autocorrelation(signal: &[f64], max_lag: usize) -> DspResult<Vec<f64>> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if max_lag >= signal.len() {
        return Err(DspError::InvalidParameter {
            name: "max_lag",
            reason: "must be shorter than the signal",
        });
    }
    let n = signal.len();
    Ok((0..=max_lag)
        .map(|lag| {
            signal[..n - lag]
                .iter()
                .zip(&signal[lag..])
                .map(|(a, b)| a * b)
                .sum::<f64>()
                / n as f64
        })
        .collect())
}

/// Estimates the dominant period (in samples) of `signal` from the first
/// non-trivial autocorrelation peak, searching lags in
/// `[min_lag, max_lag]`. Returns `None` when no interior peak exists
/// (e.g. white noise or a monotone trend).
///
/// # Errors
///
/// Propagates [`autocorrelation`]'s errors; additionally rejects
/// `min_lag == 0` or an empty search range.
pub fn dominant_period(
    signal: &[f64],
    min_lag: usize,
    max_lag: usize,
) -> DspResult<Option<usize>> {
    if min_lag == 0 || max_lag < min_lag {
        return Err(DspError::InvalidParameter {
            name: "min_lag",
            reason: "need 0 < min_lag <= max_lag",
        });
    }
    let r = autocorrelation(signal, max_lag)?;
    let mut best: Option<(usize, f64)> = None;
    for lag in min_lag..=max_lag {
        let v = r[lag];
        let left = r[lag - 1];
        let right = if lag < max_lag { r[lag + 1] } else { f64::MIN };
        if v > 0.0 && v >= left && v > right
            && best.map(|(_, b)| v > b).unwrap_or(true) {
                best = Some((lag, v));
            }
    }
    Ok(best.map(|(lag, _)| lag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| (TAU * freq * i as f64 / fs).sin()).collect()
    }

    #[test]
    fn autocorrelation_zero_lag_is_power() {
        let sig = vec![1.0, -2.0, 3.0];
        let r = autocorrelation(&sig, 2).unwrap();
        assert!((r[0] - (1.0 + 4.0 + 9.0) / 3.0).abs() < 1e-12);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn autocorrelation_validates() {
        assert!(autocorrelation(&[], 0).is_err());
        assert!(autocorrelation(&[1.0, 2.0], 2).is_err());
    }

    #[test]
    fn dominant_period_finds_the_tone() {
        let fs = 50.0;
        let f0 = 2.0; // period = 25 samples
        let sig = tone(f0, fs, 1000);
        let lag = dominant_period(&sig, 5, 100).unwrap().expect("peak");
        assert_eq!(lag, 25);
    }

    #[test]
    fn dominant_period_of_noise_like_input_is_unstable_or_none() {
        // A strictly decreasing sequence has no interior positive ACF peak.
        let sig: Vec<f64> = (0..100).map(|i| 1.0 / (i + 1) as f64).collect();
        let got = dominant_period(&sig, 2, 40).unwrap();
        assert!(got.is_none(), "got {got:?}");
    }

    #[test]
    fn dominant_period_validates() {
        assert!(dominant_period(&[1.0; 10], 0, 5).is_err());
        assert!(dominant_period(&[1.0; 10], 6, 5).is_err());
    }
}
