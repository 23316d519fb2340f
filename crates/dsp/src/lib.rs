//! # sid-dsp
//!
//! From-scratch digital signal processing substrate for the SID
//! reproduction (*SID: Ship Intrusion Detection with Wireless Sensor
//! Networks*, ICDCS 2011).
//!
//! The paper's detection pipeline needs: a short-time Fourier transform to
//! compare ocean vs. ship spectra (its Fig. 6), a Morlet continuous wavelet
//! transform to localise ship energy in time–frequency (Fig. 7), a < 1 Hz
//! low-pass filter in front of the node-level detector (Fig. 8), and
//! moving mean/standard-deviation statistics for the adaptive threshold
//! (eq. 4–5). The reproduction environment has no suitable DSP dependency
//! ("DSP ecosystem thin"), so everything here is implemented and tested
//! from first principles:
//!
//! * [`Complex`] — minimal complex arithmetic.
//! * [`Fft`] / [`fft_real`] — iterative radix-2 Cooley–Tukey FFT.
//! * [`Window`] — Hann/Hamming/Blackman tapers.
//! * [`Stft`] — framed power spectra (the paper's 2048-point, 40.96 s
//!   windows at 50 Hz).
//! * [`find_peaks`] / [`spectral_features`] — the single-peak vs.
//!   multi-peak discrimination features.
//! * [`Morlet`] — continuous wavelet transform and [`Scalogram`].
//! * [`LowPassFir`] / [`butterworth_lowpass`] — offline zero-phase and
//!   online causal low-pass filters.
//! * [`RunningStats`] / [`EwmaStats`] — Welford block statistics and the
//!   paper's β = 0.99 exponentially weighted threshold state.
//!
//! # Examples
//!
//! Distinguish a narrowband swell from a broadband ship-wave mixture by
//! peak count, as the paper does visually in Fig. 6:
//!
//! ```
//! use sid_dsp::{PeakConfig, Stft, StftConfig, Window, spectral_features};
//!
//! let cfg = StftConfig { frame_len: 512, hop: 512, window: Window::Hann, sample_rate: 50.0 };
//! let stft = Stft::new(cfg)?;
//! let fs = 50.0;
//! let swell: Vec<f64> = (0..512)
//!     .map(|i| (2.0 * std::f64::consts::PI * 0.4 * i as f64 / fs).sin())
//!     .collect();
//! let frame = &stft.analyze(&swell)?[0];
//! let features = spectral_features(&frame.power, frame.bin_hz, &PeakConfig::default());
//! assert_eq!(features.peak_count, 1);
//! # Ok::<(), sid_dsp::DspError>(())
//! ```

// `!(x > 0.0)`-style validation is used deliberately throughout: unlike
// `x <= 0.0`, the negated comparison also rejects NaN inputs.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod complex;
mod error;
pub mod fft;
pub mod filter;
pub mod hilbert;
pub mod period;
pub mod resample;
pub mod rfft;
pub mod spectrum;
pub mod stats;
pub mod stft;
pub mod wavelet;
pub mod window;

pub use complex::Complex;
pub use error::{DspError, DspResult};
pub use fft::{bin_frequency, fft_plan, fft_real, fft_real_into, Fft};
pub use hilbert::{hilbert_envelope, hilbert_envelope_into};
pub use filter::{
    butterworth_lowpass, butterworth_lowpass_order4, Biquad, BiquadCascade, LowPassFir,
};
pub use period::{autocorrelation, dominant_period};
pub use resample::{decimate, detrend_mean, rectify, remove_bias, sample_at};
pub use rfft::{rfft_plan, RealFft};
pub use spectrum::{find_peaks, spectral_features, Peak, PeakConfig, SpectralFeatures};
pub use stats::{EwmaStats, RunningStats};
pub use stft::{SlidingStft, SpectralFrame, Stft, StftConfig};
pub use wavelet::{low_band_fraction, Morlet, MorletConfig, Scalogram};
pub use window::Window;
