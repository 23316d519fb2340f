//! Spectral ship/ocean discrimination (paper Section III-C, Fig. 6–7).
//!
//! The paper's observation: the ocean-only spectrum shows "a high, single
//! peak concentration" while ship-disturbed windows show "multiple peaks
//! and wide crests without distinct peaks", and the Morlet scalogram
//! concentrates ship energy at low frequency. [`SpectralClassifier`] turns
//! those observations into a decision: STFT peak structure as the primary
//! feature, wavelet low-band fraction as corroboration.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use sid_dsp::{
    detrend_mean, low_band_fraction, rfft_plan, spectral_features, Complex, DspResult, Morlet,
    MorletConfig, PeakConfig, RealFft, SpectralFeatures, SpectralFrame, Stft, StftConfig,
};

/// Classification verdict for one analysis window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SignalClass {
    /// Ambient ocean waves only.
    OceanOnly,
    /// Ship-generated waves are present.
    ShipPresent,
}

/// Classifier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// STFT framing (the paper's 2048-point, 50 Hz default).
    pub stft: StftConfig,
    /// Peak extraction parameters.
    pub peaks: PeakConfig,
    /// A window is ship-like when it has at least this many significant
    /// peaks…
    pub min_ship_peaks: usize,
    /// …or when the single-peak concentration falls below this value.
    pub max_ocean_concentration: f64,
    /// Wavelet analysis band (Hz): low edge.
    pub wavelet_lo_hz: f64,
    /// Wavelet analysis band (Hz): high edge.
    pub wavelet_hi_hz: f64,
    /// Number of log-spaced wavelet scales.
    pub wavelet_scales: usize,
    /// Moving-average width (bins) applied to the power spectrum before
    /// peak extraction. A stochastic sea realisation has a ragged peak;
    /// smoothing keeps its ripples from counting as separate peaks.
    pub smoothing_bins: usize,
    /// Upper edge (Hz) of the analysed band. Swell and ship waves both
    /// live below ~1 Hz (the paper's Fig. 6 plots 0–5 Hz with all
    /// structure below 1 Hz); peaks above this are wind chop and are not
    /// counted.
    pub analysis_band_hz: f64,
}

impl ClassifierConfig {
    /// The paper's analysis parameters.
    pub fn paper_default() -> Self {
        ClassifierConfig {
            stft: StftConfig::paper_default(),
            peaks: PeakConfig::default(),
            min_ship_peaks: 2,
            max_ocean_concentration: 0.55,
            wavelet_lo_hz: 0.05,
            wavelet_hi_hz: 5.0,
            wavelet_scales: 16,
            smoothing_bins: 5,
            analysis_band_hz: 1.5,
        }
    }
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Features and verdict for one window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Classification {
    /// The verdict.
    pub class: SignalClass,
    /// STFT features of the window.
    pub features: SpectralFeatures,
    /// Fraction of wavelet power below 1 Hz (Fig. 7's observable).
    pub low_frequency_fraction: f64,
}

/// Windowed ship/ocean classifier.
///
/// # Examples
///
/// ```
/// use sid_core::{ClassifierConfig, SignalClass, SpectralClassifier};
/// use sid_dsp::{StftConfig, Window};
///
/// let cfg = ClassifierConfig {
///     stft: StftConfig { frame_len: 512, hop: 512, window: Window::Hann, sample_rate: 50.0 },
///     ..ClassifierConfig::paper_default()
/// };
/// let clf = SpectralClassifier::new(cfg)?;
/// // A single narrowband swell: classified as ocean.
/// let swell: Vec<f64> = (0..512)
///     .map(|i| 60.0 * (2.0 * std::f64::consts::PI * 0.17 * i as f64 / 50.0).sin())
///     .collect();
/// let out = clf.classify_window(&swell)?;
/// assert_eq!(out.class, SignalClass::OceanOnly);
/// # Ok::<(), sid_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpectralClassifier {
    config: ClassifierConfig,
    stft: Stft,
    morlet: Morlet,
    wavelet_freqs: Vec<f64>,
    /// Real-input plan for the fast wavelet path, sized for one STFT
    /// frame (windows longer than a frame fetch a padded plan from the
    /// process cache on demand).
    rfft: Arc<RealFft>,
}

impl SpectralClassifier {
    /// Builds the classifier.
    ///
    /// # Errors
    ///
    /// Returns a [`sid_dsp::DspError`] if the STFT or wavelet
    /// configuration is invalid.
    pub fn new(config: ClassifierConfig) -> DspResult<Self> {
        let stft = Stft::new(config.stft)?;
        let morlet = Morlet::new(MorletConfig::new(config.stft.sample_rate))?;
        let wavelet_freqs = Morlet::log_frequencies(
            config.wavelet_lo_hz,
            config.wavelet_hi_hz,
            config.wavelet_scales,
        );
        let rfft = rfft_plan(config.stft.frame_len)?;
        Ok(SpectralClassifier {
            config,
            stft,
            morlet,
            wavelet_freqs,
            rfft,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &ClassifierConfig {
        &self.config
    }

    /// Classifies one window of z-axis counts (raw; the mean is removed
    /// internally). The window must be at least one STFT frame long.
    ///
    /// # Errors
    ///
    /// Returns [`sid_dsp::DspError::LengthMismatch`] if the window is
    /// shorter than one STFT frame.
    pub fn classify_window(&self, z_counts: &[f64]) -> DspResult<Classification> {
        self.classify_with(z_counts, |centred| {
            let mut scratch = Vec::new();
            let frame = self.stft.analyze_frame_into(centred, 0, &mut scratch)?;
            let low_frequency_fraction = self.fast_low_frequency_fraction(centred, &mut scratch)?;
            Ok((frame, low_frequency_fraction))
        })
    }

    /// The reference route for [`Self::classify_window`]: the full
    /// complex-FFT STFT ([`Stft::analyze_frame_legacy_into`]) and the
    /// time-domain Morlet convolution ([`Morlet::scalogram`]). Several
    /// hundred times slower; it exists so tests, the DST front-end oracle
    /// and `dsp_bench` can diff the fast path against it. Discrete
    /// features agree exactly in practice and `low_frequency_fraction`
    /// within 0.05.
    ///
    /// # Errors
    ///
    /// Same as [`Self::classify_window`].
    pub fn classify_window_reference(&self, z_counts: &[f64]) -> DspResult<Classification> {
        self.classify_with(z_counts, |centred| {
            let frame = self
                .stft
                .analyze_frame_legacy_into(centred, 0, &mut Vec::new())?;
            let scalogram = self.morlet.scalogram(centred, &self.wavelet_freqs)?;
            Ok((frame, scalogram.low_frequency_fraction(1.0)))
        })
    }

    /// Shared body of both routes: length check, mean removal, then peak
    /// features and the verdict from whatever frame and wavelet fraction
    /// `front_end` computes on the centred window.
    fn classify_with(
        &self,
        z_counts: &[f64],
        front_end: impl FnOnce(&[f64]) -> DspResult<(SpectralFrame, f64)>,
    ) -> DspResult<Classification> {
        let frame_len = self.config.stft.frame_len;
        if z_counts.len() < frame_len {
            return Err(sid_dsp::DspError::LengthMismatch {
                expected: frame_len,
                actual: z_counts.len(),
            });
        }
        let (frame, low_frequency_fraction) = front_end(&detrend_mean(z_counts))?;
        let band_bins = ((self.config.analysis_band_hz / frame.bin_hz).ceil() as usize)
            .clamp(1, frame.power.len());
        let smoothed = smooth(&frame.power[..band_bins], self.config.smoothing_bins);
        let features = spectral_features(&smoothed, frame.bin_hz, &self.config.peaks);
        let ship_like = features.peak_count >= self.config.min_ship_peaks
            || features.peak_concentration < self.config.max_ocean_concentration;
        Ok(Classification {
            class: if ship_like {
                SignalClass::ShipPresent
            } else {
                SignalClass::OceanOnly
            },
            features,
            low_frequency_fraction,
        })
    }

    /// Fig. 7's low-band power fraction via the frequency-domain wavelet
    /// path: one real-input FFT of the (zero-padded) window plus a
    /// Parseval fold per scale, replacing sixteen time-domain
    /// convolutions. See [`Morlet::spectral_band_energies`] for the
    /// documented tolerance against the convolution route.
    fn fast_low_frequency_fraction(
        &self,
        centred: &[f64],
        scratch: &mut Vec<Complex>,
    ) -> DspResult<f64> {
        let n = centred.len().next_power_of_two();
        let plan = if n == self.rfft.len() {
            Arc::clone(&self.rfft)
        } else {
            rfft_plan(n)?
        };
        let energies = if n == centred.len() {
            plan.forward_into(centred, scratch)?;
            self.morlet
                .spectral_band_energies(scratch, n, &self.wavelet_freqs)?
        } else {
            let mut padded = centred.to_vec();
            padded.resize(n, 0.0);
            plan.forward_into(&padded, scratch)?;
            self.morlet
                .spectral_band_energies(scratch, n, &self.wavelet_freqs)?
        };
        Ok(low_band_fraction(&self.wavelet_freqs, &energies, 1.0))
    }

    /// [`Self::classify_window`] plus a journal entry: when `obs` is
    /// enabled, the verdict and its load-bearing features are recorded as
    /// an [`Event::ClassifierVerdict`](sid_obs::Event::ClassifierVerdict)
    /// stamped with the caller's `time` and `node`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::classify_window`].
    pub fn classify_window_recorded(
        &self,
        z_counts: &[f64],
        time: f64,
        node: u32,
        obs: &sid_obs::Obs,
    ) -> DspResult<Classification> {
        let out = self.classify_window(z_counts)?;
        if obs.enabled() {
            obs.record(sid_obs::Event::ClassifierVerdict {
                time,
                node,
                ship: out.class == SignalClass::ShipPresent,
                peak_count: out.features.peak_count as u64,
                peak_concentration: out.features.peak_concentration,
                low_frequency_fraction: out.low_frequency_fraction,
            });
        }
        Ok(out)
    }
}

/// Result of a reference-based classification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairClassification {
    /// The verdict.
    pub class: SignalClass,
    /// Ship-band power of the test window over the reference window.
    pub band_rise: f64,
    /// Ship band analysed, Hz.
    pub band: (f64, f64),
}

impl SpectralClassifier {
    /// Classifies a test window against a quiet reference window from the
    /// same node: ship waves raise the power in the divergent-wave band
    /// (≈ 0.2–0.8 Hz for 8–20 kn ships, via `ω = g/(V·cos 35°)`) well
    /// above the ambient level.
    ///
    /// This is the deployment-shaped variant of [`Self::classify_window`]:
    /// a single stochastic-sea periodogram is too noisy for absolute peak
    /// counting, but every node has abundant quiet history to reference
    /// (the same observation behind the paper's adaptive threshold).
    ///
    /// # Errors
    ///
    /// Returns [`sid_dsp::DspError::LengthMismatch`] if either window is
    /// shorter than one STFT frame.
    pub fn classify_against_reference(
        &self,
        reference: &[f64],
        test: &[f64],
    ) -> DspResult<PairClassification> {
        let band = (0.2, 0.8);
        let band_power = |sig: &[f64]| -> DspResult<f64> {
            let frame = self
                .stft
                .analyze_frame_into(&detrend_mean(sig), 0, &mut Vec::new())?;
            Ok(frame.band_power(band.0, band.1))
        };
        let p_ref = band_power(reference)?;
        let p_test = band_power(test)?;
        // Two silent windows (e.g. a stuck accelerometer, which detrends
        // to exact zeros) show no rise; only a zero reference under a
        // live test window is an unbounded one.
        let band_rise = if p_ref > 0.0 {
            p_test / p_ref
        } else if p_test > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        Ok(PairClassification {
            class: if band_rise > 3.0 {
                SignalClass::ShipPresent
            } else {
                SignalClass::OceanOnly
            },
            band_rise,
            band,
        })
    }
}

/// Centered moving average of width `bins` (forced odd, min 1), with
/// shrinking windows at the edges.
fn smooth(power: &[f64], bins: usize) -> Vec<f64> {
    let half = bins.max(1) / 2;
    if half == 0 {
        return power.to_vec();
    }
    (0..power.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half).min(power.len() - 1);
            power[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sid_dsp::Window;
    use std::f64::consts::PI;

    fn test_config() -> ClassifierConfig {
        ClassifierConfig {
            stft: StftConfig {
                frame_len: 1024,
                hop: 1024,
                window: Window::Hann,
                sample_rate: 50.0,
            },
            wavelet_scales: 10,
            // Half the paper's frame length ⇒ half the smoothing width to
            // keep the same Hz-domain averaging.
            smoothing_bins: 3,
            ..ClassifierConfig::paper_default()
        }
    }

    fn swell(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / 50.0;
                60.0 * (2.0 * PI * 0.17 * t).sin()
            })
            .collect()
    }

    fn swell_plus_ship(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / 50.0;
                let env = (-0.5 * ((t - 10.0) / 3.0f64).powi(2)).exp();
                60.0 * (2.0 * PI * 0.17 * t).sin()
                    + 55.0 * env * (2.0 * PI * 0.38 * t).sin()
            })
            .collect()
    }

    #[test]
    fn smoothing_widths_behave() {
        let p = vec![0.0, 0.0, 9.0, 0.0, 0.0];
        assert_eq!(smooth(&p, 1), p);
        let s = smooth(&p, 3);
        assert_eq!(s, vec![0.0, 3.0, 3.0, 3.0, 0.0]);
        // Edge windows shrink instead of zero-padding.
        let s = smooth(&[6.0, 0.0, 0.0], 3);
        assert_eq!(s[0], 3.0);
    }

    #[test]
    fn stochastic_swell_is_not_misread_as_ship() {
        // A random-phase multi-component swell (no ship) must classify as
        // ocean despite its ragged single peak.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let fs = 50.0;
        let sig: Vec<f64> = {
            // 30 components clustered around 0.17 Hz.
            let comps: Vec<(f64, f64, f64)> = (0..30)
                .map(|_| {
                    let f = 0.17 + rng.gen_range(-0.05..0.05);
                    let a = rng.gen_range(5.0..20.0);
                    let ph = rng.gen_range(0.0..std::f64::consts::TAU);
                    (f, a, ph)
                })
                .collect();
            (0..1024)
                .map(|i| {
                    let t = i as f64 / fs;
                    comps
                        .iter()
                        .map(|(f, a, ph)| a * (std::f64::consts::TAU * f * t + ph).sin())
                        .sum()
                })
                .collect()
        };
        let clf = SpectralClassifier::new(test_config()).unwrap();
        let out = clf.classify_window(&sig).unwrap();
        assert_eq!(out.class, SignalClass::OceanOnly, "{:?}", out.features);
    }

    #[test]
    fn ocean_window_is_single_peak() {
        let clf = SpectralClassifier::new(test_config()).unwrap();
        let out = clf.classify_window(&swell(1024)).unwrap();
        assert_eq!(out.class, SignalClass::OceanOnly);
        assert_eq!(out.features.peak_count, 1);
        assert!(out.features.peak_concentration > 0.9);
    }

    #[test]
    fn ship_window_is_multi_peak() {
        let clf = SpectralClassifier::new(test_config()).unwrap();
        let out = clf.classify_window(&swell_plus_ship(1024)).unwrap();
        assert_eq!(out.class, SignalClass::ShipPresent);
        assert!(out.features.peak_count >= 2);
    }

    #[test]
    fn dc_offset_does_not_matter() {
        // Raw counts around 1024 classify identically to centred counts.
        let clf = SpectralClassifier::new(test_config()).unwrap();
        let centred = swell(1024);
        let raw: Vec<f64> = centred.iter().map(|&v| v + 1024.0).collect();
        let a = clf.classify_window(&centred).unwrap();
        let b = clf.classify_window(&raw).unwrap();
        assert_eq!(a.class, b.class);
        assert_eq!(a.features.peak_count, b.features.peak_count);
    }

    #[test]
    fn short_window_is_rejected() {
        let clf = SpectralClassifier::new(test_config()).unwrap();
        assert!(clf.classify_window(&swell(512)).is_err());
    }

    #[test]
    fn ship_energy_is_low_frequency() {
        // Fig. 7's observation: both swell and ship waves live below 1 Hz;
        // the ship window should not move energy above 1 Hz.
        let clf = SpectralClassifier::new(test_config()).unwrap();
        let out = clf.classify_window(&swell_plus_ship(1024)).unwrap();
        assert!(out.low_frequency_fraction > 0.8, "{}", out.low_frequency_fraction);
    }

    #[test]
    fn reference_classifier_detects_band_rise() {
        let clf = SpectralClassifier::new(test_config()).unwrap();
        let quiet = swell(1024);
        let ship = swell_plus_ship(1024);
        let qq = clf.classify_against_reference(&quiet, &quiet).unwrap();
        assert_eq!(qq.class, SignalClass::OceanOnly);
        assert!((qq.band_rise - 1.0).abs() < 0.2);
        let qs = clf.classify_against_reference(&quiet, &ship).unwrap();
        assert_eq!(qs.class, SignalClass::ShipPresent);
        assert!(qs.band_rise > 3.0);
        // Short windows are rejected.
        assert!(clf.classify_against_reference(&quiet[..100], &ship).is_err());
    }

    #[test]
    fn silent_window_pairs_show_no_band_rise() {
        let clf = SpectralClassifier::new(test_config()).unwrap();
        // All-zero and stuck-at-1024 windows detrend to exact zeros: no
        // band power on either side is no rise, not an infinite one.
        let zeros = vec![0.0; 1024];
        let stuck = vec![1024.0; 1024];
        for (reference, test) in [(&zeros, &zeros), (&stuck, &stuck), (&zeros, &stuck)] {
            let pair = clf.classify_against_reference(reference, test).unwrap();
            assert_eq!(pair.class, SignalClass::OceanOnly);
            assert_eq!(pair.band_rise, 1.0);
        }
        // A silent reference under a live test window stays unbounded.
        let live = clf
            .classify_against_reference(&stuck, &swell_plus_ship(1024))
            .unwrap();
        assert_eq!(live.class, SignalClass::ShipPresent);
        assert_eq!(live.band_rise, f64::INFINITY);
    }

    #[test]
    fn fast_and_reference_routes_agree() {
        let clf = SpectralClassifier::new(test_config()).unwrap();
        for sig in [swell(1024), swell_plus_ship(1024)] {
            let a = clf.classify_window(&sig).unwrap();
            let b = clf.classify_window_reference(&sig).unwrap();
            // Discrete features: identical. The 1e-14-relative STFT drift
            // cannot move a peak count or concentration materially.
            assert_eq!(a.class, b.class);
            assert_eq!(a.features.peak_count, b.features.peak_count);
            assert!((a.features.peak_concentration - b.features.peak_concentration).abs() < 1e-9);
            // Wavelet fraction: documented tolerance of the Parseval path.
            assert!(
                (a.low_frequency_fraction - b.low_frequency_fraction).abs() < 0.05,
                "lff fast {} vs reference {}",
                a.low_frequency_fraction,
                b.low_frequency_fraction
            );
        }
        assert!(clf.classify_window_reference(&swell(512)).is_err());
    }

    #[test]
    fn configs_serialized_with_a_front_end_key_still_load() {
        let plain = serde_json::to_string(&ClassifierConfig::paper_default()).unwrap();
        let expected: ClassifierConfig = serde_json::from_str(&plain).unwrap();
        assert_eq!(expected, ClassifierConfig::paper_default());
        // Configs written while the classifier had a front-end switch
        // carry a `front_end` key; it is ignored.
        for value in ["Legacy", "Fast"] {
            let old = plain.replacen('{', &format!("{{\"front_end\":\"{value}\","), 1);
            assert!(old.contains("front_end"), "{old}");
            let loaded: ClassifierConfig = serde_json::from_str(&old).unwrap();
            assert_eq!(loaded, expected, "front_end = {value}");
        }
    }

    #[test]
    fn high_frequency_chop_is_not_ship_low_band() {
        // 3 Hz chop: wavelet low-band fraction drops.
        let clf = SpectralClassifier::new(test_config()).unwrap();
        let chop: Vec<f64> = (0..1024)
            .map(|i| 40.0 * (2.0 * PI * 3.0 * i as f64 / 50.0).sin())
            .collect();
        let out = clf.classify_window(&chop).unwrap();
        assert!(out.low_frequency_fraction < 0.4, "{}", out.low_frequency_fraction);
    }
}
