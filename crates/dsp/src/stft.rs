//! Short-time Fourier transform (the paper's Section III-C.1).
//!
//! The paper segments the 50 Hz accelerometer stream into 2048-sample
//! (40.96 s) frames and compares the per-frame power spectra of ocean-only
//! and ship-disturbed signal. [`Stft`] reproduces that pipeline: framing,
//! windowing, FFT, and one-sided power spectrum per frame.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::complex::Complex;
use crate::error::{DspError, DspResult};
use crate::fft::{fft_plan, Fft};
use crate::rfft::{rfft_plan, RealFft};
use crate::window::Window;

/// Configuration for a short-time Fourier transform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StftConfig {
    /// Frame length in samples; must be a power of two.
    pub frame_len: usize,
    /// Hop between successive frames in samples; must be ≥ 1.
    pub hop: usize,
    /// Taper applied to each frame.
    pub window: Window,
    /// Sample rate in Hz (used only to label frequencies).
    pub sample_rate: f64,
}

impl StftConfig {
    /// The paper's configuration: 2048-point frames of 50 Hz data
    /// (40.96 s per frame), half-frame hop, Hann window.
    pub fn paper_default() -> Self {
        StftConfig {
            frame_len: 2048,
            hop: 1024,
            window: Window::Hann,
            sample_rate: 50.0,
        }
    }
}

impl Default for StftConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One analysed frame: one-sided power spectrum plus its time location.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectralFrame {
    /// Time (seconds) of the frame centre.
    pub time: f64,
    /// One-sided power spectrum; index `k` is frequency `k·fs/frame_len`.
    pub power: Vec<f64>,
    /// Frequency step between bins in Hz.
    pub bin_hz: f64,
}

impl SpectralFrame {
    /// Frequency in Hz of power bin `k`.
    #[inline]
    pub fn frequency(&self, k: usize) -> f64 {
        k as f64 * self.bin_hz
    }

    /// Total power in the band `[lo, hi)` Hz.
    pub fn band_power(&self, lo: f64, hi: f64) -> f64 {
        self.power
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = self.frequency(*k);
                f >= lo && f < hi
            })
            .map(|(_, &p)| p)
            .sum()
    }
}

/// A planned short-time Fourier transform.
///
/// # Examples
///
/// ```
/// use sid_dsp::{Stft, StftConfig, Window};
///
/// let cfg = StftConfig { frame_len: 64, hop: 32, window: Window::Hann, sample_rate: 50.0 };
/// let stft = Stft::new(cfg)?;
/// let signal: Vec<f64> = (0..256).map(|i| (i as f64 * 0.7).sin()).collect();
/// let frames = stft.analyze(&signal)?;
/// assert!(!frames.is_empty());
/// assert_eq!(frames[0].power.len(), 33); // one-sided: N/2 + 1
/// # Ok::<(), sid_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Stft {
    config: StftConfig,
    /// Full complex plan, kept for the legacy bit-reproduction route.
    fft: Arc<Fft>,
    /// Real-input plan driving the default `analyze_frame_into` path.
    rfft: Arc<RealFft>,
    coeffs: Vec<f64>,
    power_gain: f64,
}

impl Stft {
    /// Plans an STFT for the given configuration.
    ///
    /// # Errors
    ///
    /// * [`DspError::NotPowerOfTwo`] if `frame_len` is not a power of two.
    /// * [`DspError::InvalidParameter`] if `hop` is zero or `sample_rate`
    ///   is not positive.
    pub fn new(config: StftConfig) -> DspResult<Self> {
        if config.hop == 0 {
            return Err(DspError::InvalidParameter {
                name: "hop",
                reason: "must be at least 1",
            });
        }
        if !(config.sample_rate > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        let fft = fft_plan(config.frame_len)?;
        let rfft = rfft_plan(config.frame_len)?;
        let coeffs = config.window.coefficients(config.frame_len);
        let power_gain = config.window.power_gain(config.frame_len);
        Ok(Stft {
            config,
            fft,
            rfft,
            coeffs,
            power_gain,
        })
    }

    /// The configuration this plan was built with.
    pub fn config(&self) -> &StftConfig {
        &self.config
    }

    /// Analyses one frame starting at `signal[offset..offset + frame_len]`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if the frame would run past the
    /// end of the signal.
    pub fn analyze_frame(&self, signal: &[f64], offset: usize) -> DspResult<SpectralFrame> {
        self.analyze_frame_into(signal, offset, &mut Vec::new())
    }

    /// [`Stft::analyze_frame`] with a caller-provided scratch buffer, so a
    /// frame loop performs no per-frame allocation beyond the returned
    /// power vector. `scratch` is resized as needed and its contents are
    /// overwritten; the result is identical to `analyze_frame`.
    ///
    /// This is the fast route: windowing is fused with the even/odd
    /// packing of the real-input FFT ([`RealFft::forward_packed`]), so a
    /// frame costs one half-size complex transform plus an O(N) unpack —
    /// about half the butterfly work of the padded complex transform.
    /// Spectra match [`Stft::analyze_frame_legacy_into`] to ≲1e-14
    /// relative (different summation order, see [`crate::rfft`]); callers
    /// needing the pre-rfft bits use the legacy route.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if the frame would run past the
    /// end of the signal.
    pub fn analyze_frame_into(
        &self,
        signal: &[f64],
        offset: usize,
        scratch: &mut Vec<Complex>,
    ) -> DspResult<SpectralFrame> {
        let n = self.config.frame_len;
        if offset + n > signal.len() {
            return Err(DspError::LengthMismatch {
                expected: offset + n,
                actual: signal.len(),
            });
        }
        let frame = &signal[offset..offset + n];
        let norm = 1.0 / self.power_gain;
        if n == 1 {
            let v = frame[0] * self.coeffs[0];
            return Ok(SpectralFrame {
                time: (offset + n / 2) as f64 / self.config.sample_rate,
                power: vec![v * v * norm],
                bin_hz: self.config.sample_rate / n as f64,
            });
        }
        let half = n / 2;
        scratch.clear();
        scratch.reserve(half + 1);
        // Fused window + even/odd pack: z[j] = w·x[2j] + i·w·x[2j+1].
        scratch.extend(
            frame
                .chunks_exact(2)
                .zip(self.coeffs.chunks_exact(2))
                .map(|(x, w)| Complex::new(x[0] * w[0], x[1] * w[1])),
        );
        self.rfft.forward_packed(scratch)?;
        // One-sided spectrum with window-gain normalisation; interior bins
        // double to account for the mirrored negative frequencies.
        let power = (0..=half)
            .map(|k| {
                let p = scratch[k].norm_sqr() * norm;
                if k == 0 || k == half {
                    p
                } else {
                    2.0 * p
                }
            })
            .collect();
        Ok(SpectralFrame {
            time: (offset + n / 2) as f64 / self.config.sample_rate,
            power,
            bin_hz: self.config.sample_rate / n as f64,
        })
    }

    /// The pre-rfft analysis route: pads the windowed frame into a full
    /// complex buffer and runs the N-point transform, exactly as
    /// `analyze_frame_into` did before the real-input fast path landed.
    ///
    /// Kept as the reference the fast path is diffed against: it backs
    /// `sid_core::SpectralClassifier::classify_window_reference`, which
    /// tests, the DST front-end oracle and `dsp_bench` call.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if the frame would run past the
    /// end of the signal.
    pub fn analyze_frame_legacy_into(
        &self,
        signal: &[f64],
        offset: usize,
        scratch: &mut Vec<Complex>,
    ) -> DspResult<SpectralFrame> {
        let n = self.config.frame_len;
        if offset + n > signal.len() {
            return Err(DspError::LengthMismatch {
                expected: offset + n,
                actual: signal.len(),
            });
        }
        scratch.clear();
        scratch.extend(
            signal[offset..offset + n]
                .iter()
                .zip(self.coeffs.iter())
                .map(|(&x, &w)| Complex::from_real(x * w)),
        );
        let buf = &mut scratch[..];
        self.fft.forward(buf)?;
        let half = n / 2;
        let norm = 1.0 / self.power_gain;
        let power = (0..=half)
            .map(|k| {
                let p = buf[k].norm_sqr() * norm;
                if k == 0 || k == half {
                    p
                } else {
                    2.0 * p
                }
            })
            .collect();
        Ok(SpectralFrame {
            time: (offset + n / 2) as f64 / self.config.sample_rate,
            power,
            bin_hz: self.config.sample_rate / n as f64,
        })
    }

    /// Analyses every complete frame of `signal` at the configured hop.
    ///
    /// Signals shorter than one frame yield an empty vector.
    ///
    /// # Errors
    ///
    /// Propagates frame-level errors (none occur for in-range offsets).
    pub fn analyze(&self, signal: &[f64]) -> DspResult<Vec<SpectralFrame>> {
        let n = self.config.frame_len;
        if signal.len() < n {
            return Ok(Vec::new());
        }
        let mut scratch = Vec::with_capacity(n);
        (0..=signal.len() - n)
            .step_by(self.config.hop)
            .map(|offset| self.analyze_frame_into(signal, offset, &mut scratch))
            .collect()
    }
}

/// Streaming STFT assembler: push samples in arbitrary chunks and get a
/// callback for every completed frame, with results identical to running
/// [`Stft::analyze`] over the concatenated stream.
///
/// Between hops the `frame_len − hop` overlapping samples stay in place
/// and only the fresh tail is copied in, so steady-state cost per frame
/// is one `memmove` of the overlap plus the transform itself — no
/// per-frame allocation (the spectrum scratch and assembly buffer are
/// reused across frames).
///
/// # Examples
///
/// ```
/// use sid_dsp::{SlidingStft, Stft, StftConfig, Window};
///
/// let cfg = StftConfig { frame_len: 64, hop: 32, window: Window::Hann, sample_rate: 50.0 };
/// let signal: Vec<f64> = (0..256).map(|i| (i as f64 * 0.7).sin()).collect();
///
/// let batch = Stft::new(cfg)?.analyze(&signal)?;
/// let mut streamed = Vec::new();
/// let mut sliding = SlidingStft::new(cfg)?;
/// for chunk in signal.chunks(7) {
///     sliding.push(chunk, |_end, _samples, frame| streamed.push(frame))?;
/// }
/// assert_eq!(batch, streamed); // bitwise: same arithmetic per frame
/// # Ok::<(), sid_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SlidingStft {
    stft: Stft,
    /// Assembly buffer holding the partial (or, transiently, complete)
    /// frame; `buf[0]` is stream sample `consumed − buf.len()`.
    buf: Vec<f64>,
    /// Spectrum scratch reused across frames.
    scratch: Vec<Complex>,
    /// Absolute count of stream samples consumed so far.
    consumed: u64,
    /// Samples still to discard before the next frame starts
    /// (only nonzero when `hop > frame_len`).
    skip: usize,
}

impl SlidingStft {
    /// Plans a streaming STFT for the given configuration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Stft::new`].
    pub fn new(config: StftConfig) -> DspResult<Self> {
        let stft = Stft::new(config)?;
        let frame_len = config.frame_len;
        Ok(SlidingStft {
            stft,
            buf: Vec::with_capacity(frame_len),
            scratch: Vec::new(),
            consumed: 0,
            skip: 0,
        })
    }

    /// The underlying per-frame analyser.
    pub fn stft(&self) -> &Stft {
        &self.stft
    }

    /// Absolute count of stream samples consumed so far.
    pub fn samples_consumed(&self) -> u64 {
        self.consumed
    }

    /// The buffered partial frame (always shorter than `frame_len`
    /// between calls to [`Self::push`]). Snapshot this to persist the
    /// assembler mid-stream; feed it back via [`Self::restore`].
    pub fn pending(&self) -> &[f64] {
        &self.buf
    }

    /// Restores the assembler to a mid-stream position: `consumed`
    /// samples seen in total, of which the trailing `pending` are still
    /// buffered awaiting frame completion.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `pending` is a full frame
    /// or longer, or claims more samples than `consumed`.
    pub fn restore(&mut self, consumed: u64, pending: &[f64]) -> DspResult<()> {
        if pending.len() >= self.stft.config.frame_len || pending.len() as u64 > consumed {
            return Err(DspError::LengthMismatch {
                expected: self.stft.config.frame_len - 1,
                actual: pending.len(),
            });
        }
        self.buf.clear();
        self.buf.extend_from_slice(pending);
        self.consumed = consumed;
        self.skip = 0;
        Ok(())
    }

    /// Feeds `samples` into the assembler, invoking `on_frame` once per
    /// frame completed inside this chunk. The callback receives the
    /// absolute stream index one past the frame's last sample, the frame's
    /// raw (unwindowed) samples — valid only for the duration of the
    /// callback — and the analysed [`SpectralFrame`].
    ///
    /// Frames are identical (bitwise) to what [`Stft::analyze`] produces
    /// over the whole stream at the same configuration.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors (none occur for a validly planned
    /// configuration).
    pub fn push(
        &mut self,
        samples: &[f64],
        mut on_frame: impl FnMut(u64, &[f64], SpectralFrame),
    ) -> DspResult<()> {
        let frame_len = self.stft.config.frame_len;
        let hop = self.stft.config.hop;
        let fs = self.stft.config.sample_rate;
        let mut rest = samples;
        while !rest.is_empty() {
            if self.skip > 0 {
                let dropped = self.skip.min(rest.len());
                self.consumed += dropped as u64;
                self.skip -= dropped;
                rest = &rest[dropped..];
                continue;
            }
            let take = (frame_len - self.buf.len()).min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            self.consumed += take as u64;
            rest = &rest[take..];
            if self.buf.len() == frame_len {
                let mut frame =
                    self.stft
                        .analyze_frame_into(&self.buf, 0, &mut self.scratch)?;
                // Relabel the centre time with the frame's position in the
                // stream; same integer arithmetic as the batch analyser.
                let start = self.consumed - frame_len as u64;
                frame.time = (start + frame_len as u64 / 2) as f64 / fs;
                on_frame(self.consumed, &self.buf, frame);
                if hop >= frame_len {
                    self.buf.clear();
                    self.skip = hop - frame_len;
                } else {
                    // Slide: keep the overlap in place, drop the hop.
                    self.buf.copy_within(hop.., 0);
                    self.buf.truncate(frame_len - hop);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn cfg(frame: usize, hop: usize) -> StftConfig {
        StftConfig {
            frame_len: frame,
            hop,
            window: Window::Hann,
            sample_rate: 50.0,
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Stft::new(cfg(100, 10)).is_err()); // not a power of two
        assert!(Stft::new(StftConfig { hop: 0, ..cfg(64, 1) }).is_err());
        assert!(Stft::new(StftConfig {
            sample_rate: 0.0,
            ..cfg(64, 32)
        })
        .is_err());
    }

    #[test]
    fn paper_default_matches_section_iii() {
        let c = StftConfig::paper_default();
        assert_eq!(c.frame_len, 2048);
        assert_eq!(c.sample_rate, 50.0);
        // 2048 samples at 50 Hz = 40.96 s, as stated in the paper.
        assert!((c.frame_len as f64 / c.sample_rate - 40.96).abs() < 1e-12);
    }

    #[test]
    fn tone_peaks_at_right_bin() {
        let fs = 50.0;
        let stft = Stft::new(cfg(256, 128)).unwrap();
        let f0 = 5.0 * fs / 256.0; // exactly bin 5
        let frames = stft.analyze(&tone(f0, fs, 1024)).unwrap();
        for frame in &frames {
            let peak = frame
                .power
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(peak, 5);
        }
    }

    #[test]
    fn scratch_variant_matches_allocating_variant() {
        let stft = Stft::new(cfg(128, 64)).unwrap();
        let sig = tone(3.0, 50.0, 512);
        let mut scratch = Vec::new();
        for offset in [0usize, 64, 384] {
            let a = stft.analyze_frame(&sig, offset).unwrap();
            let b = stft.analyze_frame_into(&sig, offset, &mut scratch).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn frame_count_follows_hop() {
        let stft = Stft::new(cfg(64, 16)).unwrap();
        let frames = stft.analyze(&vec![0.0; 256]).unwrap();
        // offsets 0,16,...,192 → 13 frames
        assert_eq!(frames.len(), 13);
    }

    #[test]
    fn short_signal_gives_no_frames() {
        let stft = Stft::new(cfg(64, 16)).unwrap();
        assert!(stft.analyze(&vec![0.0; 63]).unwrap().is_empty());
    }

    #[test]
    fn out_of_range_frame_errors() {
        let stft = Stft::new(cfg(64, 16)).unwrap();
        assert!(stft.analyze_frame(&vec![0.0; 64], 1).is_err());
    }

    #[test]
    fn band_power_splits_spectrum() {
        let fs = 50.0;
        let stft = Stft::new(cfg(512, 256)).unwrap();
        // 2 Hz tone: all power below 5 Hz.
        let frames = stft.analyze(&tone(2.0, fs, 512)).unwrap();
        let f = &frames[0];
        let low = f.band_power(0.0, 5.0);
        let high = f.band_power(5.0, 25.0);
        assert!(low > 100.0 * high.max(1e-12));
    }

    #[test]
    fn window_normalisation_keeps_tone_power_stable() {
        // A unit-amplitude tone has mean-square 0.5; the one-sided,
        // gain-normalised spectrum should sum to ~0.5·N regardless of window.
        let fs = 50.0;
        let n = 512;
        for w in [Window::Rectangular, Window::Hann, Window::Hamming] {
            let stft = Stft::new(StftConfig {
                frame_len: n,
                hop: n,
                window: w,
                sample_rate: fs,
            })
            .unwrap();
            let f0 = 20.0 * fs / n as f64;
            let frames = stft.analyze(&tone(f0, fs, n)).unwrap();
            let total: f64 = frames[0].power.iter().sum();
            assert!(
                (total - 0.5 * n as f64).abs() / (0.5 * n as f64) < 0.05,
                "window {w:?}: total {total}"
            );
        }
    }

    #[test]
    fn frame_time_is_centre() {
        let stft = Stft::new(cfg(64, 64)).unwrap();
        let frames = stft.analyze(&vec![0.0; 128]).unwrap();
        assert!((frames[0].time - 32.0 / 50.0).abs() < 1e-12);
        assert!((frames[1].time - 96.0 / 50.0).abs() < 1e-12);
    }

    fn noisy(n: usize) -> Vec<f64> {
        // Deterministic full-band test signal: tones plus a chaotic term.
        (0..n)
            .map(|i| {
                let t = i as f64;
                (0.11 * t).sin() + 0.4 * (0.73 * t).cos() + 0.2 * (t * t * 0.001).sin()
            })
            .collect()
    }

    #[test]
    fn fast_path_matches_legacy_within_tolerance() {
        let sig = noisy(4096);
        for (frame, hop) in [(256usize, 128usize), (2048, 1024), (64, 64)] {
            let stft = Stft::new(cfg(frame, hop)).unwrap();
            let mut s1 = Vec::new();
            let mut s2 = Vec::new();
            for offset in (0..=sig.len() - frame).step_by(hop) {
                let fast = stft.analyze_frame_into(&sig, offset, &mut s1).unwrap();
                let legacy = stft
                    .analyze_frame_legacy_into(&sig, offset, &mut s2)
                    .unwrap();
                assert_eq!(fast.time, legacy.time);
                assert_eq!(fast.bin_hz, legacy.bin_hz);
                assert_eq!(fast.power.len(), legacy.power.len());
                let scale: f64 = legacy.power.iter().sum::<f64>().max(1e-30);
                for (a, b) in fast.power.iter().zip(&legacy.power) {
                    assert!(
                        (a - b).abs() <= 1e-12 * scale,
                        "frame {frame} offset {offset}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn size_one_frame_still_works() {
        let stft = Stft::new(cfg(1, 1)).unwrap();
        let frame = stft.analyze_frame(&[3.0], 0).unwrap();
        assert_eq!(frame.power.len(), 1);
        assert!(frame.power[0] > 0.0);
    }

    #[test]
    fn sliding_matches_batch_bitwise_across_chunkings() {
        let sig = noisy(1500);
        for (frame, hop) in [(64usize, 16usize), (128, 128), (256, 32)] {
            let config = cfg(frame, hop);
            let batch = Stft::new(config).unwrap().analyze(&sig).unwrap();
            for chunk in [1usize, 7, 64, 1500] {
                let mut sliding = SlidingStft::new(config).unwrap();
                let mut streamed = Vec::new();
                let mut ends = Vec::new();
                for piece in sig.chunks(chunk) {
                    sliding
                        .push(piece, |end, raw, f| {
                            assert_eq!(raw.len(), frame);
                            ends.push(end);
                            streamed.push(f);
                        })
                        .unwrap();
                }
                assert_eq!(batch, streamed, "frame {frame} hop {hop} chunk {chunk}");
                for (i, end) in ends.iter().enumerate() {
                    assert_eq!(*end, (i * hop + frame) as u64);
                }
                assert!(sliding.pending().len() < frame);
            }
        }
    }

    #[test]
    fn sliding_handles_hop_wider_than_frame() {
        // hop > frame_len skips the gap samples, matching the batch offsets.
        let sig = noisy(600);
        let config = cfg(64, 100);
        let batch = Stft::new(config).unwrap().analyze(&sig).unwrap();
        let mut sliding = SlidingStft::new(config).unwrap();
        let mut streamed = Vec::new();
        for piece in sig.chunks(13) {
            sliding.push(piece, |_, _, f| streamed.push(f)).unwrap();
        }
        assert_eq!(batch, streamed);
    }

    #[test]
    fn sliding_restore_resumes_mid_stream() {
        let sig = noisy(700);
        let config = cfg(128, 64);
        // Reference: uninterrupted stream.
        let mut whole = SlidingStft::new(config).unwrap();
        let mut expect = Vec::new();
        whole.push(&sig, |e, _, f| expect.push((e, f))).unwrap();

        // Interrupted: snapshot after 300 samples, restore into a fresh
        // assembler, feed the rest.
        let mut first = SlidingStft::new(config).unwrap();
        let mut got = Vec::new();
        first.push(&sig[..300], |e, _, f| got.push((e, f))).unwrap();
        let pending = first.pending().to_vec();
        let consumed = first.samples_consumed();
        let mut second = SlidingStft::new(config).unwrap();
        second.restore(consumed, &pending).unwrap();
        second
            .push(&sig[300..], |e, _, f| got.push((e, f)))
            .unwrap();
        assert_eq!(expect, got);
    }

    #[test]
    fn sliding_restore_rejects_full_frame() {
        let mut sliding = SlidingStft::new(cfg(64, 32)).unwrap();
        assert!(sliding.restore(64, &[0.0; 64]).is_err());
        assert!(sliding.restore(3, &[0.0; 5]).is_err());
        assert!(sliding.restore(5, &[0.0; 5]).is_ok());
    }
}
