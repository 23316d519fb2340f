//! Property-based tests for the DSP substrate.

use proptest::prelude::*;

use sid_dsp::{
    butterworth_lowpass, butterworth_lowpass_order4, fft_real, rfft_plan, spectral_features,
    Complex, EwmaStats, Fft, LowPassFir, PeakConfig, RunningStats, SlidingStft, Stft, StftConfig,
    Window,
};

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, 1..max_len)
}

proptest! {
    #[test]
    fn fft_roundtrip_recovers_signal(xs in prop::collection::vec(-1e3..1e3f64, 1..64)) {
        let n = xs.len().next_power_of_two();
        let mut buf: Vec<Complex> = xs.iter().map(|&x| Complex::from_real(x)).collect();
        buf.resize(n, Complex::ZERO);
        let fft = Fft::new(n).unwrap();
        fft.forward(&mut buf).unwrap();
        fft.inverse(&mut buf).unwrap();
        for (orig, back) in xs.iter().zip(buf.iter()) {
            prop_assert!((orig - back.re).abs() < 1e-6);
            prop_assert!(back.im.abs() < 1e-6);
        }
    }

    #[test]
    fn parseval_holds_for_any_signal(xs in prop::collection::vec(-1e2..1e2f64, 1..128)) {
        let n = xs.len().next_power_of_two();
        let spec = fft_real(&xs).unwrap();
        let time: f64 = xs.iter().map(|x| x * x).sum();
        let freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time - freq).abs() <= 1e-6 * time.max(1.0));
    }

    #[test]
    fn fft_is_linear(
        xs in prop::collection::vec(-1e2..1e2f64, 8..32),
        k in -5.0..5.0f64,
    ) {
        let scaled: Vec<f64> = xs.iter().map(|&x| k * x).collect();
        let a = fft_real(&xs).unwrap();
        let b = fft_real(&scaled).unwrap();
        for (za, zb) in a.iter().zip(b.iter()) {
            prop_assert!((za.re * k - zb.re).abs() < 1e-6);
            prop_assert!((za.im * k - zb.im).abs() < 1e-6);
        }
    }

    #[test]
    fn rfft_matches_complex_fft(xs in prop::collection::vec(-1e3..1e3f64, 2..256)) {
        // The real-input FFT computes the same one-sided spectrum as the
        // full complex transform, differing only by summation order —
        // bounded by a tight relative tolerance, never bit-exactness.
        let n = xs.len().next_power_of_two();
        let mut padded = xs.clone();
        padded.resize(n, 0.0);
        // `fft_real` returns the full n-point spectrum; the real-input
        // FFT returns the one-sided half (n/2 + 1 bins).
        let reference = fft_real(&padded).unwrap();
        let fast = rfft_plan(n).unwrap().forward(&padded).unwrap();
        prop_assert_eq!(fast.len(), n / 2 + 1);
        let scale: f64 = padded.iter().map(|x| x.abs()).sum::<f64>().max(1.0);
        for (zf, zr) in fast.iter().zip(reference.iter()) {
            prop_assert!((zf.re - zr.re).abs() <= 1e-9 * scale);
            prop_assert!((zf.im - zr.im).abs() <= 1e-9 * scale);
        }
    }

    #[test]
    fn sliding_stft_equals_batch_bitwise(
        xs in prop::collection::vec(-1e3..1e3f64, 64..600),
        frame_pow in 4u32..8,
        hop_divisor in 1usize..5,
        chunk in 1usize..97,
    ) {
        // Any frame length, hop and chunking: the streamed frames are
        // bit-identical to the batch analyser's.
        let frame_len = 1usize << frame_pow;
        let hop = (frame_len / hop_divisor).max(1);
        let config = StftConfig { frame_len, hop, window: Window::Hann, sample_rate: 50.0 };
        let batch = Stft::new(config).unwrap().analyze(&xs).unwrap();
        let mut sliding = SlidingStft::new(config).unwrap();
        let mut streamed = Vec::new();
        for piece in xs.chunks(chunk) {
            sliding.push(piece, |_, _, frame| streamed.push(frame)).unwrap();
        }
        prop_assert_eq!(streamed, batch);
    }

    #[test]
    fn welford_matches_two_pass(xs in signal_strategy(256)) {
        let s = RunningStats::from_slice(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.population_variance() - var).abs() < 1e-4 * var.max(1.0));
    }

    #[test]
    fn welford_merge_is_concatenation(
        a in signal_strategy(64),
        b in signal_strategy(64),
    ) {
        let mut sa = RunningStats::from_slice(&a);
        sa.merge(&RunningStats::from_slice(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let sall = RunningStats::from_slice(&all);
        prop_assert_eq!(sa.count(), sall.count());
        prop_assert!((sa.mean() - sall.mean()).abs() < 1e-6 * sall.mean().abs().max(1.0));
    }

    #[test]
    fn ewma_stays_within_input_hull(
        seed_mean in -10.0..10.0f64,
        updates in prop::collection::vec((-10.0..10.0f64, 0.0..5.0f64), 1..50),
    ) {
        let mut e = EwmaStats::new(0.99, 0.99);
        e.seed(seed_mean, 1.0);
        let mut lo = seed_mean;
        let mut hi = seed_mean;
        for (m, d) in updates {
            e.update(m, d);
            lo = lo.min(m);
            hi = hi.max(m);
            prop_assert!(e.mean() >= lo - 1e-9 && e.mean() <= hi + 1e-9);
        }
    }

    #[test]
    fn window_coefficients_bounded(n in 1usize..512) {
        for w in [Window::Rectangular, Window::Hann, Window::Hamming, Window::Blackman] {
            for c in w.coefficients(n) {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&c), "{w:?} coefficient {c}");
            }
        }
    }

    #[test]
    fn filters_preserve_finiteness(xs in signal_strategy(512)) {
        let mut f2 = butterworth_lowpass(1.0, 50.0).unwrap();
        let mut f4 = butterworth_lowpass_order4(1.0, 50.0).unwrap();
        for y in f2.process_buffer(&xs) {
            prop_assert!(y.is_finite());
        }
        for y in f4.process_buffer(&xs) {
            prop_assert!(y.is_finite());
        }
    }

    #[test]
    fn fir_zero_phase_output_length_matches(xs in signal_strategy(256)) {
        let fir = LowPassFir::design(2.0, 50.0, 31).unwrap();
        prop_assert_eq!(fir.filter_zero_phase(&xs).len(), xs.len());
        prop_assert_eq!(fir.filter(&xs).len(), xs.len());
    }

    #[test]
    fn spectral_features_are_well_formed(power in prop::collection::vec(0.0..1e6f64, 1..256)) {
        let f = spectral_features(&power, 0.1, &PeakConfig::default());
        prop_assert!(f.peak_concentration >= 0.0 && f.peak_concentration <= 1.0 + 1e-9);
        prop_assert!(f.flatness >= 0.0 && f.flatness <= 1.0);
        prop_assert!(f.bandwidth >= 0.0);
        prop_assert!(f.centroid >= 0.0);
        let total: f64 = power.iter().sum();
        prop_assert!((f.total_power - total).abs() < 1e-6 * total.max(1.0));
    }

    #[test]
    fn complex_field_axioms(
        (ar, ai, br, bi) in (-1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64),
    ) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        // Commutativity.
        let ab = a * b;
        let ba = b * a;
        prop_assert!((ab.re - ba.re).abs() < 1e-6);
        prop_assert!((ab.im - ba.im).abs() < 1e-6);
        // |ab| = |a||b|
        prop_assert!((ab.norm() - a.norm() * b.norm()).abs() < 1e-4 * ab.norm().max(1.0));
        // conj distributes over multiplication
        let c1 = (a * b).conj();
        let c2 = a.conj() * b.conj();
        prop_assert!((c1.re - c2.re).abs() < 1e-6 && (c1.im - c2.im).abs() < 1e-6);
    }
}
