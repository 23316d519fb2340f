//! Criterion benches for the DSP kernels: the per-sample and per-window
//! costs that bound what an iMote2-class node could afford.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sid_dsp::{
    butterworth_lowpass_order4, fft_real, rfft_plan, Complex, Fft, LowPassFir, Morlet,
    MorletConfig, PeakConfig, SlidingStft, Stft, StftConfig, Window,
};

fn test_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / 50.0;
            30.0 * (2.0 * std::f64::consts::PI * 0.4 * t).sin()
                + 80.0 * (2.0 * std::f64::consts::PI * 1.9 * t).sin()
        })
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[256usize, 1024, 2048, 8192] {
        let fft = Fft::new(n).unwrap();
        let buf: Vec<Complex> = test_signal(n)
            .into_iter()
            .map(Complex::from_real)
            .collect();
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| {
                let mut data = buf.clone();
                fft.forward(black_box(&mut data)).unwrap();
                black_box(data[0]);
            })
        });
    }
    group.bench_function("fft_real_2048_oneshot", |b| {
        let sig = test_signal(2048);
        b.iter(|| black_box(fft_real(black_box(&sig)).unwrap().len()))
    });
    // The real-input fast path: half-size complex FFT + unpack, into a
    // reused spectrum buffer.
    for &n in &[256usize, 2048] {
        let plan = rfft_plan(n).unwrap();
        let sig = test_signal(n);
        let mut spectrum: Vec<Complex> = Vec::new();
        group.bench_with_input(BenchmarkId::new("rfft_into", n), &n, |b, _| {
            b.iter(|| {
                plan.forward_into(black_box(&sig), &mut spectrum).unwrap();
                black_box(spectrum[1]);
            })
        });
    }
    group.finish();
}

fn bench_stft(c: &mut Criterion) {
    // The paper's analysis frame: 2048 points of 50 Hz data.
    let stft = Stft::new(StftConfig::paper_default()).unwrap();
    let sig = test_signal(2048);
    c.bench_function("stft_paper_frame_2048", |b| {
        b.iter(|| black_box(stft.analyze_frame(black_box(&sig), 0).unwrap().power[5]))
    });
    let small = Stft::new(StftConfig {
        frame_len: 512,
        hop: 256,
        window: Window::Hann,
        sample_rate: 50.0,
    })
    .unwrap();
    let long = test_signal(50 * 60); // one minute
    c.bench_function("stft_sweep_one_minute_512_hop256", |b| {
        b.iter(|| black_box(small.analyze(black_box(&long)).unwrap().len()))
    });
    // The streaming assembler over the same minute, fed in ring-sized
    // chunks: steady-state overlap reuse plus the rfft fast path.
    let sliding_cfg = *small.config();
    c.bench_function("sliding_stft_one_minute_512_hop256", |b| {
        b.iter(|| {
            let mut sliding = SlidingStft::new(sliding_cfg).unwrap();
            let mut frames = 0usize;
            for chunk in long.chunks(512) {
                sliding
                    .push(black_box(chunk), |_, _, frame| {
                        frames += 1;
                        black_box(frame.power[1]);
                    })
                    .unwrap();
            }
            black_box(frames)
        })
    });
}

fn bench_wavelet(c: &mut Criterion) {
    let morlet = Morlet::new(MorletConfig::new(50.0)).unwrap();
    let sig = test_signal(1500);
    let freqs = Morlet::log_frequencies(0.1, 4.0, 12);
    c.bench_function("morlet_scalogram_30s_12scales", |b| {
        b.iter(|| {
            black_box(
                morlet
                    .scalogram(black_box(&sig), black_box(&freqs))
                    .unwrap()
                    .len_time(),
            )
        })
    });
}

fn bench_filters(c: &mut Criterion) {
    let sig = test_signal(50 * 60);
    c.bench_function("butterworth4_one_minute", |b| {
        b.iter(|| {
            let mut f = butterworth_lowpass_order4(1.0, 50.0).unwrap();
            black_box(f.process_buffer(black_box(&sig)).len())
        })
    });
    let fir = LowPassFir::design(1.0, 50.0, 201).unwrap();
    let short = test_signal(2048);
    c.bench_function("fir201_zero_phase_2048", |b| {
        b.iter(|| black_box(fir.filter_zero_phase(black_box(&short)).len()))
    });
}

fn bench_features(c: &mut Criterion) {
    let stft = Stft::new(StftConfig::paper_default()).unwrap();
    let frame = stft.analyze_frame(&test_signal(2048), 0).unwrap();
    c.bench_function("spectral_features_1025_bins", |b| {
        b.iter(|| {
            black_box(
                sid_dsp::spectral_features(
                    black_box(&frame.power),
                    frame.bin_hz,
                    &PeakConfig::default(),
                )
                .peak_count,
            )
        })
    });
}

criterion_group!(
    benches,
    bench_fft,
    bench_stft,
    bench_wavelet,
    bench_filters,
    bench_features
);
criterion_main!(benches);
