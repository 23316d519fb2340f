//! Spectral front-end micro-benchmark: measures the DSP kernels on the
//! streaming hot path and writes `results/BENCH_dsp.json`.
//!
//! ```text
//! cargo run --release -p sid-bench --bin dsp_bench [-- --quick]
//! ```
//!
//! `--quick` is a smoke run: 20 iterations instead of 200, every
//! agreement assertion still enforced, and nothing written — the
//! committed `results/BENCH_dsp.json` only ever holds a full run.
//!
//! Three sections, each timing the fast kernel against the path it
//! replaced (all numbers measured on the host that runs it, nothing
//! extrapolated):
//!
//! * **rfft** — planned real-input FFT (`RealFft::forward_into`) vs. the
//!   full complex transform (`fft_real_into`) at the paper's 2048-point
//!   frame;
//! * **sliding_stft** — streaming [`SlidingStft`] over one minute of
//!   50 Hz samples in bounded chunks vs. re-running the batch analyser,
//!   per completed frame;
//! * **classify** — end-to-end `SpectralClassifier::classify_window`
//!   (rfft + Parseval wavelet) vs. `classify_window_reference` (full
//!   complex FFT + time-domain convolution), asserting on the side that
//!   both reach the same verdict on the probe window.
//!
//! The classify section is the one that moves engine throughput: the
//! reference wavelet convolution dominated the old streaming hot path.

use std::time::Instant;

use serde::Serialize;

use sid_bench::common::write_json;
use sid_core::{ClassifierConfig, SpectralClassifier};
use sid_dsp::{fft_real_into, rfft_plan, Complex, SlidingStft, Stft, StftConfig};

#[derive(Debug, Serialize)]
struct KernelPair {
    n: usize,
    fast_ns: f64,
    reference_ns: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct SlidingReport {
    frame_len: usize,
    hop: usize,
    signal_secs: f64,
    frames: usize,
    batch_ns_per_frame: f64,
    sliding_ns_per_frame: f64,
}

#[derive(Debug, Serialize)]
struct DspReport {
    quick: bool,
    rfft: KernelPair,
    sliding_stft: SlidingReport,
    classify: KernelPair,
}

fn test_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / 50.0;
            1024.0
                + 30.0 * (2.0 * std::f64::consts::PI * 0.4 * t).sin()
                + 80.0 * (2.0 * std::f64::consts::PI * 1.9 * t).sin()
        })
        .collect()
}

/// Times `f` over `iters` runs and returns nanoseconds per run. One
/// untimed warmup call primes plans and buffer capacities.
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_rfft(iters: usize) -> KernelPair {
    let n = 2048usize;
    let signal = test_signal(n);
    let plan = rfft_plan(n).expect("power-of-two plan");
    let mut spectrum: Vec<Complex> = Vec::new();
    let fast_ns = time_ns(iters, || {
        plan.forward_into(&signal, &mut spectrum).expect("planned");
        std::hint::black_box(spectrum[1]);
    });
    let mut full: Vec<Complex> = Vec::new();
    let reference_ns = time_ns(iters, || {
        fft_real_into(&signal, &mut full).expect("power of two");
        std::hint::black_box(full[1]);
    });
    KernelPair {
        n,
        fast_ns,
        reference_ns,
        speedup: reference_ns / fast_ns.max(1e-9),
    }
}

fn bench_sliding(iters: usize) -> SlidingReport {
    let config = StftConfig::paper_default();
    // Five minutes of 50 Hz data: 13 of the paper's 40.96 s windows at
    // the 1024-sample hop.
    let signal_secs = 300.0;
    let signal = test_signal((50.0 * signal_secs) as usize);
    let stft = Stft::new(config).expect("paper config");
    let frames = stft.analyze(&signal).expect("batch analysis").len();
    let batch_ns = time_ns(iters, || {
        std::hint::black_box(stft.analyze(&signal).expect("batch analysis").len());
    });
    // A fresh assembler per iteration keeps the completed-frame count
    // identical run to run (a persistent one would carry partial frames
    // across iterations); construction cost is noise next to the frames.
    let sliding_ns = time_ns(iters, || {
        let mut sliding = SlidingStft::new(config).expect("paper config");
        let mut seen = 0usize;
        for chunk in signal.chunks(512) {
            sliding
                .push(chunk, |_, _, frame| {
                    seen += 1;
                    std::hint::black_box(frame.power[1]);
                })
                .expect("planned");
        }
        debug_assert_eq!(seen, frames);
        std::hint::black_box(seen);
    });
    SlidingReport {
        frame_len: config.frame_len,
        hop: config.hop,
        signal_secs,
        frames,
        batch_ns_per_frame: batch_ns / frames as f64,
        sliding_ns_per_frame: sliding_ns / frames as f64,
    }
}

fn bench_classify(iters: usize) -> KernelPair {
    let config = ClassifierConfig::paper_default();
    let window = test_signal(config.stft.frame_len);
    let clf = SpectralClassifier::new(config).expect("paper classifier");
    let fast_verdict = clf.classify_window(&window).expect("frame-sized window");
    let reference_verdict = clf
        .classify_window_reference(&window)
        .expect("frame-sized window");
    assert_eq!(
        fast_verdict.class, reference_verdict.class,
        "classify_window and classify_window_reference disagree on the probe window"
    );
    let fast_ns = time_ns(iters, || {
        std::hint::black_box(
            clf.classify_window(&window)
                .expect("frame-sized window")
                .class,
        );
    });
    // The reference wavelet convolution is ~three orders slower; keep
    // its sample count small so the benchmark stays interactive.
    let reference_ns = time_ns((iters / 16).max(3), || {
        std::hint::black_box(
            clf.classify_window_reference(&window)
                .expect("frame-sized window")
                .class,
        );
    });
    KernelPair {
        n: config.stft.frame_len,
        fast_ns,
        reference_ns,
        speedup: reference_ns / fast_ns.max(1e-9),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let iters = if quick { 20 } else { 200 };
    println!(
        "=== dsp_bench: spectral front-end kernels{} ===",
        if quick { " (quick)" } else { "" }
    );

    let rfft = bench_rfft(iters * 10);
    println!(
        "rfft {}: {:.0} ns vs complex {:.0} ns — {:.2}x",
        rfft.n, rfft.fast_ns, rfft.reference_ns, rfft.speedup
    );

    let sliding_stft = bench_sliding(iters.min(50));
    println!(
        "sliding stft {}x{}: {:.0} ns/frame streamed vs {:.0} ns/frame batch over {} frames",
        sliding_stft.frame_len,
        sliding_stft.hop,
        sliding_stft.sliding_ns_per_frame,
        sliding_stft.batch_ns_per_frame,
        sliding_stft.frames
    );

    let classify = bench_classify(iters);
    println!(
        "classify_window {}: fast {:.0} ns vs reference {:.0} ns — {:.0}x",
        classify.n, classify.fast_ns, classify.reference_ns, classify.speedup
    );

    let report = DspReport {
        quick,
        rfft,
        sliding_stft,
        classify,
    };
    if quick {
        println!("\n[quick run: results/BENCH_dsp.json left untouched]");
    } else {
        write_json("BENCH_dsp", &report);
    }
}
