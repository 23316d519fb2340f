//! `stream-16`: sixteen 50 Hz z-streams with one ship passage, fed
//! through `StreamEngine` by one closed-loop producer in 512-sample
//! chunks. The only workload that runs the sliding STFT and the
//! spectral classifier; it bypasses ocean synthesis entirely (the
//! streams are synthesized before anything is timed).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sid_core::{Classification, NodeDetector, NodeReport, SpectralClassifier};
use sid_dsp::SlidingStft;
use sid_exec::Pool;
use sid_net::NodeId;
use sid_obs::{fnv1a, Obs};
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum, GRAVITY};
use sid_stream::{StreamConfig, StreamEngine, StreamOutput};

use crate::harness::{add, add_stages, Episode, Layers, Reference, Workload};

const NODES: usize = 16;
/// Samples per node per episode (~11 min at 50 Hz).
const SAMPLES: usize = 1 << 15;
/// Producer chunk length.
const CHUNK: usize = 512;
const SAMPLE_RATE: f64 = 50.0;

/// The stream workload's seed-derived inputs: one z-series per node.
pub struct Stream {
    signals: Vec<Vec<f64>>,
}

impl Stream {
    /// Synthesizes the sixteen z-streams (accelerometer counts, 1024 per
    /// g) of a 4×4 grid at 25 m spacing under a 96-component harbor sea,
    /// with a 10 kn northbound ship whose crossing point is drawn from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5_7EA3);
        let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 96, &mut rng);
        let mut scene = Scene::new(sea, ShipWaveModel::default());
        scene.add_ship(Ship::new(
            Vec2::new(rng.gen_range(10.0..65.0), -400.0),
            Angle::from_degrees(90.0),
            Knots::new(10.0),
        ));
        let signals = (0..NODES)
            .map(|i| {
                let position = Vec2::new(25.0 * (i % 4) as f64, 25.0 * (i / 4) as f64);
                scene
                    .acceleration_block(position, 0.0, 1.0 / SAMPLE_RATE, SAMPLES)
                    .iter()
                    .map(|a| 1024.0 * (1.0 + a[2] / GRAVITY))
                    .collect()
            })
            .collect();
        Stream { signals }
    }
}

/// Per-node output record the fingerprint is taken over: alarms and
/// window verdicts in the engine's per-node emission order.
#[derive(Default)]
struct Digest {
    per_node: Vec<String>,
    alarms: u64,
    windows: u64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            per_node: vec![String::new(); NODES],
            ..Digest::default()
        }
    }

    fn alarm(&mut self, node: usize, report: &NodeReport) {
        self.alarms += 1;
        let _ = write!(self.per_node[node], "A{report:?};");
    }

    fn window(&mut self, node: usize, end_sample: u64, peak_hz: f64, class: &Classification) {
        self.windows += 1;
        let _ = write!(
            self.per_node[node],
            "W{end_sample}:{:016x}:{class:?};",
            peak_hz.to_bits()
        );
    }

    fn fingerprint(&self) -> u64 {
        self.per_node.iter().fold(0, |h, s| fnv1a(h, s.as_bytes()))
    }
}

/// A window ready for classification, lifted out of the STFT callback.
struct Ready {
    node: usize,
    end_sample: u64,
    peak_hz: f64,
    samples: Vec<f64>,
}

/// The engine's peak-bin rule for a frame's dominant frequency.
fn peak_hz(frame: &sid_dsp::SpectralFrame) -> f64 {
    let bin = frame
        .power
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(k, _)| k);
    bin as f64 * frame.bin_hz
}

/// The engine's layers composed by hand: per node, the detector block
/// pass then the sliding STFT over the same block, then one batched
/// classification of every ready window. `chunks` is the samples each
/// node is fed per round; with `layers`, each public call is timed.
fn replay(
    signals: &[Vec<f64>],
    pool: &Pool,
    chunk: usize,
    mut layers: Option<&mut Layers>,
) -> Digest {
    let config = StreamConfig::paper_default();
    let classifier = SpectralClassifier::new(config.classifier).expect("paper-default classifier");
    let mut detectors: Vec<NodeDetector> = (0..NODES)
        .map(|i| NodeDetector::new(NodeId::from(i), config.detector))
        .collect();
    let mut stfts: Vec<SlidingStft> = (0..NODES)
        .map(|_| SlidingStft::new(config.classifier.stft).expect("paper-default STFT"))
        .collect();
    let dt = 1.0 / config.detector.sample_rate;
    let mut digest = Digest::new();
    let mut reports = Vec::new();
    let mut cursor = 0;
    while cursor < SAMPLES {
        let end = (cursor + chunk).min(SAMPLES);
        let mut ready: Vec<Ready> = Vec::new();
        let mut alarms: Vec<(usize, usize, NodeReport)> = Vec::new();
        for node in 0..NODES {
            let block = &signals[node][cursor..end];
            let t0 = Instant::now();
            reports.clear();
            detectors[node].ingest_block(stfts[node].samples_consumed(), dt, block, &mut reports);
            let t1 = Instant::now();
            let mut pending = reports.drain(..).peekable();
            stfts[node]
                .push(block, |end_sample, raw, frame| {
                    while let Some((_, r)) = pending.next_if(|&(c, _)| c <= end_sample) {
                        alarms.push((ready.len(), node, r));
                    }
                    ready.push(Ready {
                        node,
                        end_sample,
                        peak_hz: peak_hz(&frame),
                        samples: raw.to_vec(),
                    });
                })
                .expect("planned configuration analyses cleanly");
            alarms.extend(pending.map(|(_, r)| (ready.len(), node, r)));
            if let Some(layers) = layers.as_deref_mut() {
                add(layers, "core.ingest_block_s", (t1 - t0).as_secs_f64());
                add(layers, "dsp.stft_s", t1.elapsed().as_secs_f64());
            }
        }
        let t = Instant::now();
        let verdicts = pool.par_map(&ready, |w| {
            classifier
                .classify_window(&w.samples)
                .expect("ready windows carry one frame")
        });
        if let Some(layers) = layers.as_deref_mut() {
            add(layers, "core.classify_s", t.elapsed().as_secs_f64());
        }
        // Per node, an alarm precedes every window that was not yet
        // ready when it fired.
        let mut alarm_iter = alarms.into_iter().peekable();
        for (i, (w, verdict)) in ready.iter().zip(&verdicts).enumerate() {
            while let Some((_, node, r)) = alarm_iter.next_if(|(before, _, _)| *before <= i) {
                digest.alarm(node, &r);
            }
            digest.window(w.node, w.end_sample, w.peak_hz, verdict);
        }
        for (_, node, r) in alarm_iter {
            digest.alarm(node, &r);
        }
        cursor = end;
    }
    digest
}

impl Workload for Stream {
    type Ready = StreamEngine;
    const NAME: &'static str = "stream-16";
    const PINNED: u64 = 0xe911_2ae6_b70e_87d0;
    const OP_LAYERS: Option<(&'static str, &'static str)> =
        Some(("stream.verdict_p50_ms", "stream.verdict_p90_ms"));

    fn setup(&self, _pool: &Arc<Pool>) -> StreamEngine {
        StreamEngine::new(StreamConfig::paper_default(), NODES).expect("paper-default engine")
    }

    /// The detector, the sliding STFT and the classifier called
    /// directly, each node's whole stream in one block.
    fn reference(&self, pool: &Arc<Pool>) -> Reference {
        let digest = replay(&self.signals, pool, SAMPLES, None);
        Reference {
            fingerprint: digest.fingerprint(),
            samples: (NODES * SAMPLES) as u64,
            node_ticks: 0,
            counts: Layers::from([
                ("stream.alarms", digest.alarms as f64),
                ("stream.windows", digest.windows as f64),
            ]),
        }
    }

    /// Round-robin: one chunk per node, then a pump. A window's verdict
    /// latency runs from the end of the push that completed it to the
    /// return of the pump that delivered it.
    fn episode(&self, mut engine: StreamEngine, pool: &Arc<Pool>, traced: bool) -> Episode {
        let mut digest = Digest::new();
        let mut cursors = [0usize; NODES];
        // Per node: (samples pushed so far, when that push ended), for
        // pushes not yet pumped.
        let mut pushes: Vec<Vec<(u64, Instant)>> = vec![Vec::new(); NODES];
        let mut ops_ms = Vec::new();
        let mut steps_s = Vec::new();
        let (mut push_s, mut pump_s) = (0.0, 0.0);
        let (mut attempted, mut retries) = (0u64, 0u64);
        let obs = Obs::in_memory();
        if traced {
            pool.set_obs(obs.clone());
        }
        let start = Instant::now();
        while cursors.iter().any(|&c| c < SAMPLES) {
            let round = Instant::now();
            for node in 0..NODES {
                let cursor = cursors[node];
                if cursor == SAMPLES {
                    continue;
                }
                let end = (cursor + CHUNK).min(SAMPLES);
                let t = Instant::now();
                let accepted = engine.push_chunk(node, &self.signals[node][cursor..end]);
                let done = Instant::now();
                push_s += (done - t).as_secs_f64();
                attempted += 1;
                retries += u64::from(accepted < end - cursor);
                cursors[node] += accepted;
                if accepted > 0 {
                    pushes[node].push((cursors[node] as u64, done));
                }
            }
            let t = Instant::now();
            let outputs = engine.pump(pool);
            let returned = Instant::now();
            pump_s += (returned - t).as_secs_f64();
            attempted += 1;
            for output in &outputs {
                match output {
                    StreamOutput::Alarm { node, report } => digest.alarm(*node, report),
                    StreamOutput::Window {
                        node,
                        end_sample,
                        peak_hz,
                        classification,
                    } => {
                        digest.window(*node, *end_sample, *peak_hz, classification);
                        let completed = pushes[*node]
                            .iter()
                            .find(|&&(pushed, _)| pushed >= *end_sample)
                            .map_or(t, |&(_, at)| at);
                        ops_ms.push((returned - completed).as_secs_f64() * 1e3);
                    }
                }
            }
            for queue in &mut pushes {
                queue.clear();
            }
            steps_s.push(round.elapsed().as_secs_f64());
        }
        let wall_s = start.elapsed().as_secs_f64();
        let mut layers = Layers::new();
        let mut failed = 0;
        if traced {
            pool.set_obs(Obs::noop());
            add_stages(&obs, &mut layers);
            let replayed = replay(&self.signals, pool, CHUNK, Some(&mut layers));
            let inner: f64 = ["core.ingest_block_s", "dsp.stft_s", "core.classify_s"]
                .iter()
                .map(|k| layers[k])
                .sum();
            layers.insert("stream.push_s", push_s);
            layers.insert("stream.pump_s", (pump_s - inner).max(0.0));
            layers.insert("obs.covered_s", push_s + pump_s);
            layers.insert("stream.backpressure_retries", retries as f64);
            layers.insert(
                "stream.peak_resident_bytes",
                (engine.peak_resident_samples() * std::mem::size_of::<f64>()) as f64,
            );
            layers.insert(
                "core.classify_us_per_window",
                layers["core.classify_s"] * 1e6 / replayed.windows.max(1) as f64,
            );
            // The hand-composed layers must reproduce the engine.
            failed = u64::from(replayed.fingerprint() != digest.fingerprint());
        }
        Episode {
            wall_s,
            sim_s: SAMPLES as f64 / SAMPLE_RATE,
            samples: Some(cursors.iter().sum::<usize>() as u64),
            ops_ms,
            steps_s,
            fingerprint: digest.fingerprint(),
            attempted,
            failed,
            layers,
        }
    }
}
