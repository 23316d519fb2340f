//! `harbor-5x5`: the paper's 5×5 grid of always-awake buoys in a
//! 96-component sheltered-harbor sea, one 10 kn northbound passage,
//! driven by the tick sweep `run`. Phase-A ocean sensing dominates, so
//! an ocean or sensor change shows here in full.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sid_core::{IntrusionDetectionSystem, SystemConfig};
use sid_exec::Pool;
use sid_obs::Obs;
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

use crate::harness::{
    add, add_stages, ms_since, outcome_counts, seam, system_fingerprint, Episode, Layers,
    Reference, Workload,
};

/// Simulated seconds per episode: the passage, its detection and the
/// cluster window that confirms it.
const EPISODE_S: f64 = 300.0;

/// One operation: a `run` call over this many simulated seconds.
const SLICE_S: f64 = 2.0;

const ROWS: usize = 5;
const COLS: usize = 5;

/// The harbor workload's seed-derived inputs.
pub struct Harbor {
    seed: u64,
    cross_x: f64,
}

impl Harbor {
    /// Draws the ship's crossing point from `seed`. The scene is
    /// `sid-sim --rows 5 --cols 5 --ship 10:<x>:90`'s: the ship starts
    /// 600 m south of the grid centre line so the detectors have
    /// calibrated before its waves arrive.
    pub fn new(seed: u64) -> Self {
        let cross_x = StdRng::seed_from_u64(seed ^ 0x5417).gen_range(30.0..70.0);
        Harbor { seed, cross_x }
    }
}

impl Workload for Harbor {
    type Ready = IntrusionDetectionSystem;
    const NAME: &'static str = "harbor-5x5";
    const PINNED: u64 = 0x8c63_df4f_44e0_baf0;

    fn setup(&self, pool: &Arc<Pool>) -> IntrusionDetectionSystem {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 96, &mut rng);
        let mut scene = Scene::new(sea, ShipWaveModel::default());
        scene.add_ship(Ship::new(
            Vec2::new(self.cross_x, 50.0 - 600.0),
            Angle::from_degrees(90.0),
            Knots::new(10.0),
        ));
        let seed = self.seed.wrapping_mul(31) + 7;
        IntrusionDetectionSystem::new(scene, SystemConfig::paper_default(ROWS, COLS), seed)
            .with_pool(pool.clone())
    }

    /// The seam-driven run (`begin_tick` → `par_map(sense_at)` →
    /// `finish_tick`), which must equal `run` byte for byte.
    fn reference(&self, pool: &Arc<Pool>) -> Reference {
        let mut sys = self.setup(pool);
        let ticks = sys.tick_count(EPISODE_S);
        let samples = seam(&mut sys, pool, ticks, None);
        Reference {
            fingerprint: system_fingerprint(&sys),
            samples,
            node_ticks: ticks * sys.node_count() as u64,
            counts: outcome_counts(&[&sys]),
        }
    }

    fn episode(&self, sys: IntrusionDetectionSystem, pool: &Arc<Pool>, traced: bool) -> Episode {
        let slices = (EPISODE_S / SLICE_S).round() as usize;
        let mut ops_ms = Vec::with_capacity(slices);
        let mut layers = Layers::new();
        let start = Instant::now();
        let (sys, samples) = if traced {
            let obs = Obs::in_memory();
            pool.set_obs(obs.clone());
            let mut sys = sys.with_obs(obs.clone());
            let ticks = sys.tick_count(SLICE_S);
            let mut samples = 0;
            for _ in 0..slices {
                let t = Instant::now();
                samples += seam(&mut sys, pool, ticks, Some(&mut layers));
                ops_ms.push(ms_since(t));
            }
            pool.set_obs(Obs::noop());
            // The stages recorded inside begin_tick / finish_tick are
            // their children: subtract them to leave self time.
            add_stages(&obs, &mut layers);
            let faults = layers.get("net.faults_s").copied().unwrap_or(0.0);
            let inner = ["core.detect_s", "net.deliveries_s", "core.clusters_s"]
                .iter()
                .map(|k| layers.get(k).copied().unwrap_or(0.0))
                .sum::<f64>();
            add(&mut layers, "core.begin_tick_s", -faults);
            add(&mut layers, "core.finish_tick_s", -inner);
            (sys, Some(samples))
        } else {
            let mut sys = sys;
            for _ in 0..slices {
                let t = Instant::now();
                sys.run(SLICE_S);
                ops_ms.push(ms_since(t));
            }
            (sys, None)
        };
        let wall_s = start.elapsed().as_secs_f64();
        Episode {
            wall_s,
            sim_s: EPISODE_S,
            samples,
            steps_s: ops_ms.iter().map(|ms| ms / 1e3).collect(),
            ops_ms,
            fingerprint: system_fingerprint(&sys),
            attempted: slices as u64,
            failed: 0,
            layers,
        }
    }
}
