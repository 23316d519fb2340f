//! `fleet-2048`: the `fleet_bench` coastline — 2048 duty-cycled buoys
//! in 8 clusters, a 16-node sentinel picket, a chaos-0.3 fault campaign
//! and one intruder — on the event-driven scheduler `run_events`. The
//! tick layers run sparsely here, so the scheduler, the spatial-hash
//! index and small-batch `sid-exec` dispatch matter.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sid_core::{DutyCycleConfig, IntrusionDetectionSystem, SystemConfig};
use sid_exec::Pool;
use sid_net::{FaultPlanConfig, NeighborIndex, Position, Topology};
use sid_obs::Obs;
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

use crate::harness::{
    add, add_stages, ms_since, outcome_counts, seam, system_fingerprint, Episode, Layers,
    Reference, Workload,
};

const NODES: usize = 2048;
const CLUSTERS: usize = 8;
/// Scatter radius around each cluster centre (m).
const CLUSTER_RADIUS: f64 = 90.0;
/// Simulated seconds per episode.
const EPISODE_S: f64 = 180.0;
/// One operation: a `run_events` call over this many simulated seconds.
const SLICE_S: f64 = 10.0;

/// The fleet workload's seed-derived inputs.
pub struct Fleet {
    seed: u64,
    positions: Vec<Position>,
    sea: SeaState,
    ship_x: f64,
}

/// A built fleet plus the time its neighbor index took.
pub struct ReadyFleet {
    sys: IntrusionDetectionSystem,
    index_build_s: f64,
}

impl Fleet {
    /// Draws the coastline layout and the sea from `seed`: cluster
    /// centres strung eastward, nodes scattered round-robin about them,
    /// node 0 (the sink) on the first centre.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE_7BE4C);
        let centres: Vec<(f64, f64)> = (0..CLUSTERS)
            .map(|k| {
                (
                    k as f64 * 180.0 + rng.gen_range(-40.0..40.0),
                    rng.gen_range(0.0..260.0),
                )
            })
            .collect();
        let positions = (0..NODES)
            .map(|i| {
                let (cx, cy) = centres[i % CLUSTERS];
                let dx = rng.gen_range(-1.0..1.0) * CLUSTER_RADIUS;
                let dy = rng.gen_range(-1.0..1.0) * CLUSTER_RADIUS;
                if i == 0 {
                    Position { x: cx, y: cy }
                } else {
                    Position {
                        x: cx + dx,
                        y: cy + dy,
                    }
                }
            })
            .collect();
        let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 24, &mut rng);
        Fleet {
            seed,
            positions,
            sea,
            ship_x: centres[0].0,
        }
    }
}

impl Workload for Fleet {
    type Ready = ReadyFleet;
    const NAME: &'static str = "fleet-2048";
    const PINNED: u64 = 0xee35_35c3_ead9_fc55;

    fn setup(&self, pool: &Arc<Pool>) -> ReadyFleet {
        let mut config = SystemConfig {
            duty_cycle: DutyCycleConfig {
                enabled: true,
                wake_duration: 60.0,
                ..DutyCycleConfig::default()
            },
            ..SystemConfig::paper_default(4, 4)
        };
        config.faults = FaultPlanConfig {
            spare: Some(0),
            ..FaultPlanConfig::chaos(0.3, EPISODE_S)
        };
        let t = Instant::now();
        let topology = Topology::from_positions_with(
            self.positions.clone(),
            config.radio_range,
            NeighborIndex::SpatialHash,
        );
        let index_build_s = t.elapsed().as_secs_f64();
        let mut scene = Scene::new(self.sea.clone(), ShipWaveModel::default());
        scene.add_ship(Ship::new(
            Vec2::new(self.ship_x, -80.0),
            Angle::from_degrees(90.0),
            Knots::new(12.0),
        ));
        let sys = IntrusionDetectionSystem::with_topology(scene, config, self.seed, topology)
            .with_sentinel_index_stride(NODES / 16)
            .with_pool(pool.clone());
        ReadyFleet { sys, index_build_s }
    }

    /// The fixed-tick sweep through the streaming seam, which must
    /// equal `run_events` byte for byte and counts the awake samples.
    fn reference(&self, pool: &Arc<Pool>) -> Reference {
        let mut sys = self.setup(pool).sys;
        let ticks = sys.tick_count(EPISODE_S);
        let samples = seam(&mut sys, pool, ticks, None);
        Reference {
            fingerprint: system_fingerprint(&sys),
            samples,
            node_ticks: ticks * NODES as u64,
            counts: outcome_counts(&[&sys]),
        }
    }

    fn episode(&self, ready: ReadyFleet, pool: &Arc<Pool>, traced: bool) -> Episode {
        let slices = (EPISODE_S / SLICE_S).round() as usize;
        let mut ops_ms = Vec::with_capacity(slices);
        let mut layers = Layers::new();
        let obs = Obs::in_memory();
        let mut sys = ready.sys;
        if traced {
            pool.set_obs(obs.clone());
            sys = sys.with_obs(obs.clone());
        }
        let start = Instant::now();
        for _ in 0..slices {
            let t = Instant::now();
            sys.run_events(SLICE_S);
            ops_ms.push(ms_since(t));
        }
        let wall_s = start.elapsed().as_secs_f64();
        if traced {
            pool.set_obs(Obs::noop());
            // run_events is opaque: its own stage spans fill in the
            // layers, and what they leave uncovered is the scheduler.
            let calls = ops_ms.iter().sum::<f64>() / 1e3;
            let stages = add_stages(&obs, &mut layers);
            add(&mut layers, "core.sched_s", calls - stages);
            add(&mut layers, "obs.covered_s", calls);
            add(&mut layers, "net.index_build_s", ready.index_build_s);
        }
        Episode {
            wall_s,
            sim_s: EPISODE_S,
            samples: None,
            steps_s: ops_ms.iter().map(|ms| ms / 1e3).collect(),
            ops_ms,
            fingerprint: system_fingerprint(&sys),
            attempted: slices as u64,
            failed: 0,
            layers,
        }
    }
}
