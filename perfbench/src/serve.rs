//! `serve-12`: twelve `sid-dst` tenants (265 nodes in all, shard counts
//! cycling 1/2/4) on one `SessionManager`, advanced round-robin in short
//! slices by one closed-loop caller. Mid-episode one tenant per shard
//! count is checkpointed and resumed with a different shard count, so
//! the shard merge and the replay path run beside the advances.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sid_core::IntrusionDetectionSystem;
use sid_dst::{Sabotage, Scenario, SeaKind, ShipSpec};
use sid_exec::Pool;
use sid_net::{FaultPlan, FaultPlanConfig};
use sid_obs::{fnv1a, journal_fingerprint, Obs};
use sid_serve::{SessionId, SessionManager, SessionSpec};

use crate::harness::{add, add_stages, outcome_counts, seam, Episode, Layers, Reference, Workload};

/// Grid shape of each tenant slot: 265 nodes in all, the size of the
/// `serve_bench` population. Fixed so that every seed carries the same
/// amount of work; the seed draws the sea, ship and faults.
const SLOTS: [(usize, usize); 12] = [
    (4, 4),
    (5, 5),
    (6, 4),
    (3, 5),
    (5, 6),
    (4, 5),
    (6, 6),
    (3, 4),
    (5, 4),
    (4, 6),
    (5, 5),
    (3, 6),
];

/// Shard counts cycle through these by slot.
const SHARDS: [usize; 3] = [1, 2, 4];

/// Simulated seconds each tenant advances per episode.
const EPISODE_S: f64 = 60.0;
/// One operation: a `SessionManager::advance` of this many seconds.
const SLICE_S: f64 = 3.0;
/// Round-robin rounds after which the migrations happen.
const MIGRATE_AFTER: usize = 10;
/// The migrating tenants: slots 0, 1 and 2, one per shard count. The
/// same every episode, so every episode does the same work.
const MIGRATING: std::ops::Range<usize> = 0..3;

/// The serve workload's seed-derived tenant population.
pub struct Serve {
    tenants: Vec<(SessionSpec, Scenario)>,
}

/// An open population: the manager, one session per slot, and the time
/// opening took.
pub struct ReadyServe {
    mgr: SessionManager,
    ids: Vec<SessionId>,
    open_s: f64,
}

/// One tenant: a `sid-dst` scenario on its slot's grid, with a
/// northbound passage, sea phases and a fault campaign drawn from
/// `seed`.
fn tenant(seed: u64, slot: usize) -> Scenario {
    let (rows, cols) = SLOTS[slot];
    let tseed = seed.wrapping_mul(1000).wrapping_add(5000 + slot as u64);
    let mut rng = StdRng::seed_from_u64(tseed ^ 0x7E4A_4751);
    let grid_width = (cols - 1) as f64 * 25.0;
    let ship = ShipSpec {
        x: rng.gen_range(0.2..0.8) * grid_width,
        y: rng.gen_range(-120.0..-40.0),
        heading_deg: 90.0,
        knots: rng.gen_range(8.0..14.0),
    };
    let faults = FaultPlan::generate(
        rows * cols,
        &FaultPlanConfig {
            spare: Some(0),
            ..FaultPlanConfig::chaos(0.3, EPISODE_S)
        },
        tseed ^ 0xDE7E_C7ED,
    )
    .events()
    .to_vec();
    Scenario {
        seed: tseed,
        rows,
        cols,
        spacing: 25.0,
        free_form: false,
        duration: EPISODE_S,
        sea: SeaKind::ShelteredHarbor,
        sea_components: 64,
        ships: vec![ship],
        duty_cycle: slot % 4 == 3,
        burst_severity: if slot % 2 == 1 { 0.3 } else { 0.0 },
        dead_node_fraction: 0.0,
        faults,
        check_threads: false,
        check_stream: false,
        alert_storm: false,
        check_frontend: false,
        check_sched: false,
        check_shard: false,
        fleet: None,
    }
}

fn builder(scenario: &Scenario) -> impl FnOnce() -> IntrusionDetectionSystem {
    let scenario = scenario.clone();
    move || scenario.build_bare(Sabotage::None)
}

impl Serve {
    /// Generates the twelve tenants from `seed`.
    pub fn new(seed: u64) -> Self {
        let tenants = (0..SLOTS.len())
            .map(|slot| {
                let scenario = tenant(seed, slot);
                let spec = SessionSpec::new(format!("tenant-{slot}"), scenario.seed)
                    .with_shards(SHARDS[slot % SHARDS.len()]);
                (spec, scenario)
            })
            .collect();
        Serve { tenants }
    }
}

/// Folds per-tenant journal fingerprints, in slot order, into one.
fn combine(fingerprints: impl Iterator<Item = u64>) -> u64 {
    fingerprints.fold(0, |h, fp| fnv1a(h, &fp.to_le_bytes()))
}

impl Workload for Serve {
    type Ready = ReadyServe;
    const NAME: &'static str = "serve-12";
    const PINNED: u64 = 0x303c_8560_0aa4_6968;
    const OP_LAYERS: Option<(&'static str, &'static str)> =
        Some(("serve.advance_p50_ms", "serve.advance_p90_ms"));

    fn setup(&self, pool: &Arc<Pool>) -> ReadyServe {
        let t = Instant::now();
        let mut mgr = SessionManager::new(pool.clone());
        let ids = self
            .tenants
            .iter()
            .map(|(spec, scenario)| mgr.open(spec.clone(), builder(scenario)))
            .collect();
        ReadyServe {
            mgr,
            ids,
            open_s: t.elapsed().as_secs_f64(),
        }
    }

    /// Each tenant alone, unsharded, unmigrated, on the fixed-tick sweep
    /// through the streaming seam in one call: the journal every served
    /// tenant must land on.
    fn reference(&self, pool: &Arc<Pool>) -> Reference {
        let mut samples = 0;
        let mut node_ticks = 0;
        let mut fingerprints = Vec::new();
        let mut events = 0;
        let mut systems = Vec::new();
        for (_, scenario) in &self.tenants {
            let obs = Obs::in_memory();
            let mut sys = scenario.build_bare(Sabotage::None).with_obs(obs.clone());
            let ticks = sys.tick_count(EPISODE_S);
            samples += seam(&mut sys, pool, ticks, None);
            node_ticks += ticks * sys.node_count() as u64;
            let journal = obs.events().expect("in-memory recorder");
            events += journal.len();
            fingerprints.push(journal_fingerprint(&journal));
            systems.push(sys);
        }
        let mut counts = outcome_counts(&systems.iter().collect::<Vec<_>>());
        counts.insert("serve.journal_events", events as f64);
        Reference {
            fingerprint: combine(fingerprints.into_iter()),
            samples,
            node_ticks,
            counts,
        }
    }

    fn episode(&self, ready: ReadyServe, pool: &Arc<Pool>, traced: bool) -> Episode {
        let ReadyServe {
            mut mgr,
            mut ids,
            open_s,
        } = ready;
        let obs = Obs::in_memory();
        if traced {
            pool.set_obs(obs.clone());
        }
        let rounds = (EPISODE_S / SLICE_S).round() as usize;
        let mut ops_ms = Vec::with_capacity(rounds * ids.len());
        let mut steps_s = Vec::with_capacity(rounds * ids.len() + MIGRATING.len());
        let mut layers = Layers::new();
        let mut failed = 0;
        let mut attempted = 0;
        let mut replayed_s = 0.0;
        let start = Instant::now();
        for round in 0..rounds {
            if round == MIGRATE_AFTER {
                for slot in MIGRATING {
                    let (_, scenario) = &self.tenants[slot];
                    let shards = SHARDS[(slot + 1) % SHARDS.len()];
                    attempted += 3;
                    let t = Instant::now();
                    let Ok(ckpt) = mgr.checkpoint(ids[slot]) else {
                        failed += 3;
                        continue;
                    };
                    let t1 = Instant::now();
                    let resumed = mgr.resume_with_shards(&ckpt, shards, builder(scenario));
                    let t2 = Instant::now();
                    let closed = mgr.close(ids[slot]);
                    add(&mut layers, "serve.checkpoint_s", (t1 - t).as_secs_f64());
                    add(&mut layers, "serve.resume_s", (t2 - t1).as_secs_f64());
                    add(&mut layers, "serve.close_s", t2.elapsed().as_secs_f64());
                    add(&mut layers, "serve.migrations", 1.0);
                    steps_s.push(t.elapsed().as_secs_f64());
                    add(&mut layers, "obs.covered_s", steps_s[steps_s.len() - 1]);
                    replayed_s += ckpt.advances.iter().sum::<f64>();
                    failed += u64::from(closed.is_err());
                    match resumed {
                        Ok(id) => ids[slot] = id,
                        Err(_) => failed += 2,
                    }
                }
            }
            for &id in &ids {
                attempted += 1;
                let t = Instant::now();
                failed += u64::from(mgr.advance(id, SLICE_S).is_err());
                steps_s.push(t.elapsed().as_secs_f64());
                ops_ms.push(steps_s[steps_s.len() - 1] * 1e3);
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        if traced {
            pool.set_obs(Obs::noop());
            add_stages(&obs, &mut layers);
            let advance_s = ops_ms.iter().sum::<f64>() / 1e3;
            let migrations = layers.remove("serve.migrations").unwrap_or(0.0);
            let resume_s = layers.get("serve.resume_s").copied().unwrap_or(0.0);
            let migrate_s = layers.get("serve.checkpoint_s").copied().unwrap_or(0.0) + resume_s;
            layers.insert("serve.migrate_s", migrate_s / migrations.max(1.0));
            layers.insert(
                "serve.replay_x_realtime",
                replayed_s / resume_s.max(f64::MIN_POSITIVE),
            );
            add(&mut layers, "serve.open_s", open_s);
            add(&mut layers, "obs.covered_s", advance_s);
            // SessionManager::advance is opaque and keeps each session's
            // recorder to itself: the same tenants advanced through
            // run_events with a recorder attached give its breakdown.
            let inner = self.shadow_advance(pool, &mut layers);
            add(&mut layers, "serve.advance_s", (advance_s - inner).max(0.0));
        }
        let fingerprint = combine(
            ids.iter()
                .map(|&id| mgr.session(id).map_or(0, |session| session.fingerprint())),
        );
        Episode {
            wall_s,
            sim_s: EPISODE_S * ids.len() as f64,
            samples: None,
            ops_ms,
            steps_s,
            fingerprint,
            attempted,
            failed,
            layers,
        }
    }
}

impl Serve {
    /// Advances every tenant one episode through `run_events` in the
    /// manager's slices, with an in-memory recorder attached, adding the
    /// stage spans to `layers` and the scheduler remainder to
    /// `core.sched_s`. Returns the summed `run_events` time.
    fn shadow_advance(&self, pool: &Arc<Pool>, layers: &mut Layers) -> f64 {
        let rounds = (EPISODE_S / SLICE_S).round() as usize;
        let mut total = 0.0;
        let mut stages = 0.0;
        for (spec, scenario) in &self.tenants {
            let obs = Obs::in_memory();
            let mut sys = scenario
                .build_bare(Sabotage::None)
                .with_obs(obs.clone())
                .with_pool(pool.clone())
                .with_shards(spec.shards);
            for _ in 0..rounds {
                let t = Instant::now();
                sys.run_events(SLICE_S);
                total += t.elapsed().as_secs_f64();
            }
            stages += add_stages(&obs, layers);
        }
        add(layers, "core.sched_s", total - stages);
        total
    }
}
