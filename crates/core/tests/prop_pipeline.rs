//! Property tests on the end-to-end system: structural invariants that
//! must hold for any scenario, seed and configuration.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sid_core::{DutyCycleConfig, IntrusionDetectionSystem, SystemConfig};
use sid_net::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, GilbertElliott};
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

fn build_system(
    seed: u64,
    rows: usize,
    cols: usize,
    ship: Option<(f64, f64)>,
    duty: bool,
    dead_fraction: f64,
) -> IntrusionDetectionSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 48, &mut rng);
    let mut scene = Scene::new(sea, ShipWaveModel::default());
    if let Some((knots, cross_x)) = ship {
        scene.add_ship(Ship::new(
            Vec2::new(cross_x, -200.0),
            Angle::from_degrees(90.0),
            Knots::new(knots),
        ));
    }
    let config = SystemConfig {
        duty_cycle: DutyCycleConfig {
            enabled: duty,
            ..DutyCycleConfig::default()
        },
        dead_node_fraction: dead_fraction,
        ..SystemConfig::paper_default(rows, cols)
    };
    IntrusionDetectionSystem::new(scene, config, seed ^ 0xdead)
}

proptest! {
    // Short runs keep the suite fast; the invariants are per-tick, so
    // brevity does not weaken them.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn trace_invariants_hold_for_any_scenario(
        seed in 0u64..1_000,
        rows in 2usize..5,
        cols in 2usize..5,
        knots in 6.0..18.0f64,
        cross in 0.0..75.0f64,
        duty in any::<bool>(),
        dead in 0.0..0.5f64,
    ) {
        let mut sys = build_system(seed, rows, cols, Some((knots, cross)), duty, dead);
        sys.run(60.0);
        let t = sys.trace();
        // Cluster bookkeeping balances.
        prop_assert!(t.clusters_cancelled <= t.clusters_formed);
        prop_assert!(t.cluster_outcomes.len() <= t.clusters_formed);
        let confirmed = t.cluster_outcomes.iter().filter(|o| o.confirmed).count();
        // Every sink detection stems from a confirmed cluster (some
        // confirmations may be lost in transit, never the other way).
        prop_assert!(t.sink_detections.len() <= confirmed);
        // Reports are well-formed.
        for r in &t.node_reports {
            prop_assert!(r.onset_time <= r.report_time + 1e-9);
            prop_assert!((0.0..=1.0).contains(&r.anomaly_frequency));
            prop_assert!(r.energy >= 0.0);
        }
        // Confirmed outcomes clear the decision bar.
        for o in &t.cluster_outcomes {
            if o.confirmed {
                prop_assert!(o.c > 0.4 && o.rows >= 4, "confirmed with C={} rows={}", o.c, o.rows);
            }
            prop_assert!(o.evaluated_at >= o.formed_at);
        }
        // Energy and time advance.
        prop_assert!(sys.total_energy_mj() > 0.0);
        prop_assert!(sys.now() >= 59.9);
        // Incident count never exceeds sink confirmations.
        prop_assert!(sys.sink_tracker().incidents().len() <= t.sink_detections.len().max(1));
    }

    #[test]
    fn determinism_for_any_seed(seed in 0u64..500) {
        let run = || {
            let mut sys = build_system(seed, 3, 3, Some((10.0, 30.0)), false, 0.0);
            sys.run(40.0);
            (sys.trace().clone(), sys.total_energy_mj())
        };
        let (t1, e1) = run();
        let (t2, e2) = run();
        prop_assert_eq!(t1, t2);
        prop_assert!((e1 - e2).abs() < 1e-9);
    }

    #[test]
    fn fault_campaign_replays_byte_identically(
        seed in 0u64..300,
        dead in 0.0..0.3f64,
        severity in 0.0..1.0f64,
    ) {
        // A chaos run is still a deterministic function of its seed: two
        // replays must produce byte-identical sink-side output.
        let run = || {
            let mut rng = StdRng::seed_from_u64(seed);
            let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 48, &mut rng);
            let mut scene = Scene::new(sea, ShipWaveModel::default());
            scene.add_ship(Ship::new(
                Vec2::new(30.0, -200.0),
                Angle::from_degrees(90.0),
                Knots::new(10.0),
            ));
            let config = SystemConfig {
                burst: GilbertElliott::sea_surface(severity),
                faults: FaultPlanConfig {
                    death_fraction: dead,
                    outage_fraction: 0.2,
                    drift_spike_fraction: 0.2,
                    stuck_fraction: 0.1,
                    horizon: 60.0,
                    spare: Some(0),
                    ..FaultPlanConfig::default()
                },
                ..SystemConfig::paper_default(4, 4)
            };
            let mut sys = IntrusionDetectionSystem::new(scene, config, seed ^ 0xFA11);
            sys.run(60.0);
            let sink = serde_json::to_string(sys.sink_tracker()).expect("serialisable");
            let trace = serde_json::to_string(sys.trace()).expect("serialisable");
            (sink, trace)
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn duty_cycling_never_uses_more_energy(seed in 0u64..200) {
        let mut cycled = build_system(seed, 4, 4, None, true, 0.0);
        cycled.run(50.0);
        let mut always = build_system(seed, 4, 4, None, false, 0.0);
        always.run(50.0);
        prop_assert!(cycled.total_energy_mj() <= always.total_energy_mj() + 1e-6);
    }
}

/// Satellite equivalence property: running the pipeline on worker pools of
/// 1, 2, 4 and 8 threads produces byte-identical traces, network counters,
/// sink-tracker state and energy books. Determinism is structural (results
/// placed by node index, RNG draws sequential), so this must hold exactly —
/// no tolerance.
#[test]
fn parallel_runs_are_byte_identical_to_sequential() {
    // Two contrasting scenarios: a clean intrusion, and a duty-cycled grid
    // with dead nodes (exercises the sleep/wake branches of the tick loop).
    type Scenario = (u64, Option<(f64, f64)>, bool, f64);
    let scenarios: [Scenario; 2] = [(41, Some((12.0, 40.0)), false, 0.0), (77, None, true, 0.2)];
    for (seed, ship, duty, dead) in scenarios {
        let fingerprint = |threads: usize| {
            let mut sys = build_system(seed, 4, 4, ship, duty, dead)
                .with_pool(std::sync::Arc::new(sid_exec::Pool::new(threads)));
            sys.run(45.0);
            format!(
                "{}|{}|{}|{:.12e}",
                serde_json::to_string(sys.trace()).expect("serialisable"),
                serde_json::to_string(&sys.net_stats()).expect("serialisable"),
                serde_json::to_string(sys.sink_tracker()).expect("serialisable"),
                sys.total_energy_mj(),
            )
        };
        let sequential = fingerprint(1);
        for threads in [2, 4, 8] {
            let parallel = fingerprint(threads);
            assert_eq!(
                sequential, parallel,
                "pool of {threads} threads diverged from sequential (seed {seed})"
            );
        }
    }
}

/// `run` senses Phase A in 32-tick windows precomputed from each window's
/// first sampling set. It must stay byte-identical to the per-tick
/// `begin_tick` → `sense_at` → `finish_tick` seam when nodes join or
/// leave that set mid-window — a death, an outage and its recovery, and
/// duty-cycle wake-ups — and when `run` is sliced into calls that are
/// not whole windows (1, 15 and 85 ticks), on pools of 1, 2 and 4
/// threads. Journal bytes, trace, network counters, clock and every
/// node's energy are compared exactly.
#[test]
fn windowed_run_equals_the_seam_when_nodes_join_or_leave_mid_window() {
    // 255 is a multiple of every slice's tick count, so every run ends
    // on the same tick.
    const TICKS: u64 = 255 * 15;
    let build = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(9);
        let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 48, &mut rng);
        let mut scene = Scene::new(sea, ShipWaveModel::default());
        scene.add_ship(Ship::new(
            Vec2::new(40.0, -200.0),
            Angle::from_degrees(90.0),
            Knots::new(10.0),
        ));
        let config = SystemConfig {
            duty_cycle: DutyCycleConfig {
                enabled: true,
                ..DutyCycleConfig::default()
            },
            ..SystemConfig::paper_default(4, 4)
        };
        // Nodes 2 and 8 are sentinels (rows and columns 0 and 2), so
        // they are sampling when the faults strike.
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                time: 5.13,
                node: 8,
                kind: FaultKind::Death,
            },
            FaultEvent {
                time: 7.31,
                node: 2,
                kind: FaultKind::Outage { duration: 3.0 },
            },
        ]);
        let obs = sid_obs::Obs::in_memory();
        let sys = IntrusionDetectionSystem::with_fault_plan(scene, config, 9 ^ 0xdead, plan)
            .with_pool(std::sync::Arc::new(sid_exec::Pool::new(threads)))
            .with_obs(obs.clone());
        (sys, obs)
    };
    let fingerprint = |sys: &IntrusionDetectionSystem, obs: &sid_obs::Obs| {
        let energy: Vec<u64> = (0..sys.node_count())
            .map(|i| sys.node_energy_mj(i).to_bits())
            .collect();
        format!(
            "{}|{}|{}|{:?}|{}",
            sid_obs::render_journal(&obs.events().expect("in-memory journal")),
            serde_json::to_string(sys.trace()).expect("serialisable"),
            serde_json::to_string(&sys.net_stats()).expect("serialisable"),
            energy,
            sys.now().to_bits(),
        )
    };

    // The per-tick seam, counting sampling-set joins and leaves.
    let (mut seam, seam_obs) = build(1);
    let (mut sampling, mut previous) = (Vec::new(), Vec::new());
    let (mut joins, mut leaves) = (0, 0);
    for _ in 0..TICKS {
        let now = seam.begin_tick(&mut sampling);
        joins += sampling.iter().filter(|i| !previous.contains(*i)).count();
        leaves += previous.iter().filter(|i| !sampling.contains(*i)).count();
        previous.clone_from(&sampling);
        let envs: Vec<_> = sampling.iter().map(|&i| seam.sense_at(i, now)).collect();
        seam.finish_tick(&sampling, &envs);
    }
    // Beyond the first tick's 4 sentinels: the outage recovery and at
    // least one duty-cycle wake join; the death and the outage leave.
    assert!(joins > 5, "only {joins} joins");
    assert!(leaves >= 2, "only {leaves} leaves");
    let reference = fingerprint(&seam, &seam_obs);

    for slice in [0.02, 0.3, 1.7] {
        for threads in [1, 2, 4] {
            let (mut sys, obs) = build(threads);
            let calls = TICKS / sys.tick_count(slice);
            for _ in 0..calls {
                sys.run(slice);
            }
            assert_eq!(
                reference,
                fingerprint(&sys, &obs),
                "run({slice}) on {threads} threads diverged from the per-tick seam"
            );
        }
    }
}
