//! Equivalence test for the event-driven pipeline loop (`run_events`):
//! byte-identical to the tick sweep on any worker-pool size. The ordering
//! contract of the queue it drains is property-tested in `sid-net`
//! (`crates/net/tests/prop_net.rs`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use sid_core::{DutyCycleConfig, IntrusionDetectionSystem, SystemConfig};
use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

/// The event-driven driver is byte-identical to the tick sweep on worker
/// pools of 1, 2, 4 and 8 threads: the active set shrinks Phase A, but
/// results are still placed by node index and all RNG draws stay
/// sequential on the caller thread, so pool size must not matter.
#[test]
fn event_loop_is_byte_identical_across_pool_sizes() {
    let build = || {
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
        IntrusionDetectionSystem::new(scene, config, 9 ^ 0xdead)
    };
    let fingerprint = |threads: usize, events: bool| {
        let mut sys = build().with_pool(std::sync::Arc::new(sid_exec::Pool::new(threads)));
        if events {
            sys.run_events(90.0);
        } else {
            sys.run(90.0);
        }
        format!(
            "{}|{}|{:.12e}|{}",
            serde_json::to_string(sys.trace()).expect("serialisable"),
            serde_json::to_string(&sys.net_stats()).expect("serialisable"),
            sys.total_energy_mj(),
            sys.now().to_bits(),
        )
    };
    let reference = fingerprint(1, false);
    for threads in [1, 2, 4, 8] {
        assert_eq!(
            reference,
            fingerprint(threads, true),
            "event loop on {threads} threads diverged from the sequential tick sweep"
        );
    }
}
