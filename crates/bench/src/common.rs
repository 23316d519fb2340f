//! Shared scaffolding for the experiment binaries: scenario builders and
//! result output.

use std::fs;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

/// Builds the standard experiment sea: the sheltered near-coast water the
/// paper's deployment floated in.
pub fn harbor_sea(seed: u64) -> SeaState {
    let mut rng = StdRng::seed_from_u64(seed);
    SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 96, &mut rng)
}

/// A scene with no ships.
pub fn quiet_scene(seed: u64) -> Scene {
    Scene::new(harbor_sea(seed), ShipWaveModel::default())
}

/// A scene with one ship passing the origin at `lateral` metres with the
/// given speed, heading east; returns the scene and the wave-train
/// arrival time at the origin.
pub fn passing_ship_scene(seed: u64, lateral: f64, knots: f64) -> (Scene, f64) {
    let mut scene = quiet_scene(seed);
    scene.add_ship(Ship::new(
        Vec2::new(-600.0, -lateral),
        Angle::from_degrees(0.0),
        Knots::new(knots),
    ));
    let arrival = scene.passage_events(Vec2::ZERO, 3600.0)[0].arrival_time;
    (scene, arrival)
}

/// A scene with a northbound ship crossing a grid whose columns sit at
/// `x = 0, 25, …`; the track crosses at `cross_x`.
pub fn northbound_scene(seed: u64, cross_x: f64, knots: f64, start_y: f64) -> Scene {
    let mut scene = quiet_scene(seed);
    scene.add_ship(Ship::new(
        Vec2::new(cross_x, start_y),
        Angle::from_degrees(90.0),
        Knots::new(knots),
    ));
    scene
}

/// Serialises a result to pretty JSON (best-effort: failure prints a
/// warning and returns `None`). Split from the file write so parallel jobs
/// can render on worker threads while the main thread writes and prints in
/// deterministic order.
pub fn render_json<T: Serialize>(name: &str, value: &T) -> Option<String> {
    match serde_json::to_string_pretty(value) {
        Ok(json) => Some(json),
        Err(e) => {
            eprintln!("warning: cannot serialise {name}: {e}");
            None
        }
    }
}

/// Writes already-rendered JSON to `results/<name>.json` (best-effort:
/// failures print a warning instead of aborting the experiment).
pub fn write_json_rendered(name: &str, json: &str) {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = fs::write(&path, json) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        println!("\n[results written to {}]", path.display());
    }
}

/// Writes a serialisable result to `results/<name>.json` (best-effort:
/// failures print a warning instead of aborting the experiment).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    if let Some(json) = render_json(name, value) {
        write_json_rendered(name, &json);
    }
}

/// Writes a run's observability summary beside the env-selected journal
/// (see [`sid_obs::summary_path_for_journal`]), where `obs_check` pairs
/// the two, and — when `commit` is set — to `results/OBS_summary.json`.
/// Smoke runs pass `commit = false` so they leave the committed
/// artifact alone.
pub fn write_obs_summary(summary: &sid_obs::RunSummary, commit: bool) {
    let Some(json) = render_json("OBS_summary", summary) else {
        return;
    };
    let path = sid_obs::summary_path_for_journal(&sid_obs::journal_path_from_env());
    if let Some(dir) = path.parent() {
        // Best effort: a failure shows up as the write warning below.
        let _ = fs::create_dir_all(dir);
    }
    match fs::write(&path, &json) {
        Ok(()) => println!("[run summary written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    if commit {
        write_json_rendered("OBS_summary", &json);
    }
}

/// Reads the committed baseline a `--check` gate is judged against: the
/// number at the nested object-key path `keys` in the JSON file at
/// `path`. Call it *before* measuring, so a failing run cannot judge
/// itself against numbers it produced. A missing or unparsable file, or
/// a missing key, is a gate failure: it prints `"<gate> --check: …"` and
/// exits the process with status 2 (a regression is status 1, reported
/// by the caller).
pub fn committed_baseline(gate: &str, path: &str, keys: &[&str]) -> f64 {
    let read = || -> Result<f64, String> {
        let json = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let baseline: serde::Value =
            serde_json::from_str(&json).map_err(|e| format!("cannot parse {path}: {e}"))?;
        keys.iter()
            .try_fold(&baseline, |value, key| {
                value.as_map().and_then(|m| serde::map_get(m, key).ok())
            })
            .and_then(serde::Value::as_f64)
            .ok_or_else(|| format!("{path} has no {}", keys.join(".")))
    };
    read().unwrap_or_else(|e| {
        eprintln!("{gate} --check: {e}");
        std::process::exit(2);
    })
}

/// The measuring host's core count (`std::thread::available_parallelism`),
/// recorded in every bench report beside its thread counts.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Formats a probability as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:5.1} %", 100.0 * x)
}
