//! # sid-serve
//!
//! Long-running multi-tenant simulation service for the SID
//! reproduction (DESIGN.md §17): a [`SessionManager`] multiplexes N
//! independent tenant sessions — each a full detection pipeline with
//! its own seed, scenario, journal, and alerting edge — over one shared
//! `sid-exec` worker pool. A session records the spatial shard count
//! it was opened with ([`SessionSpec::with_shards`]) and carries it
//! through checkpoints; the count no longer changes dispatch, since the
//! pipeline senses one pool task per node over 32-tick windows.
//!
//! Everything stays deterministic: a session's journal is a pure
//! function of its builder + seed + advance schedule, byte-identical at
//! any pool width, shard count, and across checkpoint/migrate/resume.
//! Per-tenant journals are namespaced with the tenant label
//! ([`sid_obs::render_namespaced_journal`]) so N sessions can share one
//! log stream and still split apart byte-exactly.
//!
//! ## Sessions, checkpoints, migration
//!
//! A [`SessionCheckpoint`] is a *replayable description*, not a state
//! dump: the session's spec plus its exact advance schedule and the
//! journal fingerprint at checkpoint time. Resuming rebuilds the
//! pipeline from the builder, replays the schedule, and verifies the
//! replayed journal fingerprint against the checkpoint before handing
//! the session back — a divergence (wrong builder, wrong binary, a
//! non-deterministic host) is caught at the integrity gate instead of
//! silently corrupting the tenant's stream. Replay is the only exact
//! migration primitive for a full pipeline: the shared detector RNG is
//! deliberately not serializable, and the journal-purity contract makes
//! replay bit-exact. Hot detector-bank state (`sid-stream`'s
//! `StreamEngine`) migrates by value through its serde-proven
//! `EngineSnapshot` instead.
//!
//! # Examples
//!
//! Multiplex two tenants over one pool, then migrate one of them:
//!
//! ```
//! use sid_serve::{SessionManager, SessionSpec};
//! # use rand::SeedableRng;
//! # use sid_core::{Pipeline, SystemConfig};
//! # use sid_ocean::{Scene, SeaState, ShipWaveModel, WaveSpectrum};
//! # fn build(seed: u64) -> impl FnOnce() -> Pipeline {
//! #     move || {
//! #         let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
//! #         let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 16, &mut rng);
//! #         let scene = Scene::new(sea, ShipWaveModel::default());
//! #         Pipeline::new(scene, SystemConfig::paper_default(3, 3), seed)
//! #     }
//! # }
//! let mut mgr = SessionManager::with_threads(2);
//! let a = mgr.open(SessionSpec::new("harbor-a", 7), build(7));
//! let b = mgr.open(SessionSpec::new("harbor-b", 8).with_shards(2), build(8));
//! mgr.advance_all(20.0);
//!
//! // Each tenant carries its own deterministic journal.
//! let fp_a = mgr.session(a).unwrap().fingerprint();
//! let fp_b = mgr.session(b).unwrap().fingerprint();
//! assert_ne!(fp_a, fp_b);
//!
//! // Checkpoint tenant A, migrate it to a different worker assignment
//! // (a 1-thread manager), finish both — fingerprints must agree.
//! let ckpt = mgr.checkpoint(a).unwrap();
//! let mut other = SessionManager::with_threads(1);
//! let a2 = other.resume(&ckpt, build(7)).unwrap();
//! other.advance(a2, 20.0).unwrap();
//! mgr.advance(a, 20.0).unwrap();
//! assert_eq!(
//!     mgr.session(a).unwrap().fingerprint(),
//!     other.session(a2).unwrap().fingerprint(),
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use sid_core::IntrusionDetectionSystem;
use sid_exec::Pool;
use sid_obs::{journal_fingerprint, render_namespaced_journal, Event, Obs};

/// Opaque handle to an open session within one [`SessionManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw numeric id.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// What a tenant asks for when opening a session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Tenant label: namespaces the session's journal lines and names it
    /// in reports. Tabs/newlines are sanitized at render time.
    pub tenant: String,
    /// The session's deterministic seed (informational — the builder
    /// closure is what actually consumes it).
    pub seed: u64,
    /// Spatial shard count (1 = unsharded). Recorded and carried through
    /// checkpoints; it does not change dispatch (see
    /// [`IntrusionDetectionSystem::with_shards`]).
    pub shards: usize,
}

impl SessionSpec {
    /// An unsharded spec.
    pub fn new(tenant: impl Into<String>, seed: u64) -> Self {
        SessionSpec {
            tenant: tenant.into(),
            seed,
            shards: 1,
        }
    }

    /// Records a K-shard count for the session (carried, not acted on).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// Lifecycle state of a session (DESIGN.md §17's state machine; the
/// checkpointed and migrating states live in the [`SessionCheckpoint`]
/// value, not in the manager).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Opened (or resumed), no advance issued yet by this manager.
    Open,
    /// At least one advance has run.
    Running,
}

/// Errors from session operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No open session has this id (never issued, or already closed).
    UnknownSession(u64),
    /// A resume replay produced a different journal than the checkpoint
    /// recorded — the builder, binary, or host diverged from the
    /// original run, and the session must not continue.
    FingerprintMismatch {
        /// Tenant whose replay diverged.
        tenant: String,
        /// Fingerprint the checkpoint recorded.
        expected: u64,
        /// Fingerprint the replay produced.
        actual: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSession(id) => write!(f, "unknown session id {id}"),
            ServeError::FingerprintMismatch {
                tenant,
                expected,
                actual,
            } => write!(
                f,
                "resume integrity gate: tenant '{tenant}' replayed to {actual:016x}, \
                 checkpoint recorded {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// A replayable session checkpoint: the migration/rebalancing unit.
///
/// Serializable end to end (plain spec + schedule + fingerprint), so it
/// can cross a process or host boundary; the pipeline itself is rebuilt
/// on the far side from the same builder and verified against
/// `fingerprint` (see [`SessionManager::resume`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Tenant label.
    pub tenant: String,
    /// The session's seed.
    pub seed: u64,
    /// Shard count the session ran with (a resume may override it —
    /// shard count never changes the journal).
    pub shards: usize,
    /// Exact advance schedule issued so far, in seconds per call.
    /// Replaying these durations reproduces the identical tick
    /// boundaries, clock values, and journal bytes.
    pub advances: Vec<f64>,
    /// Journal events recorded at checkpoint time.
    pub events: usize,
    /// Journal fingerprint at checkpoint time (the integrity gate).
    pub fingerprint: u64,
}

/// Final (or in-flight) per-session summary, serializable for bench
/// reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Tenant label.
    pub tenant: String,
    /// Session seed.
    pub seed: u64,
    /// Shard count.
    pub shards: usize,
    /// Deployed node count.
    pub nodes: usize,
    /// Simulation ticks advanced.
    pub ticks: u64,
    /// Simulation seconds covered.
    pub sim_seconds: f64,
    /// Journal events recorded.
    pub events: usize,
    /// Journal fingerprint, hex (canonical bytes, namespace-independent).
    pub fingerprint: String,
}

/// One tenant's running pipeline plus its journal and advance history.
pub struct Session {
    spec: SessionSpec,
    pipeline: IntrusionDetectionSystem,
    obs: Obs,
    advances: Vec<f64>,
    ticks: u64,
    state: SessionState,
}

impl Session {
    /// Tenant label.
    pub fn tenant(&self) -> &str {
        &self.spec.tenant
    }

    /// The session's seed.
    pub fn seed(&self) -> u64 {
        self.spec.seed
    }

    /// Shard count the session runs with.
    pub fn shards(&self) -> usize {
        self.spec.shards
    }

    /// Lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Total simulation ticks advanced.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The journal so far, in canonical event form.
    pub fn events(&self) -> Vec<Event> {
        self.obs.events().expect("session journals are in-memory")
    }

    /// Journal fingerprint of the canonical bytes (namespace-free): the
    /// number two runs of this tenant must agree on.
    pub fn fingerprint(&self) -> u64 {
        journal_fingerprint(&self.events())
    }

    /// The journal rendered with the tenant-label namespace prefix, one
    /// event per line — safe to interleave with other tenants' output.
    pub fn journal(&self) -> String {
        render_namespaced_journal(&self.spec.tenant, &self.events())
    }

    /// The underlying pipeline (read-only; mutating it outside
    /// [`SessionManager::advance`] would desynchronize the checkpoint
    /// replay schedule).
    pub fn pipeline(&self) -> &IntrusionDetectionSystem {
        &self.pipeline
    }

    /// Current summary.
    pub fn report(&self) -> SessionReport {
        let events = self.events();
        SessionReport {
            tenant: self.spec.tenant.clone(),
            seed: self.spec.seed,
            shards: self.spec.shards,
            nodes: self.pipeline.node_count(),
            ticks: self.ticks,
            sim_seconds: self.pipeline.now(),
            events: events.len(),
            fingerprint: format!("{:016x}", journal_fingerprint(&events)),
        }
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("tenant", &self.spec.tenant)
            .field("seed", &self.spec.seed)
            .field("shards", &self.spec.shards)
            .field("ticks", &self.ticks)
            .field("state", &self.state)
            .finish()
    }
}

/// The multiplexer: owns N tenant sessions and drives them over one
/// shared worker pool. See the [crate docs](self) for the full
/// lifecycle example.
pub struct SessionManager {
    pool: Arc<Pool>,
    sessions: BTreeMap<u64, Session>,
    next: u64,
}

impl SessionManager {
    /// A manager driving its sessions on `pool`.
    pub fn new(pool: Arc<Pool>) -> Self {
        SessionManager {
            pool,
            sessions: BTreeMap::new(),
            next: 0,
        }
    }

    /// Convenience: a manager with its own `threads`-wide pool.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(Arc::new(Pool::new(threads)))
    }

    /// The shared worker pool sessions run on.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Ids of every open session, ascending.
    pub fn ids(&self) -> Vec<SessionId> {
        self.sessions.keys().map(|&k| SessionId(k)).collect()
    }

    /// A session by id.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.sessions.get(&id.0)
    }

    /// Opens a session: `build` constructs the tenant's pipeline
    /// (scene + config + seed — *without* attaching obs or a pool), and
    /// the manager wires in its own in-memory journal, the shared
    /// worker pool, and the spec's shard count. The same builder
    /// must be supplied again on [`resume`](Self::resume).
    pub fn open(
        &mut self,
        spec: SessionSpec,
        build: impl FnOnce() -> IntrusionDetectionSystem,
    ) -> SessionId {
        let obs = Obs::in_memory();
        let pipeline = build()
            .with_obs(obs.clone())
            .with_pool(self.pool.clone())
            .with_shards(spec.shards);
        let id = self.next;
        self.next += 1;
        self.sessions.insert(
            id,
            Session {
                spec,
                pipeline,
                obs,
                advances: Vec::new(),
                ticks: 0,
                state: SessionState::Open,
            },
        );
        SessionId(id)
    }

    /// Advances one session by `seconds` of simulation time on the
    /// event-driven driver, recording the duration in the session's
    /// replay schedule. Returns the ticks covered.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] when `id` is not open.
    pub fn advance(&mut self, id: SessionId, seconds: f64) -> Result<u64, ServeError> {
        let session = self
            .sessions
            .get_mut(&id.0)
            .ok_or(ServeError::UnknownSession(id.0))?;
        let ticks = session.pipeline.tick_count(seconds);
        session.pipeline.run_events(seconds);
        session.advances.push(seconds);
        session.ticks += ticks;
        session.state = SessionState::Running;
        Ok(ticks)
    }

    /// Advances every open session by `seconds`, in ascending session-id
    /// order (deterministic round-robin). Returns total ticks covered.
    pub fn advance_all(&mut self, seconds: f64) -> u64 {
        let ids = self.ids();
        let mut total = 0;
        for id in ids {
            total += self.advance(id, seconds).expect("id listed as open");
        }
        total
    }

    /// Captures a replayable checkpoint of a session (the session keeps
    /// running here; the checkpoint is a value that can migrate).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] when `id` is not open.
    pub fn checkpoint(&self, id: SessionId) -> Result<SessionCheckpoint, ServeError> {
        let session = self.session(id).ok_or(ServeError::UnknownSession(id.0))?;
        let events = session.events();
        Ok(SessionCheckpoint {
            tenant: session.spec.tenant.clone(),
            seed: session.spec.seed,
            shards: session.spec.shards,
            advances: session.advances.clone(),
            events: events.len(),
            fingerprint: journal_fingerprint(&events),
        })
    }

    /// Resumes a checkpointed session on *this* manager (possibly a
    /// different worker pool — that's the migration): rebuilds the
    /// pipeline with `build`, replays the checkpoint's advance schedule,
    /// and verifies the replayed journal fingerprint before returning
    /// the new id.
    ///
    /// # Errors
    ///
    /// [`ServeError::FingerprintMismatch`] when the replay diverges from
    /// what the checkpoint recorded; the session is not installed.
    pub fn resume(
        &mut self,
        checkpoint: &SessionCheckpoint,
        build: impl FnOnce() -> IntrusionDetectionSystem,
    ) -> Result<SessionId, ServeError> {
        self.resume_with_shards(checkpoint, checkpoint.shards, build)
    }

    /// [`resume`](Self::resume) recording a different shard count — a
    /// rebalancing migration. The count does not change dispatch and
    /// journals are shard-count-invariant, so the integrity gate still
    /// must pass bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`ServeError::FingerprintMismatch`] when the replay diverges.
    pub fn resume_with_shards(
        &mut self,
        checkpoint: &SessionCheckpoint,
        shards: usize,
        build: impl FnOnce() -> IntrusionDetectionSystem,
    ) -> Result<SessionId, ServeError> {
        let obs = Obs::in_memory();
        let mut pipeline = build()
            .with_obs(obs.clone())
            .with_pool(self.pool.clone())
            .with_shards(shards);
        let mut ticks = 0;
        for &seconds in &checkpoint.advances {
            ticks += pipeline.tick_count(seconds);
            pipeline.run_events(seconds);
        }
        let events = obs.events().expect("in-memory");
        let actual = journal_fingerprint(&events);
        if actual != checkpoint.fingerprint {
            return Err(ServeError::FingerprintMismatch {
                tenant: checkpoint.tenant.clone(),
                expected: checkpoint.fingerprint,
                actual,
            });
        }
        let id = self.next;
        self.next += 1;
        self.sessions.insert(
            id,
            Session {
                spec: SessionSpec {
                    tenant: checkpoint.tenant.clone(),
                    seed: checkpoint.seed,
                    shards: shards.max(1),
                },
                pipeline,
                obs,
                advances: checkpoint.advances.clone(),
                ticks,
                state: SessionState::Open,
            },
        );
        Ok(SessionId(id))
    }

    /// Closes a session, removing it and returning its final report.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] when `id` is not open.
    pub fn close(&mut self, id: SessionId) -> Result<SessionReport, ServeError> {
        let session = self
            .sessions
            .remove(&id.0)
            .ok_or(ServeError::UnknownSession(id.0))?;
        Ok(session.report())
    }
}

impl fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionManager")
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sid_core::{Pipeline, SystemConfig};
    use sid_ocean::{Angle, Knots, Scene, SeaState, Ship, ShipWaveModel, Vec2, WaveSpectrum};

    fn build(seed: u64) -> impl FnOnce() -> Pipeline {
        move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sea = SeaState::synthesize(WaveSpectrum::sheltered_harbor(), 32, &mut rng);
            let mut scene = Scene::new(sea, ShipWaveModel::default());
            scene.add_ship(Ship::new(
                Vec2::new(37.0, -120.0),
                Angle::from_degrees(90.0),
                Knots::new(12.0),
            ));
            Pipeline::new(scene, SystemConfig::paper_default(4, 4), seed)
        }
    }

    #[test]
    fn sessions_are_isolated_and_deterministic() {
        let run = |threads: usize| {
            let mut mgr = SessionManager::with_threads(threads);
            let ids: Vec<SessionId> = (0..3)
                .map(|i| {
                    mgr.open(
                        SessionSpec::new(format!("tenant-{i}"), 100 + i).with_shards(i as usize + 1),
                        build(100 + i),
                    )
                })
                .collect();
            for _ in 0..4 {
                mgr.advance_all(30.0);
            }
            ids.iter()
                .map(|&id| mgr.session(id).unwrap().fingerprint())
                .collect::<Vec<u64>>()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b, "fingerprints must not depend on pool width");
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0] != w[1]), "tenants must differ");
    }

    #[test]
    fn shard_count_does_not_change_a_session_journal() {
        let fp = |shards: usize| {
            let mut mgr = SessionManager::with_threads(2);
            let id = mgr.open(SessionSpec::new("t", 9).with_shards(shards), build(9));
            mgr.advance(id, 120.0).unwrap();
            mgr.session(id).unwrap().fingerprint()
        };
        let reference = fp(1);
        assert_eq!(fp(2), reference);
        assert_eq!(fp(4), reference);
    }

    #[test]
    fn checkpoint_migrate_resume_reproduces_the_journal() {
        let mut mgr = SessionManager::with_threads(4);
        let id = mgr.open(SessionSpec::new("migrant", 11).with_shards(2), build(11));
        mgr.advance(id, 60.0).unwrap();
        let ckpt = mgr.checkpoint(id).unwrap();
        // Serde round-trip: the checkpoint is the migration wire format.
        let json = serde_json::to_string(&ckpt).unwrap();
        let ckpt: SessionCheckpoint = serde_json::from_str(&json).unwrap();

        // Migrate onto a different pool AND a different shard layout.
        let mut other = SessionManager::with_threads(1);
        let id2 = other.resume_with_shards(&ckpt, 4, build(11)).unwrap();
        assert_eq!(other.session(id2).unwrap().ticks(), mgr.session(id).unwrap().ticks());

        mgr.advance(id, 60.0).unwrap();
        other.advance(id2, 60.0).unwrap();
        let a = mgr.close(id).unwrap();
        let b = other.close(id2).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn resume_integrity_gate_rejects_a_diverged_builder() {
        let mut mgr = SessionManager::with_threads(2);
        let id = mgr.open(SessionSpec::new("t", 5), build(5));
        mgr.advance(id, 60.0).unwrap();
        let ckpt = mgr.checkpoint(id).unwrap();
        let mut other = SessionManager::with_threads(2);
        // Wrong seed: the replay diverges and the gate must hold.
        match other.resume(&ckpt, build(6)) {
            Err(ServeError::FingerprintMismatch { tenant, .. }) => assert_eq!(tenant, "t"),
            other => panic!("integrity gate failed: {other:?}"),
        }
        assert!(other.is_empty(), "diverged session must not be installed");
    }

    #[test]
    fn namespaced_journals_interleave_and_split() {
        let mut mgr = SessionManager::with_threads(2);
        let a = mgr.open(SessionSpec::new("alpha", 21), build(21));
        let b = mgr.open(SessionSpec::new("beta", 22), build(22));
        mgr.advance_all(60.0);
        let merged = format!(
            "{}\n{}",
            mgr.session(a).unwrap().journal(),
            mgr.session(b).unwrap().journal()
        );
        let alpha_lines = merged.lines().filter(|l| l.starts_with("alpha\t")).count();
        assert_eq!(alpha_lines, mgr.session(a).unwrap().events().len());
        assert!(merged.lines().all(|l| l.contains('\t')));
    }

    #[test]
    fn unknown_session_errors() {
        let mut mgr = SessionManager::with_threads(1);
        let id = mgr.open(SessionSpec::new("t", 1), build(1));
        mgr.close(id).unwrap();
        assert_eq!(
            mgr.advance(id, 1.0),
            Err(ServeError::UnknownSession(id.value()))
        );
        assert!(mgr.checkpoint(id).is_err());
        assert!(mgr.close(id).is_err());
        assert_eq!(mgr.len(), 0);
    }
}
