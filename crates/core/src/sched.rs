//! Event taxonomy for the event-driven pipeline loop.
//!
//! [`Pipeline::run`](crate::Pipeline::run) sweeps every node on every
//! 20 ms tick; for a duty-cycled field where most buoys sleep most of
//! the time that is almost entirely wasted work.
//! [`Pipeline::run_events`](crate::Pipeline::run_events) instead drains
//! a [`sid_net::EventScheduler`] of typed wake-up events
//! ([`SchedEvent`]) and touches only the nodes and subsystems that
//! actually have something due.
//!
//! # Ordering contract
//!
//! The queue is `sid-net`'s [`EventScheduler`](sid_net::EventScheduler),
//! the same `(time, seq)` queue that orders radio deliveries: events pop
//! in ascending time order, and events scheduled for the *same* time pop
//! in **insertion order**. Replaying the same schedule calls yields the
//! same pop order, bit for bit; the DST `scheduler_equivalence` oracle
//! leans on this.
//!
//! Consumers that need a *semantic* order within one tick (e.g. the
//! pipeline processes node events in ascending node index so the shared
//! RNG is drawn in tick-loop order) must bucket the due events and sort
//! them; the queue itself promises only time-then-insertion order.

/// A typed wake-up reason for the event-driven pipeline loop.
///
/// Node-scoped variants carry the node's grid index. The pipeline keeps
/// the *work* in the same methods the tick loop uses; an event only
/// says "this kind of work may be due now".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// Node `idx` was invited while asleep and starts sampling at the
    /// next tick (invites land in the delivery phase; the tick loop
    /// first sees `wake_until > now` one tick later).
    DutyWake(usize),
    /// Node `idx`'s `wake_until` lease expires at this time. Stale if
    /// a later invite extended the lease — consumers re-check and
    /// reschedule (lazy deletion).
    DutySleep(usize),
    /// Node `idx`'s communication outage is due to clear.
    OutageEnd(usize),
    /// Node `idx`'s battery may cross depletion around this time and
    /// must be re-checked (sleeping nodes drain deterministically, so
    /// the check is scheduled conservatively early and re-armed).
    BatteryCheck(usize),
    /// The fault plan has an injection due.
    FaultDue,
    /// The network delivery queue has an arrival due; the pipeline
    /// polls it at this tick instead of every tick.
    RadioDelivery,
    /// Some active cluster's collection window closes at this time.
    ClusterDeadline,
    /// The alerting edge has a coalesced summary due to flush.
    AlertFlush,
    /// A scheduled detection retune applies at this time.
    RetuneAt,
}
