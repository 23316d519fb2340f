//! Discrete-event scheduling and message delivery.
//!
//! [`EventScheduler`] is a generic time-ordered queue; [`Network`] combines
//! a [`Topology`], a [`RadioModel`] and a scheduler into the message
//! fabric the detection system runs on: unicast to radio neighbors,
//! neighborhood broadcast, and bounded flooding (the paper's "inform its
//! neighbor nodes within N hops").

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::Rng;
use serde::{Deserialize, Serialize};
use sid_obs::{Event, Obs};

use crate::fault::{BurstState, GilbertElliott};
use crate::radio::RadioModel;
use crate::topology::Topology;
use crate::NodeId;

/// A scheduled item.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A generic min-time event queue with stable FIFO ordering for ties.
///
/// This is the system's one `(time, seq)` queue: the network's in-flight
/// deliveries and the detection pipeline's event-driven wake-ups
/// (`sid_core::sched`) both run on it.
///
/// # Ordering contract
///
/// Events pop in ascending time order. Events scheduled for the *same*
/// time pop in **insertion order**: a monotone sequence number breaks
/// ties, so replaying the same `schedule` calls yields the same pop
/// order, bit for bit, however the underlying heap arranges equal keys.
/// NaN times are rejected at `schedule`, so the order is total.
///
/// # Examples
///
/// ```
/// use sid_net::EventScheduler;
///
/// let mut q = EventScheduler::new();
/// q.schedule(2.0, "later");
/// q.schedule(1.0, "sooner");
/// q.schedule(1.0, "tie"); // same time: insertion order breaks the tie
/// assert_eq!(q.pop_due(1.0), Some((1.0, "sooner")));
/// assert_eq!(q.pop_until(1.5), vec![(1.0, "tie")]);
/// assert_eq!(q.next_time(), Some(2.0));
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EventScheduler<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> EventScheduler<E> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        EventScheduler {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Time of the next event, if any.
    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Pops the earliest event if it is due: `time <= now`, so an event
    /// at exactly `now` counts as due.
    pub fn pop_due(&mut self, now: f64) -> Option<(f64, E)> {
        if self.heap.peek().is_some_and(|s| s.time <= now) {
            self.heap.pop().map(|s| (s.time, s.event))
        } else {
            None
        }
    }

    /// Pops every event with `time <= until`, in time order.
    pub fn pop_until(&mut self, until: f64) -> Vec<(f64, E)> {
        std::iter::from_fn(|| self.pop_due(until)).collect()
    }
}

impl<E> Default for EventScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A message in flight or delivered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Delivery<M> {
    /// Originating node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Hops travelled.
    pub hops: u16,
    /// The payload.
    pub msg: M,
}

/// Traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NetStats {
    /// Transmissions attempted (per hop).
    pub transmissions: u64,
    /// Deliveries completed.
    pub delivered: u64,
    /// Packets lost to the radio.
    pub dropped: u64,
    /// Unicast attempts to out-of-range destinations.
    pub out_of_range: u64,
    /// Total seconds frames spent waiting for their sender's radio
    /// (egress congestion).
    pub queueing_delay_total: f64,
    /// Packets lost to the burst-state (Gilbert–Elliott) channel,
    /// a subset of `dropped`.
    pub burst_dropped: u64,
    /// Transmissions suppressed because an endpoint was down, plus
    /// in-flight packets whose destination went down before arrival.
    pub blocked_down: u64,
}

/// Egress serialisation: a node's radio sends one frame at a time, so a
/// burst of transmissions queues — the network congestion the paper cites
/// as a reason positive reports "may not be transmitted back timely".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CongestionModel {
    /// Frames a node can put on the air per second; 0 disables the model
    /// (infinite bandwidth).
    pub frames_per_sec: f64,
}

impl CongestionModel {
    /// No serialisation delay.
    pub fn unlimited() -> Self {
        CongestionModel { frames_per_sec: 0.0 }
    }

    /// An 802.15.4-class radio moving small SID frames: ~50 frames/s.
    pub fn ieee802154() -> Self {
        CongestionModel {
            frames_per_sec: 50.0,
        }
    }
}

impl Default for CongestionModel {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// The message fabric: topology + radio + in-flight queue.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sid_net::{Network, RadioModel, Topology};
///
/// let topo = Topology::grid(2, 3, 25.0, 30.0);
/// let mut net: Network<&str> = Network::new(topo, RadioModel::reliable());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// net.unicast(0.into(), 1.into(), "alarm", 10.0, &mut rng);
/// let delivered = net.poll(11.0);
/// assert_eq!(delivered.len(), 1);
/// assert_eq!(delivered[0].1.msg, "alarm");
/// ```
#[derive(Debug, Clone)]
pub struct Network<M> {
    topology: Topology,
    radio: RadioModel,
    congestion: CongestionModel,
    /// Optional burst-loss channel layered on the i.i.d. radio.
    burst: Option<GilbertElliott>,
    /// Per-origin Gilbert–Elliott chain state. Multi-hop forwards step the
    /// originating sender's chain once per hop: the burst episode models a
    /// time-correlated interference environment around the packet stream's
    /// source region (per-link state would need O(n²) chains for little
    /// extra fidelity at grid scale).
    burst_state: Vec<BurstState>,
    /// Per node: down (dead or in outage) — neither sends, relays, nor
    /// receives.
    node_down: Vec<bool>,
    /// Count of `true` entries in `node_down`, so the per-poll
    /// "anyone down?" check is O(1) instead of an O(n) scan.
    down_count: usize,
    /// Per node: earliest time its radio is free for the next frame.
    egress_free_at: Vec<f64>,
    /// In-flight deliveries in `(arrival time, send order)` order.
    queue: EventScheduler<Delivery<M>>,
    stats: NetStats,
    /// Observability sink for drop events (no-op by default).
    obs: Obs,
}

impl<M: Clone> Network<M> {
    /// Creates a network over the given topology and radio, with
    /// unlimited egress bandwidth (no congestion).
    ///
    /// # Panics
    ///
    /// Panics if the radio model is invalid (see [`RadioModel::validate`]).
    pub fn new(topology: Topology, radio: RadioModel) -> Self {
        Self::with_congestion(topology, radio, CongestionModel::unlimited())
    }

    /// Creates a network with an egress-serialisation (congestion) model.
    ///
    /// # Panics
    ///
    /// Panics if the radio model is invalid.
    pub fn with_congestion(
        topology: Topology,
        radio: RadioModel,
        congestion: CongestionModel,
    ) -> Self {
        radio.validate();
        let n = topology.len();
        Network {
            topology,
            radio,
            congestion,
            burst: None,
            burst_state: vec![BurstState::new(); n],
            node_down: vec![false; n],
            down_count: 0,
            egress_free_at: vec![0.0; n],
            queue: EventScheduler::new(),
            stats: NetStats::default(),
            obs: Obs::noop(),
        }
    }

    /// Attaches an observability recorder: radio, burst and down-endpoint
    /// losses are journalled as [`Event::RadioDrop`]. The default handle
    /// is the no-op recorder.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Layers a Gilbert–Elliott burst-loss channel on top of the i.i.d.
    /// radio. Passing a [`GilbertElliott::disabled`] model removes the
    /// layer entirely (and costs no RNG draws).
    ///
    /// # Panics
    ///
    /// Panics if the model's probabilities are invalid.
    pub fn set_burst_model(&mut self, model: GilbertElliott) {
        model.validate();
        self.burst = (!model.is_disabled()).then_some(model);
    }

    /// The active burst-loss model, if any.
    pub fn burst_model(&self) -> Option<GilbertElliott> {
        self.burst
    }

    /// Marks a node down (battery death or transient outage) or back up.
    /// A down node neither sends, relays, nor receives; in-flight packets
    /// addressed to it are discarded at delivery time.
    pub fn set_node_down(&mut self, node: NodeId, down: bool) {
        let slot = &mut self.node_down[node.index()];
        if *slot != down {
            *slot = down;
            if down {
                self.down_count += 1;
            } else {
                self.down_count -= 1;
            }
        }
    }

    /// Whether `node` is currently down.
    pub fn is_node_down(&self, node: NodeId) -> bool {
        self.node_down[node.index()]
    }

    fn any_down(&self) -> bool {
        self.down_count > 0
    }

    /// The arrival time of the earliest in-flight packet, if any.
    /// Event-driven drivers use this to [`poll`](Self::poll) only on
    /// ticks with an arrival actually due, instead of every tick.
    pub fn next_arrival(&self) -> Option<f64> {
        self.queue.next_time()
    }

    /// One physical transmission by `sender` at time `now`: steps the
    /// sender's burst chain (when a burst model is set), then the i.i.d.
    /// radio. Returns the hop latency on success.
    fn attempt_hop<R: Rng + ?Sized>(
        &mut self,
        sender: NodeId,
        now: f64,
        rng: &mut R,
    ) -> Option<f64> {
        self.stats.transmissions += 1;
        if let Some(model) = self.burst {
            if self.burst_state[sender.index()].step(&model, rng) {
                self.stats.dropped += 1;
                self.stats.burst_dropped += 1;
                if self.obs.enabled() {
                    self.obs.record(Event::RadioDrop {
                        time: now,
                        node: sender.value(),
                        cause: "burst".to_string(),
                    });
                }
                return None;
            }
        }
        match self.radio.try_transmit(rng) {
            Some(latency) => Some(latency),
            None => {
                self.stats.dropped += 1;
                if self.obs.enabled() {
                    self.obs.record(Event::RadioDrop {
                        time: now,
                        node: sender.value(),
                        cause: "radio".to_string(),
                    });
                }
                None
            }
        }
    }

    /// BFS hop counts from `from` with down nodes excluded (they cannot
    /// relay or receive). Matches [`Topology::hops_from`] exactly when no
    /// node is down.
    fn hops_excluding_down(&self, from: NodeId) -> Vec<u16> {
        let n = self.topology.len();
        let mut hops = vec![u16::MAX; n];
        if self.node_down[from.index()] {
            return hops;
        }
        hops[from.index()] = 0;
        let mut frontier = vec![from];
        let mut depth = 0u16;
        while !frontier.is_empty() && depth < u16::MAX {
            depth += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in self.topology.neighbors(u) {
                    if self.node_down[v.index()] || hops[v.index()] != u16::MAX {
                        continue;
                    }
                    hops[v.index()] = depth;
                    next.push(v);
                }
            }
            frontier = next;
        }
        hops
    }

    /// Reserves the sender's radio: returns the time the frame actually
    /// starts transmitting (≥ `now` under congestion) and books the slot.
    fn egress_start(&mut self, from: NodeId, now: f64) -> f64 {
        if self.congestion.frames_per_sec <= 0.0 {
            return now;
        }
        let start = now.max(self.egress_free_at[from.index()]);
        let service = 1.0 / self.congestion.frames_per_sec;
        self.egress_free_at[from.index()] = start + service;
        let queued = start - now;
        if queued > 0.0 {
            self.stats.queueing_delay_total += queued;
        }
        start
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Sends `msg` from `from` to a direct radio neighbor `to` at time
    /// `now`. Returns `true` if the transmission was scheduled (it may
    /// still be lost only if out of range — loss is decided immediately).
    pub fn unicast<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        now: f64,
        rng: &mut R,
    ) -> bool {
        if self.node_down[from.index()] || self.node_down[to.index()] {
            self.stats.blocked_down += 1;
            return false;
        }
        if !self.topology.in_range(from, to) {
            self.stats.out_of_range += 1;
            return false;
        }
        match self.attempt_hop(from, now, rng) {
            Some(latency) => {
                let start = self.egress_start(from, now);
                self.queue.schedule(
                    start + latency,
                    Delivery {
                        from,
                        to,
                        hops: 1,
                        msg,
                    },
                );
                true
            }
            None => false,
        }
    }

    /// Broadcasts `msg` to every radio neighbor of `from`; each neighbor
    /// independently experiences loss and latency. Returns the number of
    /// scheduled deliveries.
    pub fn broadcast<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        msg: M,
        now: f64,
        rng: &mut R,
    ) -> usize {
        let neighbors: Vec<NodeId> = self.topology.neighbors(from).to_vec();
        neighbors
            .into_iter()
            .filter(|&to| self.unicast(from, to, msg.clone(), now, rng))
            .count()
    }

    /// Floods `msg` from `from` to every node within `max_hops`, following
    /// BFS tree paths with per-hop loss and latency compounding. Returns
    /// the number of nodes the flood reached.
    ///
    /// This models the paper's temporary-cluster setup ("informs its
    /// neighbor nodes within N hops"): each node is reached along its
    /// shortest path; losing any hop on that path loses the node.
    pub fn flood<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        msg: M,
        now: f64,
        max_hops: u16,
        rng: &mut R,
    ) -> usize {
        if self.node_down[from.index()] {
            self.stats.blocked_down += 1;
            return 0;
        }
        let hops = if self.any_down() {
            self.hops_excluding_down(from)
        } else {
            self.topology.hops_from(from)
        };
        let start = self.egress_start(from, now);
        let mut reached = 0;
        let destinations: Vec<NodeId> = self.topology.node_ids().collect();
        for to in destinations {
            let h = hops[to.index()];
            if to == from || h == 0 || h > max_hops || h == u16::MAX {
                continue;
            }
            // Compound per-hop transmissions along the shortest path.
            let mut latency = 0.0;
            let mut lost = false;
            for _ in 0..h {
                match self.attempt_hop(from, now, rng) {
                    Some(l) => latency += l,
                    None => {
                        lost = true;
                        break;
                    }
                }
            }
            if lost {
                continue;
            }
            reached += 1;
            self.queue.schedule(
                start + latency,
                Delivery {
                    from,
                    to,
                    hops: h,
                    msg: msg.clone(),
                },
            );
        }
        reached
    }

    /// Routes `msg` from `from` to an arbitrary node `to` along the
    /// shortest radio path, compounding per-hop loss and latency (the
    /// geographic-forwarding path a member uses to reach its temporary
    /// cluster head). Returns `true` if the message survived every hop.
    pub fn route<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        now: f64,
        rng: &mut R,
    ) -> bool {
        if self.node_down[from.index()] || self.node_down[to.index()] {
            self.stats.blocked_down += 1;
            return false;
        }
        if from == to {
            // Local delivery: immediate, lossless.
            self.queue.schedule(
                now,
                Delivery {
                    from,
                    to,
                    hops: 0,
                    msg,
                },
            );
            return true;
        }
        let h = if self.any_down() {
            self.hops_excluding_down(from)[to.index()]
        } else {
            self.topology.hops_from(from)[to.index()]
        };
        if h == u16::MAX {
            self.stats.out_of_range += 1;
            return false;
        }
        let start = self.egress_start(from, now);
        let mut latency = start - now;
        for _ in 0..h {
            match self.attempt_hop(from, now, rng) {
                Some(l) => latency += l,
                None => return false,
            }
        }
        self.queue.schedule(
            now + latency,
            Delivery {
                from,
                to,
                hops: h,
                msg,
            },
        );
        true
    }

    /// Delivers every in-flight message with arrival time ≤ `until`,
    /// in arrival order. Each returned tuple is `(arrival_time, delivery)`.
    /// Packets whose destination went down after transmission are
    /// discarded here (counted under `dropped` and `blocked_down`).
    pub fn poll(&mut self, until: f64) -> Vec<(f64, Delivery<M>)> {
        let mut out = self.queue.pop_until(until);
        if self.any_down() {
            out.retain(|(arrival, d)| {
                let up = !self.node_down[d.to.index()];
                if !up {
                    self.stats.dropped += 1;
                    self.stats.blocked_down += 1;
                    if self.obs.enabled() {
                        self.obs.record(Event::RadioDrop {
                            time: *arrival,
                            node: d.to.value(),
                            cause: "endpoint_down".to_string(),
                        });
                    }
                }
                up
            });
        }
        self.stats.delivered += out.len() as u64;
        out
    }

    /// Number of messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reliable_net() -> Network<u32> {
        Network::new(Topology::grid(3, 3, 25.0, 30.0), RadioModel::reliable())
    }

    #[test]
    fn scheduler_orders_by_time_then_fifo() {
        let mut q = EventScheduler::new();
        q.schedule(5.0, "c");
        q.schedule(1.0, "a");
        q.schedule(1.0, "b"); // same time: FIFO
        let events = q.pop_until(10.0);
        assert_eq!(
            events,
            vec![(1.0, "a"), (1.0, "b"), (5.0, "c")]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn scheduler_pop_until_is_partial() {
        let mut q = EventScheduler::new();
        for i in 0..10 {
            q.schedule(i as f64, i);
        }
        assert_eq!(q.pop_until(4.5).len(), 5);
        assert_eq!(q.next_time(), Some(5.0));
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn pop_due_treats_the_boundary_time_as_due() {
        let mut q = EventScheduler::new();
        q.schedule(2.0, "deadline");
        assert_eq!(q.pop_due(1.999), None, "not due before its time");
        assert_eq!(q.pop_due(2.0), Some((2.0, "deadline")));
        assert_eq!(q.pop_due(f64::INFINITY), None);
    }

    #[test]
    #[should_panic(expected = "event time must not be NaN")]
    fn scheduler_rejects_nan() {
        // A NaN deadline is never `<=` any `pop_due` boundary, so it
        // would never fire; `schedule` refuses it instead.
        let mut q = EventScheduler::new();
        q.schedule(1.0, ());
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn unicast_delivers_in_range() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(net.unicast(0.into(), 1.into(), 42, 0.0, &mut rng));
        let out = net.poll(1.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.msg, 42);
        assert_eq!(out[0].1.hops, 1);
        assert!(out[0].0 > 0.0);
    }

    #[test]
    fn unicast_rejects_out_of_range() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(2);
        // 0 → 8 is the far corner, not a direct neighbor.
        assert!(!net.unicast(0.into(), 8.into(), 1, 0.0, &mut rng));
        assert_eq!(net.stats().out_of_range, 1);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(3);
        // Centre node 4 has 4 orthogonal neighbors.
        let n = net.broadcast(4.into(), 7, 0.0, &mut rng);
        assert_eq!(n, 4);
        assert_eq!(net.poll(1.0).len(), 4);
    }

    #[test]
    fn flood_reaches_hop_bounded_set() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(4);
        let reached = net.flood(0.into(), 9, 0.0, 2, &mut rng);
        // Manhattan ball radius 2 from corner of 3×3 grid, minus origin:
        // (0,1),(1,0),(0,2),(1,1),(2,0) → 5 nodes.
        assert_eq!(reached, 5);
        let deliveries = net.poll(10.0);
        assert_eq!(deliveries.len(), 5);
        // Multi-hop deliveries are later than single-hop on average.
        for (_, d) in &deliveries {
            assert!(d.hops <= 2);
        }
    }

    #[test]
    fn lossy_flood_loses_some_nodes() {
        let topo = Topology::grid(8, 8, 25.0, 30.0);
        let mut net: Network<u8> = Network::new(
            topo,
            RadioModel {
                loss_probability: 0.3,
                base_latency: 0.01,
                latency_jitter: 0.0,
                mac_retries: 0,
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let reached = net.flood(0.into(), 0, 0.0, 6, &mut rng);
        let eligible = net.topology().nodes_within_hops(0.into(), 6).len() - 1;
        assert!(reached < eligible, "loss should prune the flood");
        assert!(reached > 0);
        assert!(net.stats().dropped > 0);
    }

    #[test]
    fn stats_track_traffic() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(6);
        net.unicast(0.into(), 1.into(), 1, 0.0, &mut rng);
        net.broadcast(4.into(), 2, 0.0, &mut rng);
        net.poll(10.0);
        let s = net.stats();
        assert_eq!(s.transmissions, 5);
        assert_eq!(s.delivered, 5);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn route_traverses_multiple_hops() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(8);
        // Corner to corner of the 3×3 grid: 4 hops.
        assert!(net.route(0.into(), 8.into(), 99, 0.0, &mut rng));
        let out = net.poll(10.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.hops, 4);
        assert!((out[0].0 - 4.0 * 0.005).abs() < 1e-12);
    }

    #[test]
    fn route_to_self_is_immediate() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(net.route(3.into(), 3.into(), 1, 5.0, &mut rng));
        let out = net.poll(5.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 5.0);
        assert_eq!(out[0].1.hops, 0);
    }

    #[test]
    fn route_fails_probabilistically_per_hop() {
        let topo = Topology::grid(1, 10, 25.0, 30.0);
        let mut net: Network<u8> = Network::new(
            topo,
            RadioModel {
                loss_probability: 0.2,
                base_latency: 0.01,
                latency_jitter: 0.0,
                mac_retries: 0,
            },
        );
        let mut rng = StdRng::seed_from_u64(10);
        let n = 2000;
        let ok = (0..n)
            .filter(|_| net.route(0.into(), 9.into(), 0, 0.0, &mut rng))
            .count();
        let rate = ok as f64 / n as f64;
        let expected = 0.8f64.powi(9);
        assert!((rate - expected).abs() < 0.03, "rate {rate} vs {expected}");
    }

    #[test]
    fn congestion_serialises_a_burst() {
        let topo = Topology::grid(1, 2, 25.0, 30.0);
        let mut net: Network<usize> = Network::with_congestion(
            topo,
            RadioModel::reliable(),
            CongestionModel { frames_per_sec: 10.0 }, // 100 ms per frame
        );
        let mut rng = StdRng::seed_from_u64(11);
        // Ten frames queued at t = 0 from the same sender.
        for i in 0..10 {
            assert!(net.unicast(0.into(), 1.into(), i, 0.0, &mut rng));
        }
        let out = net.poll(f64::INFINITY);
        assert_eq!(out.len(), 10);
        // Arrivals are spaced by the 100 ms service time.
        for (k, (t, d)) in out.iter().enumerate() {
            assert!((*t - (k as f64 * 0.1 + 0.005)).abs() < 1e-9, "frame {k} at {t}");
            assert_eq!(d.msg, k);
        }
        // Nine frames waited: 0.1+0.2+...+0.9 = 4.5 s of queueing.
        assert!((net.stats().queueing_delay_total - 4.5).abs() < 1e-9);
    }

    #[test]
    fn unlimited_bandwidth_has_no_queueing() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(12);
        for i in 0..20 {
            net.unicast(0.into(), 1.into(), i, 0.0, &mut rng);
        }
        assert_eq!(net.stats().queueing_delay_total, 0.0);
        // All arrive at the same latency.
        let out = net.poll(1.0);
        assert!(out.iter().all(|(t, _)| (*t - 0.005).abs() < 1e-12));
    }

    #[test]
    fn distinct_senders_do_not_block_each_other() {
        let topo = Topology::grid(1, 3, 25.0, 30.0);
        let mut net: Network<u8> = Network::with_congestion(
            topo,
            RadioModel::reliable(),
            CongestionModel { frames_per_sec: 10.0 },
        );
        let mut rng = StdRng::seed_from_u64(13);
        net.unicast(0.into(), 1.into(), 0, 0.0, &mut rng);
        net.unicast(2.into(), 1.into(), 1, 0.0, &mut rng);
        let out = net.poll(1.0);
        // Both arrive promptly: independent radios.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(t, _)| *t < 0.01));
        assert_eq!(net.stats().queueing_delay_total, 0.0);
    }

    #[test]
    fn burst_channel_adds_correlated_losses() {
        use crate::fault::GilbertElliott;
        let topo = Topology::grid(1, 2, 25.0, 30.0);
        let mut net: Network<u32> = Network::new(topo, RadioModel::reliable());
        net.set_burst_model(GilbertElliott::sea_surface(1.0));
        let mut rng = StdRng::seed_from_u64(31);
        let n = 5000;
        let ok = (0..n)
            .filter(|&i| net.unicast(0.into(), 1.into(), i, 0.0, &mut rng))
            .count();
        let stats = net.stats();
        assert!(stats.burst_dropped > 0, "bursts never fired");
        assert_eq!(stats.dropped, stats.burst_dropped, "reliable radio: only bursts drop");
        assert_eq!(ok as u64 + stats.dropped, n as u64);
        // Severity-1 stationary loss is substantial but far from total.
        let rate = ok as f64 / n as f64;
        let expected = 1.0 - GilbertElliott::sea_surface(1.0).average_loss();
        assert!((rate - expected).abs() < 0.05, "delivery {rate} vs {expected}");
    }

    #[test]
    fn disabled_burst_model_is_removed() {
        use crate::fault::GilbertElliott;
        let mut net = reliable_net();
        net.set_burst_model(GilbertElliott::sea_surface(0.7));
        assert!(net.burst_model().is_some());
        net.set_burst_model(GilbertElliott::disabled());
        assert!(net.burst_model().is_none());
    }

    #[test]
    fn down_endpoints_block_unicast() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(32);
        net.set_node_down(1.into(), true);
        assert!(!net.unicast(0.into(), 1.into(), 1, 0.0, &mut rng));
        assert!(!net.unicast(1.into(), 0.into(), 2, 0.0, &mut rng));
        assert_eq!(net.stats().blocked_down, 2);
        assert_eq!(net.stats().transmissions, 0);
        net.set_node_down(1.into(), false);
        assert!(net.unicast(0.into(), 1.into(), 3, 0.0, &mut rng));
    }

    #[test]
    fn route_detours_around_down_relay() {
        // 3×3 grid, corner 0 → corner 2 along the top row is 2 hops via
        // node 1; with node 1 down the shortest live path is 4 hops.
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(33);
        net.set_node_down(1.into(), true);
        assert!(net.route(0.into(), 2.into(), 9, 0.0, &mut rng));
        let out = net.poll(10.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.hops, 4);
    }

    #[test]
    fn flood_skips_down_nodes() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(34);
        net.set_node_down(1.into(), true);
        // Centre flood reaches the 7 live others (8 minus the down node).
        let reached = net.flood(4.into(), 0, 0.0, 4, &mut rng);
        assert_eq!(reached, 7);
    }

    #[test]
    fn in_flight_packet_to_newly_down_node_is_discarded() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(35);
        assert!(net.unicast(0.into(), 1.into(), 7, 0.0, &mut rng));
        net.set_node_down(1.into(), true);
        assert!(net.poll(10.0).is_empty());
        assert_eq!(net.stats().blocked_down, 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn down_source_cannot_flood() {
        let mut net = reliable_net();
        let mut rng = StdRng::seed_from_u64(36);
        net.set_node_down(4.into(), true);
        assert_eq!(net.flood(4.into(), 0, 0.0, 4, &mut rng), 0);
        assert_eq!(net.stats().blocked_down, 1);
    }

    #[test]
    fn obs_journals_radio_and_endpoint_drops() {
        let topo = Topology::grid(1, 3, 25.0, 30.0);
        let mut net: Network<u8> = Network::new(
            topo,
            RadioModel {
                loss_probability: 0.5,
                base_latency: 0.01,
                latency_jitter: 0.0,
                mac_retries: 0,
            },
        );
        let obs = Obs::in_memory();
        net.set_obs(obs.clone());
        let mut rng = StdRng::seed_from_u64(40);
        for _ in 0..40 {
            net.unicast(0.into(), 1.into(), 1, 2.5, &mut rng);
        }
        let counts = obs.counts();
        assert_eq!(counts.radio_drops, net.stats().dropped);
        assert!(counts.radio_drops > 0);
        // Every drop event carries the sender and the transmission time.
        for ev in obs.events().expect("in-memory") {
            assert_eq!(ev.time(), Some(2.5));
            assert_eq!(ev.kind(), "radio_drop");
        }
        // A packet caught in flight by a dying endpoint is journalled too.
        net.poll(5.0); // drain the survivors of the burst above first
        while !net.unicast(2.into(), 1.into(), 2, 10.0, &mut rng) {}
        net.set_node_down(1.into(), true);
        net.poll(20.0);
        assert_eq!(obs.counts().endpoint_down_drops, 1);
    }

    #[test]
    fn deliveries_arrive_in_time_order() {
        let topo = Topology::grid(1, 8, 25.0, 30.0);
        let mut net: Network<usize> = Network::new(
            topo,
            RadioModel {
                loss_probability: 0.0,
                base_latency: 0.01,
                latency_jitter: 0.05,
                mac_retries: 0,
            },
        );
        let mut rng = StdRng::seed_from_u64(7);
        net.flood(0.into(), 0, 0.0, 7, &mut rng);
        let out = net.poll(100.0);
        let times: Vec<f64> = out.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
