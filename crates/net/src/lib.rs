//! # sid-net
//!
//! Wireless-sensor-network substrate for the SID reproduction: the
//! communication fabric the paper's cooperative detection runs on,
//! replacing the real iMote2 radio deployment with a discrete-event
//! simulation (see DESIGN.md §2).
//!
//! * [`Topology`] — grid (or arbitrary) node placement, disc-radio
//!   neighborhoods, BFS hop counts.
//! * [`RadioModel`] — per-transmission loss and latency jitter, the error
//!   processes the paper cites as motivation for cluster-level fusion.
//! * [`EventScheduler`] / [`Network`] — time-ordered delivery with
//!   unicast, neighborhood broadcast, and N-hop flooding.
//! * [`StaticCells`] / [`TempCluster`] — the paper's static cells and
//!   on-demand temporary clusters (Section IV-C).
//! * [`SyncModel`] — residual time-sync error versus hop distance.
//! * [`GilbertElliott`] / [`FaultPlan`] — burst-loss channels and
//!   replayable node-fault campaigns for chaos runs (see DESIGN.md's
//!   failure-model section).
//!
//! # Examples
//!
//! Form a 6-hop temporary cluster and flood the invite, with losses:
//!
//! ```
//! use rand::SeedableRng;
//! use sid_net::{Network, RadioModel, TempCluster, Topology};
//!
//! let topo = Topology::grid(6, 6, 25.0, 30.0);
//! let head = topo.at_grid(3, 3).unwrap();
//! let cluster = TempCluster::form(&topo, head, 6, 0.0, 10.0);
//! let mut net: Network<&str> = Network::new(topo, RadioModel::lossy());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let reached = net.flood(head, "join", 0.0, 6, &mut rng);
//! assert!(reached <= cluster.members().len() - 1);
//! ```

// `!(x > 0.0)`-style validation is used deliberately: unlike `x <= 0.0`,
// the negated comparison also rejects NaN inputs.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod fault;
mod ids;
pub mod localization;
pub mod radio;
pub mod sim;
pub mod timesync;
pub mod topology;

pub use cluster::{StaticCells, TempCluster, TempClusterState};
pub use fault::{BurstState, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, GilbertElliott};
pub use localization::{trilaterate, LocalizationError, LocalizationFix, RangeMeasurement};
pub use ids::{CellId, NodeId};
pub use radio::RadioModel;
pub use sim::{CongestionModel, Delivery, EventScheduler, NetStats, Network};
pub use timesync::SyncModel;
pub use topology::{NeighborIndex, Position, Topology, SPATIAL_HASH_THRESHOLD};
