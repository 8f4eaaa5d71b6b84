//! Workload substrate for the CTUP reproduction: a Brinkhoff-style
//! network-based moving-object generator and place-set generators.
//!
//! The paper evaluates on units moving along the Oldenburg road network
//! (via the Brinkhoff generator) with randomly generated places. This crate
//! rebuilds that pipeline from scratch:
//!
//! * [`faults`] — seeded degraded-feed simulation (drops, duplicates,
//!   reordering, corruption) for resilience testing;
//! * [`network`] — synthetic, connected road networks with arterials;
//! * [`route`] — travel-time Dijkstra routing;
//! * [`objects`] — objects that roam the network and report location
//!   updates past a displacement threshold;
//! * [`places`] — place sets with skewed required-protection distributions;
//! * [`rng`] — the one seeded generator every stream is drawn from;
//! * [`uniform`] — a teleport model for stress tests;
//! * [`workload`] — bundles of all of the above, including the paper's
//!   Table III defaults.
//!
//! Everything is deterministic given a seed.

// Library lint policy, DESIGN.md §10: every suppression is a reasoned
// `#[expect]`; the `deny` list below holds outside test code.
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod netfaults;
pub mod network;
pub mod objects;
pub mod places;
pub mod rng;
pub mod route;
pub mod uniform;
pub mod workload;

pub use faults::{FaultLog, FaultPlan};
pub use netfaults::{ChaosStream, LinkScript, NetFaultPlan};
pub use network::{CityParams, Edge, NodeId, RoadNetwork};
pub use objects::{MovingObjectSim, PositionUpdate};
pub use places::{PlaceGenConfig, PlaceGenerator, Spread};
pub use rng::SeededRng;
pub use route::Router;
pub use uniform::TeleportSim;
pub use workload::{Workload, WorkloadParams};
