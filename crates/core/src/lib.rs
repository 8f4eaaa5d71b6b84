//! # ctup-core — Continuous Top-k Unsafe Places query processing
//!
//! Reproduction of *"On Monitoring the top-k Unsafe Places"* (Zhang, Du,
//! Hu; ICDE 2008). Protecting units (police cars) move through a city and
//! stream location updates to a server; every place `p` has a required
//! protection `RP(p)`, its actual protection `AP(p)` is the number of units
//! within range, and `safety(p) = AP(p) − RP(p)`. The **CTUP query**
//! continuously reports the `k` places with the smallest safeties.
//!
//! Three processors implement the query behind one trait,
//! [`algorithm::CtupAlgorithm`]:
//!
//! * [`naive::NaiveRecompute`] / [`naive::NaiveIncremental`] — the
//!   baselines (§VI / §IV of the paper);
//! * [`basic::BasicCtup`] — grid cells that are dark (lower bound only) or
//!   illuminated (exact safeties), Table I bound maintenance;
//! * [`opt::OptCtup`] — all cells dark, selectively maintained unsafe
//!   places, Table II with the Decrease-Once Optimization and the Δ
//!   anti-flashing slack.
//!
//! Two of the paper's future-work variants (§VII) are served by these same
//! processors: places with extent, built into the protection predicate
//! [`types::protects`], and threshold monitoring, selected by
//! [`config::QueryMode::Threshold`].
//!
//! ```
//! use ctup_core::algorithm::CtupAlgorithm;
//! use ctup_core::config::CtupConfig;
//! use ctup_core::opt::OptCtup;
//! use ctup_core::types::{LocationUpdate, Place, PlaceId, UnitId};
//! use ctup_spatial::{Grid, Point};
//! use ctup_storage::{CellLocalStore, PlaceStore};
//! use std::sync::Arc;
//!
//! let places = vec![
//!     Place::point(PlaceId(0), Point::new(0.2, 0.2), 2), // both need 2 units
//!     Place::point(PlaceId(1), Point::new(0.8, 0.8), 2),
//! ];
//! let store: Arc<dyn PlaceStore> =
//!     Arc::new(CellLocalStore::build(Grid::unit_square(10), places));
//! let mut monitor = OptCtup::new(
//!     CtupConfig::with_k(1),
//!     store,
//!     &[Point::new(0.2, 0.2)], // one unit, protecting place 0
//! )
//! .expect("clean store");
//! assert_eq!(monitor.result()[0].place, PlaceId(1)); // place 1 unprotected
//! monitor
//!     .handle_update(LocationUpdate { unit: UnitId(0), new: Point::new(0.8, 0.8) })
//!     .expect("clean store");
//! assert_eq!(monitor.result()[0].place, PlaceId(0)); // now place 0 is least safe
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod basic;
pub mod cells;
pub mod checkpoint;
pub mod config;
pub mod durable;
pub mod ingest;
pub mod lbdir;
pub mod maintained;
pub mod metrics;
pub mod naive;
pub mod net;
pub mod opt;
pub mod oracle;
pub mod parallel;
pub mod pipeline;
pub mod report;
pub mod server;
pub mod supervisor;
pub mod topk;
pub mod types;
pub mod units;

pub use algorithm::{CtupAlgorithm, InitStats, UpdateStats};
pub use basic::BasicCtup;
pub use checkpoint::{Checkpoint, CheckpointError, Checkpointable};
pub use config::{CtupConfig, QueryMode};
pub use durable::DurableState;
pub use ingest::{IngestConfig, IngestGate, RejectReason, StampedUpdate};
pub use metrics::{Metrics, ResilienceStats};
pub use naive::{NaiveIncremental, NaiveRecompute};
pub use net::{
    EngineSink, FeedClient, IngestServer, NetServerConfig, NetStatsSnapshot, PipelineSink,
    ShedReason,
};
pub use opt::OptCtup;
pub use oracle::Oracle;
pub use parallel::{ShardMap, ShardedCtup};
pub use pipeline::{EventBatch, EventReceiver, SendError};
pub use report::Snapshot;
pub use server::{MonitorEvent, Server};
pub use supervisor::{
    ResilienceConfig, SupervisedPipeline, SupervisedReport, FLIGHT_RECORDER_FILE,
};
pub use types::{LocationUpdate, Place, PlaceId, Safety, TopKEntry, Unit, UnitId};
