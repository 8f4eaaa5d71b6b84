//! # ctup — Continuous Top-k Unsafe Places
//!
//! Facade crate re-exporting the whole CTUP reproduction:
//!
//! * [`spatial`] — geometry, grid partitioning, R-tree, unit index;
//! * [`storage`] — the paper's two-level (memory/disk) place store;
//! * [`mogen`] — Brinkhoff-style network-based moving-object workloads;
//! * [`core`] — the CTUP algorithms (Naive, BasicCTUP, OptCTUP) and the
//!   monitoring server;
//! * [`obs`] — zero-dependency observability: metrics, latency
//!   histograms, and the causal span layer (DESIGN.md §17).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

// Library lint policy, DESIGN.md §10: every suppression is a reasoned
// `#[expect]`; the `deny` list below holds outside test code.
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![forbid(unsafe_code)]

pub use ctup_core as core;
pub use ctup_mogen as mogen;
pub use ctup_obs as obs;
pub use ctup_spatial as spatial;
pub use ctup_storage as storage;

/// Commonly used items, importable with `use ctup::prelude::*`.
pub mod prelude {
    pub use ctup_core::{
        algorithm::{CtupAlgorithm, InitStats, UpdateStats},
        basic::BasicCtup,
        config::CtupConfig,
        metrics::Metrics,
        naive::{NaiveIncremental, NaiveRecompute},
        opt::OptCtup,
        oracle::Oracle,
        parallel::ShardedCtup,
        server::{MonitorEvent, Server},
        types::{LocationUpdate, Place, PlaceId, Safety, TopKEntry, Unit, UnitId},
    };
    pub use ctup_mogen::{
        network::RoadNetwork, objects::MovingObjectSim, places::PlaceGenerator, workload::Workload,
    };
    pub use ctup_spatial::{CellId, Circle, Grid, Point, Rect, Relation};
    pub use ctup_storage::{CachedStore, CellLocalStore, PlaceStore, StorageStats};
}
