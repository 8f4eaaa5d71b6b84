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

// Library lint policy, DESIGN.md §10: every suppression is a reasoned
// `#[expect]`; the `deny` list below holds outside test code.
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(
    not(test),
    deny(
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]
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

/// Fixtures for the lint policy set at the top of this file.
///
/// `cfg(clippy)` is set only under clippy, so no build compiles this
/// module. Each function under an `#[expect]` holds a pattern the policy
/// must flag: if the lint stops firing, the expectation goes unfulfilled
/// and `cargo clippy -- -D warnings` fails. The unmarked functions hold
/// patterns it must leave alone, which the crate-root `deny` would turn
/// into errors.
#[cfg(all(clippy, not(test)))]
#[expect(dead_code, reason = "fixtures are type-checked, never called")]
mod lint_policy {
    use crate::Safety;

    struct Pair {
        a: f64,
        b: f64,
    }

    #[expect(clippy::unwrap_used, reason = "fixture: `.unwrap()`")]
    fn unwrap(x: Option<u32>) -> u32 {
        x.unwrap()
    }

    #[expect(clippy::expect_used, reason = "fixture: `.expect()`")]
    fn expect(x: Option<u32>) -> u32 {
        x.expect("cli may panic, core may not")
    }

    #[expect(clippy::panic, reason = "fixture: `panic!`")]
    fn panics() {
        panic!("fixture")
    }

    #[expect(clippy::unreachable, reason = "fixture: `unreachable!`")]
    fn unreachable() -> u32 {
        unreachable!()
    }

    #[expect(clippy::todo, reason = "fixture: `todo!`")]
    fn todo() -> u32 {
        todo!()
    }

    #[expect(clippy::unimplemented, reason = "fixture: `unimplemented!`")]
    fn unimplemented() -> u32 {
        unimplemented!()
    }

    fn non_panicking_fallbacks(x: Option<u32>) -> u32 {
        x.unwrap_or(0) + x.unwrap_or_default()
    }

    // `float_cmp` skips functions named `eq`, `ne`, `eq_*` and `*_eq`, and
    // comparisons against zero, infinity or a named constant.
    #[expect(clippy::float_cmp, reason = "fixture: `==` on two f64 fields")]
    fn float_fields_equal(p: &Pair) -> bool {
        p.a == p.b
    }

    #[expect(clippy::float_cmp, reason = "fixture: `!=` on two f64 values")]
    fn float_ne(x: f64, y: f64) -> bool {
        x != y
    }

    fn exact_compares(n: u32, s: &str, x: f64) -> bool {
        n == 3 && n != 4 && s == "1.5" && x.is_infinite()
    }

    #[expect(clippy::cast_possible_truncation, reason = "fixture: usize as u32")]
    fn usize_as_u32(n: usize) -> u32 {
        n as u32
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "fixture: f64 as usize"
    )]
    fn f64_as_usize(x: f64) -> usize {
        x as usize
    }

    #[expect(clippy::cast_possible_wrap, reason = "fixture: `as Safety`")]
    fn count_as_safety(count: u64) -> Safety {
        count as Safety
    }

    #[expect(clippy::cast_sign_loss, reason = "fixture: i64 as u64")]
    fn i64_as_u64(s: i64) -> u64 {
        s as u64
    }

    fn float_targets(n: u32) -> f64 {
        n as f64
    }
}

/// The same patterns in test code need no attribute.
#[cfg(clippy)]
#[cfg(test)]
#[expect(dead_code, reason = "fixtures are type-checked, never called")]
mod lint_policy_in_tests {
    fn unwrap(x: Option<u32>) -> u32 {
        x.unwrap() + x.expect("tests may panic")
    }

    fn panics() {
        panic!("fixture")
    }

    fn float_equal(x: f64, y: f64) -> bool {
        x == y
    }

    fn usize_as_u32(n: usize) -> u32 {
        n as u32
    }

    fn count_as_safety(count: u64) -> crate::Safety {
        count as crate::Safety
    }
}
