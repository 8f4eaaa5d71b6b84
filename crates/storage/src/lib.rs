//! Two-level storage substrate for the CTUP reproduction.
//!
//! The paper separates the infrequently-updated *lower level* (all places,
//! partitioned by grid cell; conceptually on disk) from the continuously
//! changing *higher level* (units, cell metadata, a small fraction of
//! places; in memory). This crate provides the lower level behind the
//! [`PlaceStore`] trait with full access accounting:
//!
//! * [`CellLocalStore`] — memory-resident, for the "places fit in memory"
//!   regime (the paper's experimental setting);
//! * [`PagedDiskStore`] — page-oriented with a checksummed binary codec
//!   and optional simulated per-page latency, for the on-disk regime;
//! * [`FaultDisk`] — a seeded fault injector over the paged store
//!   (transient read errors, torn writes, bit flips) that retries
//!   transient errors with backoff;
//! * [`CachedStore`] — a bounded, frequency-gated cell-read cache over any
//!   read-only store, with hit/miss/eviction accounting;
//! * [`snapshot`] — a tiny text format to persist generated data sets.
//!
//! Reads are fallible: page frames carry a CRC32, so torn writes and bit
//! rot surface as typed [`StorageError`]s instead of silently wrong
//! records.

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
        clippy::float_cmp
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checksum;
pub mod diskstore;
pub mod error;
pub mod fault;
pub mod memstore;
pub mod place;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use cache::CachedStore;
pub use checksum::crc32;
pub use diskstore::{decode_page, encode_pages, PagedDiskStore, FRAME_HEADER, PAGE_SIZE};
pub use error::{CorruptKind, RecordError, StorageError};
pub use fault::{DiskFaultPlan, FaultDisk};
pub use memstore::CellLocalStore;
pub use place::{PlaceId, PlaceRecord, MAX_RP};
pub use stats::{StorageStats, StorageStatsSnapshot};
pub use store::PlaceStore;
