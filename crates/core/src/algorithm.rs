//! The common interface of all CTUP query processors.

use crate::config::CtupConfig;
use crate::metrics::Metrics;
use crate::types::{LocationUpdate, Safety, TopKEntry, UnitId};
use ctup_obs::LatencySnapshot;
use ctup_spatial::Point;
use ctup_storage::{StorageError, StorageStatsSnapshot};
use std::time::Duration;

/// Costs of the one-time initialization.
#[derive(Debug, Clone, Default)]
pub struct InitStats {
    /// Wall-clock time of initialization.
    pub wall: Duration,
    /// Lower-level storage activity during initialization.
    pub storage: StorageStatsSnapshot,
    /// Places whose safety was computed.
    pub safeties_computed: u64,
}

/// Costs of one location update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Nanoseconds spent maintaining in-memory information (maintained
    /// place safeties and cell lower bounds).
    pub maintain_nanos: u64,
    /// Nanoseconds spent accessing cells at the lower level.
    pub access_nanos: u64,
    /// Cells accessed by this update.
    pub cells_accessed: u64,
    /// Whether the monitored result changed.
    pub result_changed: bool,
}

impl UpdateStats {
    /// Total nanoseconds attributed to this update.
    pub fn total_nanos(&self) -> u64 {
        self.maintain_nanos + self.access_nanos
    }
}

/// A continuous top-k unsafe-places query processor.
///
/// Implementations are constructed over a [`ctup_storage::PlaceStore`] and
/// the initial unit positions, then fed location updates one at a time; the
/// monitored result is available between any two updates.
pub trait CtupAlgorithm {
    /// Short identifier used in benchmark output ("naive", "basic", "opt").
    fn name(&self) -> &'static str;

    /// The configuration the processor runs with.
    fn config(&self) -> &CtupConfig;

    /// Processes one location update. Fails only when the lower storage
    /// level does: a cell read that exhausted its retry budget or hit
    /// detected corruption surfaces here. After an error the processor may
    /// be left mid-update (in-memory structures mutated, cell accesses
    /// incomplete); callers must discard it or restore from a checkpoint —
    /// the supervised pipeline does the latter.
    fn handle_update(&mut self, update: LocationUpdate) -> Result<UpdateStats, StorageError>;

    /// The current top-k unsafe places, sorted by `(safety, place id)`.
    fn result(&self) -> Vec<TopKEntry>;

    /// The safety of the k-th unsafe place (`SK`); `None` when fewer than
    /// `k` places exist.
    fn sk(&self) -> Option<Safety>;

    /// Cumulative logical cost counters.
    fn metrics(&self) -> &Metrics;

    /// Initialization costs recorded at construction.
    fn init_stats(&self) -> &InitStats;

    /// The server's view of a unit's position.
    fn unit_position(&self, unit: UnitId) -> Point;

    /// Number of units.
    fn num_units(&self) -> usize;

    /// Latency histograms the algorithm records *internally* — e.g. the
    /// sharded engine's per-shard channels, where the run loop cannot see
    /// the per-shard phase timings. `None` (the default) means the run
    /// loop is responsible for recording per-update latency itself;
    /// `Some` means the caller should merge this into the unified
    /// snapshot instead of recording externally (doing both would count
    /// every update twice).
    fn internal_latency(&self) -> Option<LatencySnapshot> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_stats_total() {
        let s = UpdateStats {
            maintain_nanos: 10,
            access_nanos: 32,
            ..Default::default()
        };
        assert_eq!(s.total_nanos(), 42);
    }
}
