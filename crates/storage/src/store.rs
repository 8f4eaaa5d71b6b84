//! The `PlaceStore` abstraction — the lower level of the paper's two-level
//! storage model.
//!
//! The lower level stores *all* places, partitioned by grid cell, and is
//! only touched when a CTUP scheme has to "illuminate" or "access" a cell.
//! Whether it is backed by memory or a (simulated) disk, every access is
//! accounted through [`StorageStats`].

use crate::error::StorageError;
use crate::place::{PlaceRecord, MAX_RP};
use crate::stats::StorageStats;
use ctup_spatial::{CellId, CellLayout, Grid};
use std::borrow::Cow;

/// Read-only, cell-partitioned access to the full place set.
///
/// Stores are `Send + Sync` (access counters use atomics) so query
/// processors built over an `Arc<dyn PlaceStore>` can move across threads,
/// e.g. into the ingestion pipeline's worker.
pub trait PlaceStore: Send + Sync {
    /// The grid partitioning the space (shared with the higher level).
    fn grid(&self) -> &Grid;

    /// Total number of places.
    fn num_places(&self) -> usize;

    /// Loads every place of `cell` from the lower level, counting the
    /// access. Returns borrowed data for memory-resident stores and owned
    /// data for stores that must decode pages. Paged stores surface
    /// transient I/O failures and detected corruption as [`StorageError`];
    /// memory-resident stores never fail.
    fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError>;

    /// Always `0.0`: places are points. Kept only because the benchmark
    /// adapter (`ledger/src/sut.rs`) forwards it; ROADMAP item 1(b)
    /// removes it.
    fn cell_extent_margin(&self, _cell: CellId) -> f64 {
        0.0
    }

    /// Lower-level footprint of `cell` in pages — the weight a cell-read
    /// cache charges for keeping it resident. Unpaged stores count every
    /// cell as one page.
    fn cell_pages(&self, _cell: CellId) -> u64 {
        1
    }

    /// The cell order of the lower level; there is only one. Kept for the
    /// benchmark adapter (`ledger/src/sut.rs`), which forwards it, and
    /// goes with that adapter's next revision.
    fn layout(&self) -> CellLayout {
        CellLayout::ZOrder
    }

    /// A no-op: no store takes a working-set hint any more. Kept only
    /// because the benchmark adapter (`ledger/src/sut.rs`) forwards it.
    fn prefetch(&self, _cells: &[CellId]) {}

    /// Always `false`, with [`PlaceStore::prefetch`]. Kept only because
    /// the benchmark adapter (`ledger/src/sut.rs`) forwards it.
    fn wants_prefetch(&self) -> bool {
        false
    }

    /// The access counters.
    fn stats(&self) -> &StorageStats;

    /// Iterates over all places without touching the counters — intended
    /// for initialization oracles and tests, not for query processing.
    /// Stops at the first undecodable page.
    fn for_each_place(&self, f: &mut dyn FnMut(&PlaceRecord)) -> Result<(), StorageError>;
}

/// Helper shared by store builders: partitions places into per-cell vectors
/// by the cell of their position.
///
/// # Panics
/// Panics if a place requires more than [`MAX_RP`] protection.
pub(crate) fn partition_by_cell(grid: &Grid, places: Vec<PlaceRecord>) -> Vec<Vec<PlaceRecord>> {
    let mut cells: Vec<Vec<PlaceRecord>> = vec![Vec::new(); grid.num_cells()];
    for place in places {
        assert!(
            place.rp <= MAX_RP,
            "{:?} requires {} protection, above MAX_RP = {MAX_RP}",
            place.id,
            place.rp
        );
        cells[grid.cell_of(place.pos).index()].push(place);
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::PlaceId;
    use ctup_spatial::Point;

    #[test]
    fn partition_assigns_by_position() {
        let grid = Grid::unit_square(2);
        let places = vec![
            PlaceRecord::point(PlaceId(0), Point::new(0.1, 0.1), 1),
            PlaceRecord::point(PlaceId(1), Point::new(0.9, 0.1), 1),
            PlaceRecord::point(PlaceId(2), Point::new(0.9, 0.9), 1),
            PlaceRecord::point(PlaceId(3), Point::new(0.25, 0.75), 2),
        ];
        let cells = partition_by_cell(&grid, places);
        assert_eq!(cells[0].len(), 1);
        assert_eq!(cells[1].len(), 1);
        assert_eq!(cells[2].len(), 1); // cell (0,1) holds place 3
        assert_eq!(cells[3].len(), 1);
    }

    #[test]
    #[should_panic(expected = "above MAX_RP")]
    fn partition_refuses_a_requirement_above_max_rp() {
        let grid = Grid::unit_square(2);
        let places = vec![
            PlaceRecord::point(PlaceId(0), Point::new(0.1, 0.1), MAX_RP),
            PlaceRecord::point(PlaceId(1), Point::new(0.9, 0.1), MAX_RP + 1),
        ];
        partition_by_cell(&grid, places);
    }
}
