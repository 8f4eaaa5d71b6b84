//! Memory-resident lower level.
//!
//! When the place set fits in memory, the paper still keeps the two-level
//! split: one piece of memory "simulates disk" and is only consulted when a
//! cell must be accessed. [`CellLocalStore`] is that piece.

use crate::error::StorageError;
use crate::place::PlaceRecord;
use crate::stats::StorageStats;
use crate::store::{partition_by_cell, PlaceStore};
use ctup_spatial::{CellId, Grid};
use std::borrow::Cow;

/// A cell-partitioned, memory-resident place store.
#[derive(Debug)]
pub struct CellLocalStore {
    grid: Grid,
    cells: Vec<Vec<PlaceRecord>>,
    num_places: usize,
    stats: StorageStats,
}

impl CellLocalStore {
    /// Builds the store by partitioning `places` over `grid`.
    ///
    /// # Panics
    /// Panics if a place requires more than [`crate::MAX_RP`] protection.
    pub fn build(grid: Grid, places: Vec<PlaceRecord>) -> Self {
        let num_places = places.len();
        let cells = partition_by_cell(&grid, places);
        CellLocalStore {
            grid,
            cells,
            num_places,
            stats: StorageStats::new(),
        }
    }

    /// Number of places in `cell` without counting an access.
    pub fn cell_len(&self, cell: CellId) -> usize {
        self.cells[cell.index()].len()
    }
}

impl PlaceStore for CellLocalStore {
    fn grid(&self) -> &Grid {
        &self.grid
    }

    fn num_places(&self) -> usize {
        self.num_places
    }

    fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError> {
        let records = &self.cells[cell.index()];
        self.stats.record_cell_read(records.len() as u64, 1, 0);
        Ok(Cow::Borrowed(records.as_slice()))
    }

    fn stats(&self) -> &StorageStats {
        &self.stats
    }

    fn for_each_place(&self, f: &mut dyn FnMut(&PlaceRecord)) -> Result<(), StorageError> {
        for cell in &self.cells {
            for place in cell {
                f(place);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::PlaceId;
    use ctup_spatial::Point;

    fn store() -> CellLocalStore {
        let places = (0..100)
            .map(|i| {
                let x = (i % 10) as f64 / 10.0 + 0.05;
                let y = (i / 10) as f64 / 10.0 + 0.05;
                PlaceRecord::point(PlaceId(i), Point::new(x, y), 1 + i % 3)
            })
            .collect();
        CellLocalStore::build(Grid::unit_square(10), places)
    }

    #[test]
    fn build_partitions_one_place_per_cell() {
        let s = store();
        assert_eq!(s.num_places(), 100);
        for cell in s.grid().cells().collect::<Vec<_>>() {
            assert_eq!(s.cell_len(cell), 1);
        }
    }

    #[test]
    fn read_cell_counts_accesses() {
        let s = store();
        let c = s.grid().cell_of(Point::new(0.55, 0.55));
        let records = s.read_cell(c).expect("read").into_owned();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].pos, Point::new(0.55, 0.55));
        let snap = s.stats().snapshot();
        assert_eq!(snap.cell_reads, 1);
        assert_eq!(snap.records_read, 1);
        assert_eq!(snap.pages_read, 1);
    }

    #[test]
    fn for_each_place_does_not_count() {
        let s = store();
        let mut n = 0;
        s.for_each_place(&mut |_| n += 1).expect("scan");
        assert_eq!(n, 100);
        assert_eq!(s.stats().snapshot().cell_reads, 0);
    }

    #[test]
    fn empty_cells_read_as_empty() {
        let s = CellLocalStore::build(Grid::unit_square(4), vec![]);
        for cell in s.grid().cells().collect::<Vec<_>>() {
            assert!(s.read_cell(cell).expect("read").is_empty());
        }
        assert_eq!(s.stats().snapshot().cell_reads, 16);
    }
}
