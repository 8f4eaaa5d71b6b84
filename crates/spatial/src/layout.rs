//! Cell order: the 1-D order in which grid cells are ranked.
//!
//! Shard partitioning, disk page packing, and prefetch batching all need a
//! total order over cells. Cells are ranked by the Morton (Z-order) code of
//! their `(col, row)`, so spatially adjacent cells are adjacent in rank,
//! which keeps a protecting circle's illuminated cell set inside ~1
//! contiguous rank range.

use crate::grid::{CellId, Grid};
use crate::morton;

/// The cell order every store and shard map uses. It has one member; it
/// survives only because the benchmark adapter (`ledger/src/sut.rs`) names
/// it, and goes with that adapter's next revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellLayout {
    /// Morton (Z-order) rank of `(col, row)`.
    ZOrder,
}

/// Rank of `cell` in the Z-order. Ranks are unique per cell but not dense
/// on non-square or non-power-of-two grids — use [`order`] for a dense
/// enumeration.
#[inline]
#[must_use]
pub fn rank(grid: &Grid, cell: CellId) -> u64 {
    let (col, row) = grid.col_row(cell);
    morton::encode(col, row).0
}

/// Every cell of `grid`, sorted by [`rank`]: the order pages are packed on
/// disk and shard ranges are carved in.
#[must_use]
pub fn order(grid: &Grid) -> Vec<CellId> {
    let mut cells: Vec<CellId> = grid.cells().collect();
    cells.sort_by_key(|&c| rank(grid, c));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zorder_order_is_a_permutation() {
        for g in [Grid::unit_square(8), Grid::unit_square(10)] {
            let order = order(&g);
            assert_eq!(order.len(), g.num_cells());
            let mut seen = vec![false; g.num_cells()];
            for cell in order {
                assert!(!seen[cell.index()], "cell {cell:?} ranked twice");
                seen[cell.index()] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn zorder_ranks_are_unique_and_sorted() {
        let g = Grid::unit_square(10);
        let ranks: Vec<u64> = order(&g).iter().map(|&c| rank(&g, c)).collect();
        for w in ranks.windows(2) {
            assert!(w[0] < w[1], "ranks not strictly increasing");
        }
    }

    #[test]
    fn zorder_first_cells_walk_the_z() {
        let g = Grid::unit_square(4);
        let coords: Vec<(u32, u32)> = order(&g).iter().map(|&c| g.col_row(c)).collect();
        assert_eq!(&coords[..4], &[(0, 0), (1, 0), (0, 1), (1, 1)]);
    }
}
