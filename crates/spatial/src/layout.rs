//! Cell layout: the 1-D order in which grid cells are ranked.
//!
//! Shard partitioning, disk page packing, and prefetch batching all need a
//! total order over cells. [`CellLayout::RowMajor`] is the historical flat
//! order (`row * gx + col` — the [`crate::CellId`] value itself) and serves
//! as the differential oracle; [`CellLayout::ZOrder`] ranks cells by the
//! Morton code of their `(col, row)` so spatially adjacent cells are
//! adjacent in rank, which keeps a protecting circle's illuminated cell set
//! inside ~1 contiguous rank range.

use crate::grid::{CellId, Grid};
use crate::morton;
use std::fmt;
use std::str::FromStr;

/// A total order over grid cells, selecting how cells map to shards and
/// disk pages. The enum is carried in checkpoints (as its [`fmt::Display`]
/// name) so recovery re-binds to the same physical layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellLayout {
    /// Flat `row * gx + col` order — the layout every store used before
    /// Z-ordering landed, kept as the differential oracle.
    #[default]
    RowMajor,
    /// Morton (Z-order) rank of `(col, row)`: spatially adjacent cells get
    /// adjacent ranks.
    ZOrder,
}

impl CellLayout {
    /// All layouts, for sweeps and CLI error messages.
    pub const ALL: [CellLayout; 2] = [CellLayout::RowMajor, CellLayout::ZOrder];

    /// Rank of `cell` in this layout's total order. Ranks are unique per
    /// cell but not dense for [`CellLayout::ZOrder`] on non-square or
    /// non-power-of-two grids — use [`CellLayout::order`] for a dense
    /// enumeration.
    #[inline]
    #[must_use]
    pub fn rank(self, grid: &Grid, cell: CellId) -> u64 {
        match self {
            CellLayout::RowMajor => u64::from(cell.0),
            CellLayout::ZOrder => {
                let (col, row) = grid.col_row(cell);
                morton::encode(col, row).0
            }
        }
    }

    /// Every cell of `grid`, sorted by this layout's rank: the order pages
    /// are packed on disk and shard ranges are carved in.
    #[must_use]
    pub fn order(self, grid: &Grid) -> Vec<CellId> {
        let mut cells: Vec<CellId> = grid.cells().collect();
        if self != CellLayout::RowMajor {
            cells.sort_by_key(|&c| self.rank(grid, c));
        }
        cells
    }

    /// Stable lower-case name, used by the CLI flag and the checkpoint tag.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CellLayout::RowMajor => "rowmajor",
            CellLayout::ZOrder => "zorder",
        }
    }
}

impl fmt::Display for CellLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CellLayout {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rowmajor" => Ok(CellLayout::RowMajor),
            "zorder" => Ok(CellLayout::ZOrder),
            other => Err(format!(
                "unknown cell layout {other:?} (expected rowmajor or zorder)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowmajor_rank_is_identity() {
        let g = Grid::unit_square(7);
        for cell in g.cells() {
            assert_eq!(CellLayout::RowMajor.rank(&g, cell), u64::from(cell.0));
        }
        assert_eq!(
            CellLayout::RowMajor.order(&g),
            g.cells().collect::<Vec<_>>()
        );
    }

    #[test]
    fn zorder_order_is_a_permutation() {
        for g in [Grid::unit_square(8), Grid::unit_square(10)] {
            let order = CellLayout::ZOrder.order(&g);
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
        let order = CellLayout::ZOrder.order(&g);
        let ranks: Vec<u64> = order
            .iter()
            .map(|&c| CellLayout::ZOrder.rank(&g, c))
            .collect();
        for w in ranks.windows(2) {
            assert!(w[0] < w[1], "ranks not strictly increasing");
        }
    }

    #[test]
    fn zorder_first_cells_walk_the_z() {
        let g = Grid::unit_square(4);
        let order = CellLayout::ZOrder.order(&g);
        let coords: Vec<(u32, u32)> = order.iter().map(|&c| g.col_row(c)).collect();
        assert_eq!(&coords[..4], &[(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn names_roundtrip() {
        for layout in CellLayout::ALL {
            assert_eq!(layout.name().parse::<CellLayout>(), Ok(layout));
            assert_eq!(format!("{layout}").parse::<CellLayout>(), Ok(layout));
        }
        assert!("hilbert".parse::<CellLayout>().is_err());
    }
}
