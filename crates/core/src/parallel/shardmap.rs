//! Cell → shard assignment for the sharded engine.
//!
//! A [`ShardMap`] cuts the cells, in Z-order ([`ctup_spatial::layout`]),
//! into contiguous rank ranges with boundaries placed by per-cell load, so
//! every shard owns roughly the same number of lower-level pages. A
//! Z-range is a compact spatial blob, so the handful of cells an update
//! touches usually live on one or two shards instead of all of them.
//!
//! Exactness does not depend on the assignment: any function assigning
//! every cell to exactly one shard partitions the place universe, and the
//! merge argument of [`super::ShardedCtup`] only needs that. The
//! assignment only moves *where* the work happens.

use ctup_spatial::{layout, CellId, Grid};

/// A total assignment of grid cells to `num_shards` shards.
#[derive(Debug, Clone)]
pub struct ShardMap {
    num_shards: u32,
    /// The owning shard of every cell, indexed by `CellId::index()`.
    table: Vec<u32>,
}

impl ShardMap {
    /// Carves the cells of `grid`, in Z-order, into `num_shards`
    /// contiguous ranges whose boundaries balance the total per-cell `load`
    /// (e.g. lower-level pages per cell from
    /// [`ctup_storage::PlaceStore::cell_pages`]). Every cell lands in
    /// exactly one shard; cells adjacent in the order land in the same or
    /// adjacent shards. Zero loads are counted as one so empty cells still
    /// spread across shards instead of piling into the last range.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero (construction-time configuration
    /// bug, like `config.validate()`).
    #[must_use]
    pub fn layout_ranges(
        grid: &Grid,
        num_shards: u32,
        mut load: impl FnMut(CellId) -> u64,
    ) -> Self {
        assert!(num_shards >= 1, "at least one shard is required");
        let order = layout::order(grid);
        let loads: Vec<u64> = order.iter().map(|&c| load(c).max(1)).collect();
        let total: u128 = loads.iter().map(|&l| u128::from(l)).sum();
        let mut table = vec![0u32; grid.num_cells()];
        let mut cum: u128 = 0;
        for (&cell, &l) in order.iter().zip(&loads) {
            cum += u128::from(l);
            // The shard whose fair share [s·total/N, (s+1)·total/N) the
            // cumulative load (exclusive of this cell's tail) falls into:
            // contiguous and non-decreasing along the order, and each
            // share receives ~total/N of load.
            let s = ((cum - 1) * u128::from(num_shards)) / total.max(1);
            table[cell.index()] = u32::try_from(s).unwrap_or(u32::MAX).min(num_shards - 1);
        }
        ShardMap { num_shards, table }
    }

    /// Number of shards this map partitions cells into.
    #[must_use]
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// The shard owning `cell`. A cell outside the grid the map was built
    /// over (impossible through the engine, which shares one grid with the
    /// store) maps to shard 0 rather than panicking.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, cell: CellId) -> u32 {
        self.table.get(cell.index()).copied().unwrap_or(0)
    }

    /// Whether `shard` owns `cell`.
    #[inline]
    #[must_use]
    pub fn owns(&self, shard: u32, cell: CellId) -> bool {
        self.shard_of(cell) == shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctup_spatial::convert;

    /// Every cell is owned by exactly one shard, for every shard count the
    /// parallel tests run at.
    #[test]
    fn layout_ranges_partition_every_cell_exactly_once() {
        for side in [4u32, 8, 10] {
            let grid = Grid::unit_square(side);
            for n in [1u32, 2, 3, 7] {
                let map = ShardMap::layout_ranges(&grid, n, |_| 1);
                let mut counts = vec![0usize; convert::index(n)];
                for cell in grid.cells() {
                    let s = map.shard_of(cell);
                    assert!(s < n, "cell {cell:?} mapped to shard {s} of {n}");
                    counts[convert::index(s)] += 1;
                    // Exactly-one: shard_of is a function, so it is
                    // enough that exactly one shard claims ownership.
                    let owners = (0..n).filter(|&sh| map.owns(sh, cell)).count();
                    assert_eq!(owners, 1, "cell {cell:?} owned by {owners} shards");
                }
                assert_eq!(counts.iter().sum::<usize>(), grid.num_cells());
                // Uniform loads: ranges within one cell of each other.
                let lo = counts.iter().min().copied().unwrap_or(0);
                let hi = counts.iter().max().copied().unwrap_or(0);
                assert!(hi - lo <= 1, "{side}x{side} x{n}: uneven ranges {counts:?}");
            }
        }
    }

    #[test]
    fn layout_ranges_are_contiguous_in_rank_order() {
        let grid = Grid::unit_square(10);
        let map = ShardMap::layout_ranges(&grid, 4, |_| 1);
        let shards: Vec<u32> = layout::order(&grid)
            .into_iter()
            .map(|c| map.shard_of(c))
            .collect();
        for w in shards.windows(2) {
            assert!(w[0] <= w[1], "shard sequence not monotone: {shards:?}");
        }
    }

    #[test]
    fn boundaries_balance_skewed_loads() {
        let grid = Grid::unit_square(4);
        // One heavy cell (16 pages) among 15 light ones (1 page each):
        // with 2 shards, the heavy range should stay small in cell count.
        let map = ShardMap::layout_ranges(&grid, 2, |c| if c.index() == 0 { 16 } else { 1 });
        let heavy_shard = map.shard_of(CellId(0));
        let heavy_count = grid
            .cells()
            .filter(|&c| map.shard_of(c) == heavy_shard)
            .count();
        // Fair share is (16 + 15) / 2 ≈ 15.5 pages; the heavy cell alone
        // is 16, so its range must hold strictly fewer cells than the
        // light range.
        assert!(
            heavy_count < grid.num_cells() - heavy_count,
            "heavy range holds {heavy_count} of {} cells",
            grid.num_cells()
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardMap::layout_ranges(&Grid::unit_square(2), 0, |_| 1);
    }
}
