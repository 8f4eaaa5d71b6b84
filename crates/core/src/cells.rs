//! Cell-level geometry helpers shared by the grid-based schemes.

use ctup_spatial::{CellId, Circle, Grid};

/// The cells whose lower bound may change when a protecting region moves
/// from `old` to `new`: every cell intersecting either region, sorted and
/// deduplicated. Cells outside both regions keep relation `N -> N`, which
/// never changes a lower bound in Table I or Table II.
pub fn touched_cells(grid: &Grid, old: &Circle, new: &Circle) -> Vec<CellId> {
    let mut cells = Vec::new();
    touched_cells_into(grid, old, new, &mut cells);
    cells
}

/// [`touched_cells`] written into `cells`, which is cleared first, so that
/// the update path reuses one buffer instead of allocating per update.
pub fn touched_cells_into(grid: &Grid, old: &Circle, new: &Circle, cells: &mut Vec<CellId>) {
    cells.clear();
    cells.extend(grid.cells_overlapping_circle(old));
    cells.extend(grid.cells_overlapping_circle(new));
    cells.sort_unstable();
    cells.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctup_spatial::Point;

    #[test]
    fn touched_cells_covers_both_regions() {
        let grid = Grid::unit_square(10);
        let old = Circle::new(Point::new(0.25, 0.25), 0.08);
        let new = Circle::new(Point::new(0.75, 0.75), 0.08);
        let touched = touched_cells(&grid, &old, &new);
        for cell in grid.cells() {
            let rect = grid.cell_rect(cell);
            let should = old.intersects_rect(&rect) || new.intersects_rect(&rect);
            assert_eq!(touched.contains(&cell), should, "cell {cell:?}");
        }
        // Sorted and unique.
        let mut sorted = touched.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(touched, sorted);
    }

    #[test]
    fn touched_cells_overlapping_regions_dedup() {
        let grid = Grid::unit_square(10);
        let old = Circle::new(Point::new(0.5, 0.5), 0.1);
        let new = Circle::new(Point::new(0.52, 0.5), 0.1);
        let touched = touched_cells(&grid, &old, &new);
        let unique: std::collections::HashSet<_> = touched.iter().collect();
        assert_eq!(unique.len(), touched.len());
    }
}
