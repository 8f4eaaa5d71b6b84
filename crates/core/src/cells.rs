//! Cell-level geometry helpers shared by the grid-based schemes.

use ctup_spatial::{CellId, Circle, Grid, Rect, Relation};

/// Classifies `region` against a cell for lower-bound maintenance, taking
/// extended places into account.
///
/// For point places (`margin == 0`) this is exactly
/// [`Relation::classify`]. For cells containing extended places, `margin`
/// must be at least the largest [`ctup_storage::PlaceRecord::extent_margin`]
/// in the cell; `Full` is then only reported when the region contains the
/// cell *inflated* by that margin, because protecting an extended place
/// requires containing its whole extent, which can stick out of the cell by
/// up to `margin`. The `None` check stays on the plain cell: a place cannot
/// be protected unless its position (inside the cell) is inside the region.
#[inline]
pub fn classify_with_margin(region: &Circle, cell_rect: &Rect, margin: f64) -> Relation {
    if !region.intersects_rect(cell_rect) {
        Relation::None
    } else if region.contains_rect(&cell_rect.inflate(margin)) {
        Relation::Full
    } else {
        Relation::Partial
    }
}

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
    fn zero_margin_matches_plain_classification() {
        let grid = Grid::unit_square(10);
        let regions = [
            Circle::new(Point::new(0.55, 0.55), 0.12),
            Circle::new(Point::new(0.15, 0.85), 0.03),
            Circle::new(Point::new(0.0, 0.0), 0.25),
        ];
        for region in &regions {
            for cell in grid.cells() {
                let rect = grid.cell_rect(cell);
                assert_eq!(
                    classify_with_margin(region, &rect, 0.0),
                    Relation::classify(region, &rect),
                    "cell {cell:?}"
                );
            }
        }
    }

    #[test]
    fn margin_demotes_full_to_partial() {
        let rect = Rect::from_coords(0.4, 0.4, 0.5, 0.5);
        // Region barely containing the cell.
        let region = Circle::new(Point::new(0.45, 0.45), 0.075);
        assert_eq!(classify_with_margin(&region, &rect, 0.0), Relation::Full);
        assert_eq!(
            classify_with_margin(&region, &rect, 0.05),
            Relation::Partial
        );
        // A comfortably larger region re-earns Full despite the margin.
        let big = Circle::new(Point::new(0.45, 0.45), 0.2);
        assert_eq!(classify_with_margin(&big, &rect, 0.05), Relation::Full);
    }

    #[test]
    fn margin_never_affects_none() {
        let rect = Rect::from_coords(0.4, 0.4, 0.5, 0.5);
        let region = Circle::new(Point::new(0.9, 0.9), 0.1);
        assert_eq!(classify_with_margin(&region, &rect, 0.5), Relation::None);
    }

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
