//! Uniform grid partitioning of the monitored space.
//!
//! Both CTUP schemes partition the 2-D space into `gx × gy` disjoint cells
//! (the paper's "partition granularity" is `gx = gy = G`). Cells are
//! identified by a dense [`CellId`] so per-cell state can live in flat
//! vectors.

use crate::circle::Circle;
use crate::convert;
use crate::point::Point;
use crate::rect::Rect;

/// Dense identifier of a grid cell: `row * gx + col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// The cell id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        convert::index(self.0)
    }
}

/// A uniform `gx × gy` partitioning of a rectangular space.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    space: Rect,
    gx: u32,
    gy: u32,
    cell_w: f64,
    cell_h: f64,
}

impl Grid {
    /// Creates a grid over `space` with `gx × gy` cells.
    ///
    /// # Panics
    /// Panics if either dimension is zero or the space is degenerate.
    pub fn new(space: Rect, gx: u32, gy: u32) -> Self {
        assert!(gx > 0 && gy > 0, "grid must have at least one cell");
        assert!(
            space.width() > 0.0 && space.height() > 0.0,
            "grid space must have positive area"
        );
        Grid {
            space,
            gx,
            gy,
            cell_w: space.width() / gx as f64,
            cell_h: space.height() / gy as f64,
        }
    }

    /// Square grid over the unit square — the paper's experimental setting
    /// with `granularity = g`.
    pub fn unit_square(g: u32) -> Self {
        Grid::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0), g, g)
    }

    /// The partitioned space.
    #[inline]
    pub fn space(&self) -> &Rect {
        &self.space
    }

    /// Number of columns.
    #[inline]
    pub fn gx(&self) -> u32 {
        self.gx
    }

    /// Number of rows.
    #[inline]
    pub fn gy(&self) -> u32 {
        self.gy
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        convert::index(self.gx) * convert::index(self.gy)
    }

    /// Cell width.
    #[inline]
    pub fn cell_width(&self) -> f64 {
        self.cell_w
    }

    /// Cell height.
    #[inline]
    pub fn cell_height(&self) -> f64 {
        self.cell_h
    }

    #[inline]
    fn col_of(&self, x: f64) -> u32 {
        let c = ((x - self.space.lo.x) / self.cell_w).floor();
        convert::grid_coord(c, self.gx - 1)
    }

    #[inline]
    fn row_of(&self, y: f64) -> u32 {
        let r = ((y - self.space.lo.y) / self.cell_h).floor();
        convert::grid_coord(r, self.gy - 1)
    }

    /// Cell containing `p`. Points outside the space are clamped to the
    /// nearest boundary cell so every location maps to exactly one cell.
    #[inline]
    pub fn cell_of(&self, p: Point) -> CellId {
        CellId(self.row_of(p.y) * self.gx + self.col_of(p.x))
    }

    /// Id of the cell at `(col, row)`.
    #[inline]
    pub fn cell_at(&self, col: u32, row: u32) -> CellId {
        debug_assert!(col < self.gx && row < self.gy);
        CellId(row * self.gx + col)
    }

    /// `(col, row)` of a cell.
    #[inline]
    pub fn col_row(&self, id: CellId) -> (u32, u32) {
        (id.0 % self.gx, id.0 / self.gx)
    }

    /// The rectangle covered by a cell.
    #[inline]
    pub fn cell_rect(&self, id: CellId) -> Rect {
        let (col, row) = self.col_row(id);
        let x0 = self.space.lo.x + col as f64 * self.cell_w;
        let y0 = self.space.lo.y + row as f64 * self.cell_h;
        Rect::from_coords(x0, y0, x0 + self.cell_w, y0 + self.cell_h)
    }

    /// Iterator over all cell ids in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..convert::id32(self.num_cells())).map(CellId)
    }

    /// Iterator over the ids of cells whose rectangle intersects `rect`.
    pub fn cells_overlapping_rect(&self, rect: &Rect) -> impl Iterator<Item = CellId> + '_ {
        let clipped_lo_x = rect.lo.x.max(self.space.lo.x);
        let clipped_lo_y = rect.lo.y.max(self.space.lo.y);
        let clipped_hi_x = rect.hi.x.min(self.space.hi.x);
        let clipped_hi_y = rect.hi.y.min(self.space.hi.y);
        let empty = clipped_lo_x > clipped_hi_x || clipped_lo_y > clipped_hi_y;
        let (c0, c1, r0, r1) = if empty {
            (1, 0, 1, 0) // empty ranges
        } else {
            (
                self.col_of(clipped_lo_x),
                self.col_of(clipped_hi_x),
                self.row_of(clipped_lo_y),
                self.row_of(clipped_hi_y),
            )
        };
        (r0..=r1).flat_map(move |row| (c0..=c1).map(move |col| CellId(row * self.gx + col)))
    }

    /// Iterator over the ids of cells actually intersected by the circle
    /// (bounding-box candidates filtered by exact circle–rect intersection).
    pub fn cells_overlapping_circle<'a>(
        &'a self,
        circle: &'a Circle,
    ) -> impl Iterator<Item = CellId> + 'a {
        self.cells_overlapping_rect(&circle.bbox())
            .filter(move |&id| circle.intersects_rect(&self.cell_rect(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_of_is_total_and_clamped() {
        let g = Grid::unit_square(10);
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), CellId(0));
        assert_eq!(g.cell_of(Point::new(0.999, 0.999)), CellId(99));
        // Boundary point belongs to the last cell after clamping.
        assert_eq!(g.cell_of(Point::new(1.0, 1.0)), CellId(99));
        // Points outside the space clamp to boundary cells.
        assert_eq!(g.cell_of(Point::new(-5.0, -5.0)), CellId(0));
        assert_eq!(g.cell_of(Point::new(5.0, 5.0)), CellId(99));
    }

    #[test]
    fn cell_rect_roundtrip() {
        let g = Grid::unit_square(4);
        for id in g.cells() {
            let r = g.cell_rect(id);
            assert_eq!(g.cell_of(r.center()), id);
        }
    }

    #[test]
    fn col_row_roundtrip() {
        let g = Grid::new(Rect::from_coords(-1.0, -2.0, 3.0, 2.0), 8, 5);
        for id in g.cells() {
            let (c, r) = g.col_row(id);
            assert_eq!(g.cell_at(c, r), id);
        }
        assert_eq!(g.num_cells(), 40);
    }

    #[test]
    fn cells_overlapping_rect_exact() {
        let g = Grid::unit_square(10);
        let r = Rect::from_coords(0.05, 0.05, 0.25, 0.15);
        let ids: Vec<_> = g.cells_overlapping_rect(&r).collect();
        // Columns 0..=2, rows 0..=1 -> 6 cells.
        assert_eq!(ids.len(), 6);
        for id in g.cells() {
            let hit = ids.contains(&id);
            assert_eq!(hit, g.cell_rect(id).intersects(&r), "cell {id:?}");
        }
    }

    #[test]
    fn cells_overlapping_rect_outside_space() {
        let g = Grid::unit_square(10);
        let r = Rect::from_coords(2.0, 2.0, 3.0, 3.0);
        assert_eq!(g.cells_overlapping_rect(&r).count(), 0);
        // Rect partially outside clips correctly.
        let r = Rect::from_coords(0.95, 0.95, 3.0, 3.0);
        let ids: Vec<_> = g.cells_overlapping_rect(&r).collect();
        assert_eq!(ids, vec![CellId(99)]);
    }

    #[test]
    fn cells_overlapping_circle_filters_corners() {
        let g = Grid::unit_square(10);
        // Circle centered in the middle of cell (5,5): its bbox covers a 3x3
        // block but with radius 0.06 the 4 diagonal cells of the block are
        // not intersected (their nearest corner is at dist ~0.0707 > 0.06).
        let c = Circle::new(Point::new(0.55, 0.55), 0.06);
        let ids: Vec<_> = g.cells_overlapping_circle(&c).collect();
        assert_eq!(ids.len(), 5);
        for id in g.cells() {
            let hit = ids.contains(&id);
            assert_eq!(hit, c.intersects_rect(&g.cell_rect(id)), "cell {id:?}");
        }
    }

    #[test]
    fn non_square_grid_geometry() {
        let g = Grid::new(Rect::from_coords(0.0, 0.0, 2.0, 1.0), 4, 2);
        assert_eq!(g.cell_width(), 0.5);
        assert_eq!(g.cell_height(), 0.5);
        assert_eq!(
            g.cell_rect(CellId(5)),
            Rect::from_coords(0.5, 0.5, 1.0, 1.0)
        );
    }
}
