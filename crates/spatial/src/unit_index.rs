//! A bucketed grid index over moving objects (the protecting units).
//!
//! Computing a place's actual protection `AP(p)` requires counting the units
//! within distance `R` of `p`. Units move on every update, so instead of a
//! balanced tree we keep the classic moving-object grid: one bucket of unit
//! ids per cell, updated in O(1) per location change.

use crate::circle::Circle;
use crate::grid::{CellId, Grid};
use crate::point::Point;

/// A grid-bucket index mapping each cell to the ids of the units inside it.
///
/// `U` is the unit-id type (any copyable id, typically `u32`).
#[derive(Debug, Clone)]
pub struct UnitGridIndex<U: Copy + PartialEq> {
    grid: Grid,
    buckets: Vec<Vec<(U, Point)>>,
    len: usize,
}

impl<U: Copy + PartialEq> UnitGridIndex<U> {
    /// Creates an empty index over `grid`.
    pub fn new(grid: Grid) -> Self {
        let buckets = vec![Vec::new(); grid.num_cells()];
        UnitGridIndex {
            grid,
            buckets,
            len: 0,
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of indexed units.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a unit at `pos`. The caller must not insert the same id twice
    /// (use [`UnitGridIndex::relocate`] for moves).
    pub fn insert(&mut self, id: U, pos: Point) {
        let cell = self.grid.cell_of(pos);
        self.buckets[cell.index()].push((id, pos));
        self.len += 1;
    }

    /// Removes a unit previously inserted at `pos`; returns whether it was
    /// found.
    pub fn remove(&mut self, id: U, pos: Point) -> bool {
        let cell = self.grid.cell_of(pos);
        let bucket = &mut self.buckets[cell.index()];
        if let Some(i) = bucket.iter().position(|&(u, _)| u == id) {
            bucket.swap_remove(i);
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Moves a unit from `old` to `new` in O(1) bucket operations.
    ///
    /// # Panics
    /// Panics if the unit is not indexed at `old`.
    pub fn relocate(&mut self, id: U, old: Point, new: Point) {
        let from = self.grid.cell_of(old);
        let to = self.grid.cell_of(new);
        if from == to {
            let bucket = &mut self.buckets[from.index()];
            #[expect(
                clippy::expect_used,
                reason = "documented `# Panics` contract — the caller promises the unit is indexed at `old`, same as the assert! on the cross-cell path below"
            )]
            let slot = bucket
                .iter_mut()
                .find(|(u, _)| *u == id)
                .expect("relocate: unit not found in old cell");
            slot.1 = new;
        } else {
            assert!(self.remove(id, old), "relocate: unit not found in old cell");
            self.insert(id, new);
        }
    }

    /// Calls `f` for each unit within the closed disk.
    pub fn for_each_within<F: FnMut(U, Point)>(&self, circle: &Circle, mut f: F) {
        let r2 = circle.radius * circle.radius;
        for cell in self.grid.cells_overlapping_circle(circle) {
            for &(id, pos) in &self.buckets[cell.index()] {
                if circle.center.dist2(pos) <= r2 {
                    f(id, pos);
                }
            }
        }
    }

    /// Number of units within the closed disk — this is `AP(p)` for a place
    /// at the disk's center when the disk radius is the protection range.
    pub fn count_within(&self, circle: &Circle) -> u32 {
        let mut n = 0;
        self.for_each_within(circle, |_, _| n += 1);
        n
    }

    /// Calls `f` for each unit in a cell's bucket.
    pub fn for_each_in_cell<F: FnMut(U, Point)>(&self, cell: CellId, mut f: F) {
        for &(id, pos) in &self.buckets[cell.index()] {
            f(id, pos);
        }
    }

    /// Iterates over all `(id, position)` pairs in bucket order.
    pub fn for_each<F: FnMut(U, Point)>(&self, mut f: F) {
        for bucket in &self.buckets {
            for &(id, pos) in bucket {
                f(id, pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_with(units: &[(u32, Point)]) -> UnitGridIndex<u32> {
        let mut idx = UnitGridIndex::new(Grid::unit_square(10));
        for &(id, p) in units {
            idx.insert(id, p);
        }
        idx
    }

    #[test]
    fn insert_count_remove() {
        let units = [
            (0, Point::new(0.1, 0.1)),
            (1, Point::new(0.15, 0.12)),
            (2, Point::new(0.9, 0.9)),
        ];
        let mut idx = index_with(&units);
        assert_eq!(idx.len(), 3);
        let probe = Circle::new(Point::new(0.12, 0.11), 0.1);
        assert_eq!(idx.count_within(&probe), 2);
        assert!(idx.remove(1, units[1].1));
        assert_eq!(idx.count_within(&probe), 1);
        assert!(!idx.remove(1, units[1].1));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn relocate_within_and_across_cells() {
        let mut idx = index_with(&[(7, Point::new(0.05, 0.05))]);
        // Same-cell move.
        idx.relocate(7, Point::new(0.05, 0.05), Point::new(0.06, 0.07));
        assert_eq!(
            idx.count_within(&Circle::new(Point::new(0.06, 0.07), 0.001)),
            1
        );
        // Cross-cell move.
        idx.relocate(7, Point::new(0.06, 0.07), Point::new(0.95, 0.95));
        assert_eq!(
            idx.count_within(&Circle::new(Point::new(0.06, 0.07), 0.02)),
            0
        );
        assert_eq!(
            idx.count_within(&Circle::new(Point::new(0.95, 0.95), 0.02)),
            1
        );
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn count_matches_brute_force_on_random_config() {
        // Deterministic pseudo-random placement without external crates.
        let mut state = 0x243F6A8885A308D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let units: Vec<(u32, Point)> = (0..500).map(|i| (i, Point::new(next(), next()))).collect();
        let idx = index_with(&units);
        for _ in 0..50 {
            let c = Circle::new(Point::new(next(), next()), 0.05 + next() * 0.2);
            let brute = units.iter().filter(|(_, p)| c.contains_point(*p)).count() as u32;
            assert_eq!(idx.count_within(&c), brute);
        }
    }

    #[test]
    fn circle_straddling_space_boundary() {
        let idx = index_with(&[(0, Point::new(0.01, 0.01)), (1, Point::new(0.99, 0.99))]);
        // Circle centered outside the space still finds boundary units.
        let c = Circle::new(Point::new(-0.05, -0.05), 0.12);
        assert_eq!(idx.count_within(&c), 1);
    }

    #[test]
    fn for_each_visits_all() {
        let units: Vec<(u32, Point)> = (0..20)
            .map(|i| (i, Point::new(i as f64 / 20.0, 0.5)))
            .collect();
        let idx = index_with(&units);
        let mut seen = [false; 20];
        idx.for_each(|id, _| seen[id as usize] = true);
        assert!(seen.iter().all(|&b| b));
    }
}
