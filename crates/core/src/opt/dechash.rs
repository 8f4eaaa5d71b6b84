//! DecHash — the set behind the Decrease-Once Optimization.
//!
//! Holds `(unit, cell)` pairs recording that the movement of `unit` has
//! already decreased the lower bound of `cell` once. It is one `Vec` of
//! units per cell: accessing a cell purges its entries (DESIGN.md §3.3),
//! so a cell's list holds only the few units that lowered its bound since
//! its last access, and scanning it is cheaper than hashing. Iteration goes
//! cell by cell, so two monitors fed the same updates list the same pairs
//! in the same order.

use crate::types::UnitId;
use ctup_spatial::CellId;

/// The `(unit, cell)` pair set of the Decrease-Once Optimization.
#[derive(Debug, Default)]
pub struct DecHash {
    /// The units recorded against each cell, indexed by `CellId`; grown on
    /// demand.
    by_cell: Vec<Vec<UnitId>>,
    len: usize,
}

impl DecHash {
    /// Creates an empty hash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of `(unit, cell)` pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `(unit, cell)` is recorded.
    pub fn contains(&self, unit: UnitId, cell: CellId) -> bool {
        self.by_cell
            .get(cell.index())
            .is_some_and(|units| units.contains(&unit))
    }

    /// Records `(unit, cell)`; returns whether it was new.
    pub fn insert(&mut self, unit: UnitId, cell: CellId) -> bool {
        if self.by_cell.len() <= cell.index() {
            self.by_cell.resize_with(cell.index() + 1, Vec::new);
        }
        let units = &mut self.by_cell[cell.index()];
        if units.contains(&unit) {
            return false;
        }
        units.push(unit);
        self.len += 1;
        true
    }

    /// Removes `(unit, cell)` if present; returns whether it was there.
    pub fn remove(&mut self, unit: UnitId, cell: CellId) -> bool {
        let Some(units) = self.by_cell.get_mut(cell.index()) else {
            return false;
        };
        let Some(at) = units.iter().position(|&u| u == unit) else {
            return false;
        };
        units.swap_remove(at);
        self.len -= 1;
        true
    }

    /// Removes every pair of `cell`, returning how many were purged.
    /// Called when the cell is accessed and its lower bound re-established
    /// exactly.
    pub fn purge_cell(&mut self, cell: CellId) -> usize {
        let Some(units) = self.by_cell.get_mut(cell.index()) else {
            return 0;
        };
        let purged = units.len();
        units.clear();
        self.len -= purged;
        purged
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.by_cell.iter_mut().for_each(Vec::clear);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut h = DecHash::new();
        assert!(h.insert(UnitId(1), CellId(10)));
        assert!(!h.insert(UnitId(1), CellId(10)), "duplicate insert");
        assert!(h.insert(UnitId(2), CellId(10)));
        assert!(h.insert(UnitId(1), CellId(11)));
        assert_eq!(h.len(), 3);
        assert!(h.contains(UnitId(1), CellId(10)));
        assert!(!h.contains(UnitId(3), CellId(10)));
        assert!(h.remove(UnitId(1), CellId(10)));
        assert!(!h.remove(UnitId(1), CellId(10)));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn purge_cell_removes_only_that_cell() {
        let mut h = DecHash::new();
        h.insert(UnitId(1), CellId(5));
        h.insert(UnitId(2), CellId(5));
        h.insert(UnitId(1), CellId(6));
        assert_eq!(h.purge_cell(CellId(5)), 2);
        assert_eq!(h.len(), 1);
        assert!(!h.contains(UnitId(1), CellId(5)));
        assert!(h.contains(UnitId(1), CellId(6)));
        assert_eq!(h.purge_cell(CellId(5)), 0);
    }

    #[test]
    fn clear_resets() {
        let mut h = DecHash::new();
        h.insert(UnitId(0), CellId(0));
        h.insert(UnitId(1), CellId(1));
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(UnitId(0), CellId(0)));
    }

    #[test]
    fn a_cell_past_every_recorded_one_holds_nothing() {
        let mut h = DecHash::new();
        h.insert(UnitId(3), CellId(7));
        h.insert(UnitId(1), CellId(2));
        h.insert(UnitId(2), CellId(7));
        assert!(!h.contains(UnitId(1), CellId(40)));
        assert!(!h.remove(UnitId(1), CellId(40)));
        assert_eq!(h.purge_cell(CellId(40)), 0);
        assert_eq!(h.len(), 3);
    }
}
