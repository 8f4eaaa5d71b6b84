//! The lower-bound directory: per-cell lower bounds, and the attached cell
//! with the smallest one.
//!
//! Both schemes repeatedly need "the dark cell with the smallest lower
//! bound" (initialization illuminates in that order; updates access every
//! cell with `lb < SK`, cheapest first so `SK` can tighten between
//! accesses). That is asked once per update plus once per access, while
//! Table I/II move a few bounds on every update, so [`LbDirectory::first`]
//! scans the flat array instead of keeping an ordered mirror that every
//! bound change would have to re-file.

use crate::types::{Safety, LB_NONE};
use ctup_spatial::{convert, CellId};

/// Per-cell lower bounds with a cheapest-cell query.
///
/// Cells may be *detached* (BasicCTUP removes illuminated cells from the
/// directory); detached cells keep no lower bound.
#[derive(Debug, Clone)]
pub struct LbDirectory {
    lbs: Vec<Safety>,
    attached: Vec<bool>,
}

impl LbDirectory {
    /// Creates a directory for `num_cells` cells, all attached with the
    /// empty-cell bound [`LB_NONE`].
    pub fn new(num_cells: usize) -> Self {
        LbDirectory {
            lbs: vec![LB_NONE; num_cells],
            attached: vec![true; num_cells],
        }
    }

    /// Number of cells (attached or not).
    pub fn num_cells(&self) -> usize {
        self.lbs.len()
    }

    /// Whether `cell` is attached.
    pub fn is_attached(&self, cell: CellId) -> bool {
        self.attached[cell.index()]
    }

    /// The lower bound of an attached cell.
    ///
    /// # Panics
    /// Panics in debug builds when the cell is detached.
    pub fn get(&self, cell: CellId) -> Safety {
        debug_assert!(self.attached[cell.index()], "{cell:?} is detached");
        self.lbs[cell.index()]
    }

    /// Sets the lower bound of an attached cell.
    pub fn set(&mut self, cell: CellId, lb: Safety) {
        debug_assert!(self.attached[cell.index()], "{cell:?} is detached");
        self.lbs[cell.index()] = lb;
    }

    /// Adds `delta` to the lower bound of an attached cell, saturating so
    /// the [`LB_NONE`] sentinel is preserved, and returns the new value.
    pub fn add(&mut self, cell: CellId, delta: Safety) -> Safety {
        let old = self.get(cell);
        let new = if old == LB_NONE {
            LB_NONE
        } else {
            old.saturating_add(delta)
        };
        self.set(cell, new);
        new
    }

    /// Detaches `cell` (BasicCTUP: the cell becomes illuminated).
    pub fn detach(&mut self, cell: CellId) {
        debug_assert!(self.attached[cell.index()], "{cell:?} already detached");
        self.attached[cell.index()] = false;
    }

    /// Re-attaches `cell` with lower bound `lb` (BasicCTUP: darkening).
    pub fn attach(&mut self, cell: CellId, lb: Safety) {
        debug_assert!(!self.attached[cell.index()], "{cell:?} already attached");
        self.attached[cell.index()] = true;
        self.lbs[cell.index()] = lb;
    }

    /// The attached cell with the smallest lower bound, the lowest cell id
    /// on a tie; `None` only when every cell is detached.
    pub fn first(&self) -> Option<(Safety, CellId)> {
        let mut best: Option<(Safety, usize)> = None;
        for (at, (&lb, &attached)) in self.lbs.iter().zip(&self.attached).enumerate() {
            if attached && best.is_none_or(|(low, _)| lb < low) {
                best = Some((lb, at));
            }
        }
        best.map(|(lb, at)| (lb, CellId(convert::id32(at))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctup_mogen::rng::SeededRng;

    #[test]
    fn new_directory_is_all_lb_none() {
        let d = LbDirectory::new(4);
        for i in 0..4 {
            assert_eq!(d.get(CellId(i)), LB_NONE);
            assert!(d.is_attached(CellId(i)));
        }
        // Every cell ties at LB_NONE: the lowest id wins.
        assert_eq!(d.first(), Some((LB_NONE, CellId(0))));
    }

    #[test]
    fn first_follows_lower_bounds_and_breaks_ties_by_id() {
        let mut d = LbDirectory::new(4);
        d.set(CellId(0), -3);
        d.set(CellId(1), 5);
        d.set(CellId(2), -8);
        assert_eq!(d.first(), Some((-8, CellId(2))));
        d.set(CellId(3), -8);
        assert_eq!(d.first(), Some((-8, CellId(2))));
        d.set(CellId(2), 0);
        assert_eq!(d.first(), Some((-8, CellId(3))));
    }

    #[test]
    fn add_saturates_at_lb_none() {
        let mut d = LbDirectory::new(2);
        assert_eq!(d.add(CellId(0), -1), LB_NONE); // empty cell stays empty
        d.set(CellId(0), 2);
        assert_eq!(d.add(CellId(0), -3), -1);
        assert_eq!(d.add(CellId(0), 1), 0);
    }

    #[test]
    fn detach_and_attach_roundtrip() {
        let mut d = LbDirectory::new(3);
        d.set(CellId(1), -5);
        d.detach(CellId(1));
        assert!(!d.is_attached(CellId(1)));
        // A detached cell is never first, however low its old bound.
        assert_eq!(d.first(), Some((LB_NONE, CellId(0))));
        d.attach(CellId(1), -2);
        assert_eq!(d.get(CellId(1)), -2);
        assert_eq!(d.first(), Some((-2, CellId(1))));
        for i in 0..3 {
            d.detach(CellId(i));
        }
        assert_eq!(d.first(), None);
        d.attach(CellId(2), LB_NONE);
        assert_eq!(d.first(), Some((LB_NONE, CellId(2))));
    }

    #[test]
    fn set_same_value_is_noop() {
        let mut d = LbDirectory::new(2);
        d.set(CellId(0), 7);
        d.set(CellId(0), 7);
        assert_eq!(d.get(CellId(0)), 7);
        assert_eq!(d.first(), Some((7, CellId(0))));
    }

    /// The directory against a plain model under seeded set / add /
    /// detach / attach, with `LB_NONE` among the values, many ties, and
    /// draining phases that detach every cell.
    #[test]
    fn matches_a_model() {
        for seed in 1..=8 {
            let mut rng = SeededRng::seed_from_u64(seed);
            let mut sut = LbDirectory::new(12);
            // `Some(lb)` for an attached cell, `None` for a detached one.
            let mut model: Vec<Option<Safety>> = vec![Some(LB_NONE); 12];
            let mut saw_all_detached = false;
            for step in 0..2_000 {
                let draining = (step / 200) % 2 == 1;
                let at = rng.gen_range(0..12);
                let cell = CellId(at as u32);
                let value = match rng.gen_range(0..8) {
                    0 => LB_NONE,
                    _ => rng.gen_range(0..30) as Safety - 15,
                };
                match (model[at], rng.gen_range(0..4)) {
                    (None, _) if draining => {}
                    (Some(_), _) if draining => {
                        sut.detach(cell);
                        model[at] = None;
                    }
                    (None, _) => {
                        sut.attach(cell, value);
                        model[at] = Some(value);
                    }
                    (Some(_), 0) => {
                        sut.set(cell, value);
                        model[at] = Some(value);
                    }
                    (Some(old), 1) => {
                        let delta = rng.gen_range(0..7) as Safety - 3;
                        let fresh = if old == LB_NONE { LB_NONE } else { old + delta };
                        assert_eq!(sut.add(cell, delta), fresh);
                        model[at] = Some(fresh);
                    }
                    (Some(_), _) => {
                        sut.detach(cell);
                        model[at] = None;
                    }
                }
                for (i, slot) in model.iter().enumerate() {
                    let cell = CellId(i as u32);
                    assert_eq!(sut.is_attached(cell), slot.is_some());
                    if let Some(lb) = slot {
                        assert_eq!(sut.get(cell), *lb);
                    }
                }
                let expect = model
                    .iter()
                    .enumerate()
                    .filter_map(|(i, slot)| slot.map(|lb| (lb, CellId(i as u32))))
                    .min();
                assert_eq!(sut.first(), expect, "seed {seed} step {step}");
                saw_all_detached |= expect.is_none();
            }
            assert!(saw_all_detached, "seed {seed} never detached every cell");
        }
    }
}
