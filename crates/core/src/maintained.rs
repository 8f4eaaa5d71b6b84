//! The higher-level set of maintained places shared by BasicCTUP (places of
//! illuminated cells) and OptCTUP (selectively maintained unsafe places).
//!
//! Tracks, for each maintained place, its record, exact current safety and
//! home cell; keeps a safety-ordered view for `SK`/top-k extraction.
//!
//! Entries live with their cell: one `Vec` per cell, so that illuminating,
//! darkening or re-accessing a cell and step 1's scan of the touched cells
//! are linear walks over contiguous entries. A dense `PlaceId → (cell,
//! slot)` index answers point lookups. Entries leave only through
//! [`MaintainedSet::remove_cell`], which takes the whole `Vec`, and
//! [`MaintainedSet::refile_cell`], which compacts the cell's `Vec` and
//! re-points the index of every entry it moves.

use crate::config::QueryMode;
use crate::topk::SafetyOrdered;
use crate::types::{protects, Place, PlaceId, Safety, TopKEntry, LB_NONE};
use ctup_spatial::{convert, CellId, Point};
use std::mem;

/// A place held in memory with its exact safety.
#[derive(Debug, Clone)]
pub struct MaintainedPlace {
    /// The full place record.
    pub place: Place,
    /// Exact current safety.
    pub safety: Safety,
    /// The grid cell the place belongs to.
    pub cell: CellId,
}

/// Where a maintained place's entry lives: `by_cell[cell][slot]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    cell: u32,
    slot: u32,
}

impl Slot {
    /// The index value of a place that is not maintained.
    const VACANT: Slot = Slot {
        cell: u32::MAX,
        slot: u32::MAX,
    };
}

/// The set of places maintained at the higher level.
#[derive(Debug, Default)]
pub struct MaintainedSet {
    /// The entries of each cell, indexed by `CellId`; grown on demand.
    by_cell: Vec<Vec<MaintainedPlace>>,
    /// Indexed by `PlaceId`; [`Slot::VACANT`] for places not maintained.
    index: Vec<Slot>,
    ordered: SafetyOrdered,
}

impl MaintainedSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of maintained places.
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// Whether `place` is maintained.
    pub fn contains(&self, place: PlaceId) -> bool {
        self.get(place).is_some()
    }

    /// The maintained entry for `place`, if any.
    pub fn get(&self, place: PlaceId) -> Option<&MaintainedPlace> {
        let at = self.index.get(place.index())?;
        self.by_cell
            .get(convert::index(at.cell))?
            .get(convert::index(at.slot))
    }

    /// Starts maintaining `place` with the given exact safety.
    ///
    /// # Panics
    /// Panics in debug builds if the place is already maintained.
    pub fn insert(&mut self, place: Place, safety: Safety, cell: CellId) {
        let id = place.id;
        debug_assert!(!self.contains(id), "{id:?} maintained twice");
        if self.by_cell.len() <= cell.index() {
            self.by_cell.resize_with(cell.index() + 1, Vec::new);
        }
        if self.index.len() <= id.index() {
            self.index.resize(id.index() + 1, Slot::VACANT);
        }
        let entries = &mut self.by_cell[cell.index()];
        self.index[id.index()] = Slot {
            cell: cell.0,
            slot: convert::id32(entries.len()),
        };
        entries.push(MaintainedPlace {
            place,
            safety,
            cell,
        });
        self.ordered.insert(id, safety);
    }

    /// Stops maintaining every place of `cell` and returns the entries.
    pub fn remove_cell(&mut self, cell: CellId) -> Vec<MaintainedPlace> {
        let Some(entries) = self.by_cell.get_mut(cell.index()) else {
            return Vec::new();
        };
        let entries = mem::take(entries);
        for entry in &entries {
            self.index[entry.place.id.index()] = Slot::VACANT;
            self.ordered.remove(entry.place.id, entry.safety);
        }
        entries
    }

    /// Re-files `cell` after its places were read again: of `records`,
    /// whose fresh safeties are `safeties` in the same order, exactly those
    /// whose safety `keep` accepts are maintained afterwards. Only places
    /// that enter or leave touch the ordered view, and only entering places
    /// are cloned. A place that stays with a safety other than its held one
    /// is moved to the fresh safety; returns how many were.
    pub fn refile_cell(
        &mut self,
        cell: CellId,
        records: &[Place],
        safeties: &[Safety],
        keep: impl Fn(Safety) -> bool,
    ) -> usize {
        debug_assert_eq!(records.len(), safeties.len());
        let mut moved = 0;
        let mut left = false;
        for (record, &safety) in records.iter().zip(safeties) {
            let id = record.id;
            match (self.slot_in(id, cell), keep(safety)) {
                (Some(slot), true) => {
                    let entry = &mut self.by_cell[cell.index()][slot];
                    if entry.safety != safety {
                        self.ordered.update(id, entry.safety, safety);
                        entry.safety = safety;
                        moved += 1;
                    }
                }
                (Some(slot), false) => {
                    self.ordered
                        .remove(id, self.by_cell[cell.index()][slot].safety);
                    self.index[id.index()] = Slot::VACANT;
                    left = true;
                }
                (None, true) => self.insert(record.clone(), safety, cell),
                (None, false) => {}
            }
        }
        if left {
            // Drop the entries whose index was just vacated, and re-point
            // the index of every survivor at the slot it moves to.
            let index = &mut self.index;
            let mut slot = 0;
            self.by_cell[cell.index()].retain(|entry| {
                let at = &mut index[entry.place.id.index()];
                if *at == Slot::VACANT {
                    return false;
                }
                at.slot = convert::id32(slot);
                slot += 1;
                true
            });
        }
        moved
    }

    /// The slot of `place` among `cell`'s entries, if it is held there.
    fn slot_in(&self, place: PlaceId, cell: CellId) -> Option<usize> {
        let at = self.index.get(place.index())?;
        (at.cell == cell.0).then(|| convert::index(at.slot))
    }

    /// The k-th smallest safety (1-based `k`) as it would be if `cell`'s
    /// held places were replaced by places with the safeties `fresh`, which
    /// must be sorted and include the cell's `k` smallest; `None` when fewer
    /// than `k` places would be held.
    pub fn kth_safety_with(&self, k: usize, cell: CellId, fresh: &[Safety]) -> Option<Safety> {
        debug_assert!(k > 0 && fresh.windows(2).all(|w| w[0] <= w[1]));
        let mut others = self
            .ordered
            .iter()
            .filter(|&(_, id)| self.slot_in(id, cell).is_none())
            .map(|(safety, _)| safety)
            .peekable();
        let mut fresh = fresh.iter().copied().peekable();
        std::iter::from_fn(|| match (fresh.peek(), others.peek()) {
            (Some(&f), Some(&o)) if o < f => others.next(),
            (Some(_), _) => fresh.next(),
            (None, _) => others.next(),
        })
        .nth(k - 1)
    }

    /// The entries maintained for `cell`, in insertion order.
    pub fn cell_entries(&self, cell: CellId) -> &[MaintainedPlace] {
        self.by_cell.get(cell.index()).map_or(&[], Vec::as_slice)
    }

    /// Updates every maintained place's safety for a unit that moved from
    /// `old` to `new` (update-algorithm step 1 of both schemes). Returns the
    /// number of safeties that changed.
    ///
    /// `touched` must contain every cell intersecting the old or new
    /// protecting region (see [`crate::cells::touched_cells`]): a place's
    /// protection by the unit can only change if its position lies inside
    /// one of the two regions, and its cell then intersects that region.
    /// Restricting the scan to those cells keeps step 1 proportional to the
    /// local maintained density rather than the global maintained count.
    pub fn apply_unit_move(
        &mut self,
        old: Point,
        new: Point,
        radius: f64,
        touched: &[CellId],
    ) -> usize {
        let mut changed = 0;
        for cell in touched {
            let Some(entries) = self.by_cell.get_mut(cell.index()) else {
                continue;
            };
            for entry in entries {
                let was = protects(old, radius, &entry.place);
                let is = protects(new, radius, &entry.place);
                if was != is {
                    let delta: Safety = if is { 1 } else { -1 };
                    let fresh = entry.safety + delta;
                    self.ordered.update(entry.place.id, entry.safety, fresh);
                    entry.safety = fresh;
                    changed += 1;
                }
            }
        }
        changed
    }

    /// The effective `SK` for a query mode: the k-th smallest maintained
    /// safety in top-k mode (or [`LB_NONE`] while fewer than `k` places are
    /// maintained, which forces cell accesses), and the fixed threshold in
    /// threshold mode.
    pub fn sk_eff(&self, mode: QueryMode) -> Safety {
        match mode {
            QueryMode::TopK(k) => self.ordered.kth_safety(k).unwrap_or(LB_NONE),
            QueryMode::Threshold(tau) => tau,
        }
    }

    /// The monitored result under `mode`, sorted by `(safety, id)`.
    pub fn result(&self, mode: QueryMode) -> Vec<TopKEntry> {
        self.ordered.result(mode).collect()
    }

    /// Whether [`MaintainedSet::result`] would equal `last`, decided by
    /// walking the ordered prefix in place, without building the result.
    pub fn result_equals(&self, mode: QueryMode, last: &[TopKEntry]) -> bool {
        self.ordered.result(mode).eq(last.iter().copied())
    }

    /// The ordered view (for invariant checks and diagnostics).
    pub fn ordered(&self) -> &SafetyOrdered {
        &self.ordered
    }

    /// Verifies the entries, the index and the ordered view agree; used by
    /// tests.
    pub fn check_invariants(&self) {
        let mut stored = 0usize;
        for (cell, entries) in self.by_cell.iter().enumerate() {
            for (slot, entry) in entries.iter().enumerate() {
                assert_eq!(
                    entry.cell.index(),
                    cell,
                    "{:?} filed under the wrong cell",
                    entry.place.id
                );
                let at = self.index.get(entry.place.id.index()).copied();
                assert_eq!(
                    at,
                    Some(Slot {
                        cell: convert::id32(cell),
                        slot: convert::id32(slot),
                    }),
                    "index of {:?} does not point at its entry",
                    entry.place.id
                );
                stored += 1;
            }
        }
        assert_eq!(stored, self.len(), "ordered view and entries disagree");
        // Every index entry points at an entry with that id, so none
        // survives its entry's removal.
        let mut indexed = 0;
        for (id, &at) in self.index.iter().enumerate() {
            if at == Slot::VACANT {
                continue;
            }
            let target = self
                .by_cell
                .get(convert::index(at.cell))
                .and_then(|entries| entries.get(convert::index(at.slot)));
            assert_eq!(
                target.map(|entry| entry.place.id.index()),
                Some(id),
                "stale index entry for place {id}"
            );
            indexed += 1;
        }
        assert_eq!(indexed, stored, "index and entries disagree");
        for (safety, id) in self.ordered.iter() {
            let entry = self.get(id);
            assert_eq!(
                entry.map(|e| e.safety),
                Some(safety),
                "ordered view stale for {id:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn place(id: u32, x: f64, y: f64, rp: u32) -> Place {
        Place::point(PlaceId(id), Point::new(x, y), rp)
    }

    fn sample() -> MaintainedSet {
        let mut m = MaintainedSet::new();
        m.insert(place(0, 0.50, 0.50, 3), -3, CellId(55));
        m.insert(place(1, 0.52, 0.50, 1), -1, CellId(55));
        m.insert(place(2, 0.90, 0.90, 6), -6, CellId(99));
        m.check_invariants();
        m
    }

    #[test]
    fn insert_and_views() {
        let m = sample();
        assert_eq!(m.len(), 3);
        assert!(m.contains(PlaceId(1)));
        assert!(!m.contains(PlaceId(3)));
        assert_eq!(m.cell_entries(CellId(55)).len(), 2);
        assert_eq!(m.cell_entries(CellId(99)).len(), 1);
        assert!(m.cell_entries(CellId(12)).is_empty());
        assert_eq!(m.sk_eff(QueryMode::TopK(1)), -6);
        assert_eq!(m.sk_eff(QueryMode::TopK(2)), -3);
        assert_eq!(m.sk_eff(QueryMode::TopK(4)), LB_NONE);
        assert_eq!(m.sk_eff(QueryMode::Threshold(-2)), -2);
    }

    #[test]
    fn apply_unit_move_adjusts_affected_places() {
        let mut m = sample();
        // Unit leaves the vicinity of places 0 and 1 (they lose a protector)
        // and arrives near place 2 (gains one).
        let touched = [CellId(55), CellId(99)];
        let changed = m.apply_unit_move(
            Point::new(0.51, 0.50),
            Point::new(0.9, 0.88),
            0.05,
            &touched,
        );
        assert_eq!(changed, 3);
        assert_eq!(m.get(PlaceId(0)).unwrap().safety, -4);
        assert_eq!(m.get(PlaceId(1)).unwrap().safety, -2);
        assert_eq!(m.get(PlaceId(2)).unwrap().safety, -5);
        m.check_invariants();
    }

    #[test]
    fn apply_unit_move_far_away_changes_nothing() {
        let mut m = sample();
        let touched = [CellId(0), CellId(1)];
        let changed =
            m.apply_unit_move(Point::new(0.1, 0.1), Point::new(0.12, 0.1), 0.05, &touched);
        assert_eq!(changed, 0);
        m.check_invariants();
    }

    #[test]
    fn apply_unit_move_skips_untouched_cells() {
        let mut m = sample();
        // The move would affect cell 55's places, but only cell 99 is
        // declared touched — callers guarantee touched covers both regions,
        // so the method must restrict itself to the given cells.
        let changed = m.apply_unit_move(
            Point::new(0.51, 0.50),
            Point::new(0.9, 0.88),
            0.05,
            &[CellId(99)],
        );
        assert_eq!(changed, 1);
        assert_eq!(m.get(PlaceId(2)).unwrap().safety, -5);
        m.check_invariants();
    }

    #[test]
    fn remove_cell_clears_all_views() {
        let mut m = sample();
        let removed = m.remove_cell(CellId(55));
        assert_eq!(removed.len(), 2);
        assert_eq!(m.len(), 1);
        assert!(!m.contains(PlaceId(0)));
        assert!(m.get(PlaceId(1)).is_none());
        assert_eq!(m.cell_entries(CellId(55)).len(), 0);
        assert_eq!(m.cell_entries(CellId(99)).len(), 1);
        assert_eq!(m.remove_cell(CellId(55)).len(), 0);
        // A cell never seen, past the end of the per-cell storage.
        assert_eq!(m.remove_cell(CellId(400)).len(), 0);
        m.check_invariants();
    }

    #[test]
    fn get_after_remove_and_reinsert_into_another_cell() {
        let mut m = sample();
        m.remove_cell(CellId(55));
        // Place 1 comes back under a different cell; place 0 stays out.
        m.insert(place(1, 0.52, 0.50, 1), -4, CellId(12));
        m.check_invariants();
        let entry = m.get(PlaceId(1)).expect("re-inserted");
        assert_eq!((entry.cell, entry.safety), (CellId(12), -4));
        assert!(m.get(PlaceId(0)).is_none());
        assert_eq!(m.cell_entries(CellId(55)).len(), 0);
        // Slots restart per cell: a second place in cell 12 gets slot 1,
        // and both stay reachable after another cell is removed.
        m.insert(place(0, 0.50, 0.50, 3), -3, CellId(12));
        m.remove_cell(CellId(99));
        m.check_invariants();
        assert_eq!(m.get(PlaceId(0)).map(|e| e.safety), Some(-3));
        assert_eq!(m.get(PlaceId(1)).map(|e| e.safety), Some(-4));
        assert_eq!(m.len(), 2);
    }

    /// Re-filing cell 55 against its records read again: place 0 leaves
    /// from slot 0, place 1 stays with a different safety, place 3 enters
    /// and place 4 stays as it was.
    #[test]
    fn refile_cell_touches_only_what_changed() {
        let mut m = sample();
        m.insert(place(4, 0.54, 0.50, 5), -5, CellId(55));
        m.check_invariants();
        let records = [
            place(0, 0.50, 0.50, 3),
            place(1, 0.52, 0.50, 1),
            place(3, 0.55, 0.55, 4),
            place(4, 0.54, 0.50, 5),
        ];
        let keep = |safety: Safety| safety < -1;
        let moved = m.refile_cell(CellId(55), &records, &[0, -2, -4, -5], keep);
        m.check_invariants();
        assert_eq!(moved, 1, "only place 1 stayed at a new safety");
        assert!(!m.contains(PlaceId(0)));
        assert_eq!(m.get(PlaceId(1)).map(|e| e.safety), Some(-2));
        assert_eq!(
            m.get(PlaceId(3)).map(|e| (e.safety, e.cell)),
            Some((-4, CellId(55)))
        );
        assert_eq!(m.get(PlaceId(4)).map(|e| e.safety), Some(-5));
        // The survivors close the gap in order, the newcomer follows, and
        // the index points at the new slots.
        let ids: Vec<u32> = m
            .cell_entries(CellId(55))
            .iter()
            .map(|e| e.place.id.0)
            .collect();
        assert_eq!(ids, [1, 4, 3]);
        assert_eq!(m.index[1], Slot { cell: 55, slot: 0 });
        assert_eq!(m.index[4], Slot { cell: 55, slot: 1 });
        assert_eq!(m.index[3], Slot { cell: 55, slot: 2 });
        let order: Vec<(Safety, u32)> = m.ordered().iter().map(|(s, id)| (s, id.0)).collect();
        assert_eq!(order, [(-6, 2), (-5, 4), (-4, 3), (-2, 1)]);
        assert_eq!(m.cell_entries(CellId(99)).len(), 1, "other cells untouched");

        // A cell never seen before, then cell 55 re-filed empty.
        m.refile_cell(CellId(300), &[place(5, 0.1, 0.1, 2)], &[-2], keep);
        m.check_invariants();
        m.refile_cell(CellId(55), &records, &[0, 0, 0, 0], keep);
        m.check_invariants();
        assert!(m.cell_entries(CellId(55)).is_empty());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn kth_safety_with_replaces_the_cells_held_places() {
        // Held: cell 55 at -3 and -1, cell 99 at -6.
        let m = sample();
        // Cell 55 read again at -4 and 0: the merge is -6, -4, 0.
        assert_eq!(m.kth_safety_with(1, CellId(55), &[-4, 0]), Some(-6));
        assert_eq!(m.kth_safety_with(2, CellId(55), &[-4, 0]), Some(-4));
        assert_eq!(m.kth_safety_with(3, CellId(55), &[-4, 0]), Some(0));
        assert_eq!(m.kth_safety_with(4, CellId(55), &[-4, 0]), None);
        // A cell holding nothing adds to every held place.
        assert_eq!(m.kth_safety_with(2, CellId(12), &[-7]), Some(-6));
        assert_eq!(m.kth_safety_with(4, CellId(12), &[-7]), Some(-1));
    }

    #[test]
    fn result_modes() {
        let m = sample();
        let top2 = m.result(QueryMode::TopK(2));
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].place, PlaceId(2));
        assert_eq!(top2[1].place, PlaceId(0));
        let below = m.result(QueryMode::Threshold(-1));
        assert_eq!(below.len(), 2);
    }

    fn entry(place: u32, safety: Safety) -> TopKEntry {
        TopKEntry {
            place: PlaceId(place),
            safety,
        }
    }

    #[test]
    fn result_equals_agrees_with_result_in_top_k_mode() {
        let mut m = sample();
        // Fewer than k places maintained: the result is everything held.
        let mode = QueryMode::TopK(5);
        let all = m.result(mode);
        assert_eq!(all.len(), 3);
        assert!(m.result_equals(mode, &all));
        assert!(!m.result_equals(mode, &all[..2]), "a missing tail entry");
        let mut longer = all.clone();
        longer.push(entry(7, 0));
        assert!(!m.result_equals(mode, &longer), "an extra tail entry");
        assert!(!m.result_equals(mode, &[]));

        // Ties at SK are ordered by id: swapping two equal-safety entries
        // is a different result.
        m.insert(place(7, 0.3, 0.3, 3), -3, CellId(33));
        let mode = QueryMode::TopK(3);
        let top = m.result(mode);
        assert_eq!(top, [entry(2, -6), entry(0, -3), entry(7, -3)]);
        assert!(m.result_equals(mode, &top));
        assert!(!m.result_equals(mode, &[entry(2, -6), entry(7, -3), entry(0, -3)]));
        // Same places, a safety off by one.
        assert!(!m.result_equals(mode, &[entry(2, -6), entry(0, -3), entry(7, -2)]));
        m.check_invariants();
    }

    #[test]
    fn result_equals_agrees_with_result_in_threshold_mode() {
        let m = sample();
        // The threshold is strict: safety -3 is not below -3.
        let mode = QueryMode::Threshold(-3);
        assert_eq!(m.result(mode), [entry(2, -6)]);
        assert!(m.result_equals(mode, &[entry(2, -6)]));
        assert!(!m.result_equals(mode, &[entry(2, -6), entry(0, -3)]));
        // One above, the -3 place joins.
        let mode = QueryMode::Threshold(-2);
        assert!(m.result_equals(mode, &[entry(2, -6), entry(0, -3)]));
        assert!(!m.result_equals(mode, &[entry(2, -6)]));
        // Nothing below the lowest safety.
        let mode = QueryMode::Threshold(-6);
        assert!(m.result(mode).is_empty());
        assert!(m.result_equals(mode, &[]));
        assert!(!m.result_equals(mode, &[entry(2, -6)]));
    }
}
