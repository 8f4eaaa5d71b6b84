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
//! re-points the index of every entry it keeps.

use crate::topk::{span, SafetyOrdered};
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

/// The number of safeties from `low` up to `safety`, exclusive; `None`
/// when `safety` is below `low`.
fn offset(low: Safety, safety: Safety) -> Option<usize> {
    usize::try_from(safety - low).ok()
}

/// The set of places maintained at the higher level.
#[derive(Debug, Default)]
pub struct MaintainedSet {
    /// The entries of each cell, indexed by `CellId`; grown on demand.
    by_cell: Vec<Vec<MaintainedPlace>>,
    /// Indexed by `PlaceId`; [`Slot::VACANT`] for places not maintained.
    index: Vec<Slot>,
    ordered: SafetyOrdered,
    /// Scratch for [`MaintainedSet::kth_safety_with`]: per safety from the
    /// lowest fresh one up, how many places a re-filed cell adds.
    added: Vec<usize>,
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
    /// whose safety `keep` accepts are maintained afterwards.
    ///
    /// Every held safety must be exact, that is equal to its record's fresh
    /// safety (step 1 keeps it so; debug builds check it). A held entry is
    /// therefore decided on its held safety in one pass over the cell's
    /// entries, and only records whose fresh safety is kept are looked up
    /// in the index, to add those not yet held. Only places that enter or
    /// leave touch the ordered view, and only entering places are cloned.
    pub fn refile_cell(
        &mut self,
        cell: CellId,
        records: &[Place],
        safeties: &[Safety],
        keep: impl Fn(Safety) -> bool,
    ) {
        debug_assert_eq!(records.len(), safeties.len());
        #[cfg(debug_assertions)]
        for (record, &safety) in records.iter().zip(safeties) {
            if let Some(slot) = self.slot_in(record.id, cell) {
                let held = self.by_cell[cell.index()][slot].safety;
                assert_eq!(
                    held, safety,
                    "{cell:?}: held safety of {:?} is stale",
                    record.id
                );
            }
        }
        if let Some(entries) = self.by_cell.get_mut(cell.index()) {
            // Drop the leavers, and re-point the index of every survivor at
            // the slot it moves to.
            let (index, ordered) = (&mut self.index, &mut self.ordered);
            let mut slot = 0;
            entries.retain(|entry| {
                let at = &mut index[entry.place.id.index()];
                if !keep(entry.safety) {
                    ordered.remove(entry.place.id, entry.safety);
                    *at = Slot::VACANT;
                    return false;
                }
                at.slot = convert::id32(slot);
                slot += 1;
                true
            });
        }
        for (record, &safety) in records.iter().zip(safeties) {
            if keep(safety) && self.slot_in(record.id, cell).is_none() {
                self.insert(record.clone(), safety, cell);
            }
        }
    }

    /// The slot of `place` among `cell`'s entries, if it is held there.
    fn slot_in(&self, place: PlaceId, cell: CellId) -> Option<usize> {
        let at = self.index.get(place.index())?;
        (at.cell == cell.0).then(|| convert::index(at.slot))
    }

    /// The k-th smallest safety (1-based `k`) as it would be if `cell`'s
    /// held places were replaced by places with the safeties `fresh`, in
    /// any order; `None` when fewer than `k` places would be held.
    ///
    /// `fresh` must be the safeties of all the cell's places, and every
    /// held safety exact (see [`MaintainedSet::refile_cell`]), so each held
    /// entry of the cell is one of `fresh`. The walk then counts, per
    /// safety from the lowest level up, the held places plus the fresh ones
    /// minus the cell's held ones, until the total reaches `k`. The per-safety
    /// difference is sized from the fresh safeties' own range.
    pub fn kth_safety_with(&mut self, k: usize, cell: CellId, fresh: &[Safety]) -> Option<Safety> {
        debug_assert!(k > 0);
        let (Some(&low), Some(&high)) = (fresh.iter().min(), fresh.iter().max()) else {
            // A cell without places holds none.
            return self.ordered.kth_safety(k);
        };
        let added = &mut self.added;
        added.clear();
        added.resize(span(low, high) + 1, 0);
        for &safety in fresh {
            added[span(low, safety)] += 1;
        }
        for entry in self
            .by_cell
            .get(cell.index())
            .map_or(&[][..], Vec::as_slice)
        {
            let count = offset(low, entry.safety).and_then(|at| added.get_mut(at));
            debug_assert!(count.is_some(), "{cell:?}: held safety is not a fresh one");
            if let Some(count) = count {
                *count = count.saturating_sub(1);
            }
        }
        let levels = self.ordered.level_range();
        let (from, to) = if levels.is_empty() {
            (low, high)
        } else {
            (low.min(levels.start), high.max(levels.end - 1))
        };
        let mut seen = 0;
        for safety in from..=to {
            seen += self.ordered.count_at(safety);
            seen += offset(low, safety)
                .and_then(|at| added.get(at))
                .map_or(0, |&n| n);
            if seen >= k {
                return Some(safety);
            }
        }
        None
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

    /// The effective `SK`: the k-th smallest maintained safety, or
    /// [`LB_NONE`] while fewer than `k` places are maintained, which forces
    /// cell accesses.
    pub fn sk_eff(&self, k: usize) -> Safety {
        self.ordered.kth_safety(k).unwrap_or(LB_NONE)
    }

    /// The monitored top-`k`, sorted by `(safety, id)`.
    pub fn result(&self, k: usize) -> Vec<TopKEntry> {
        self.ordered.result(k).collect()
    }

    /// Whether [`MaintainedSet::result`] would equal `last`, decided by
    /// walking the ordered prefix in place, without building the result.
    pub fn result_equals(&self, k: usize, last: &[TopKEntry]) -> bool {
        self.ordered.result(k).eq(last.iter().copied())
    }

    /// The lowest safety any change to the ordered view touched since the
    /// last call, or `None`; see [`SafetyOrdered::take_low_water`].
    pub fn take_low_water(&mut self) -> Option<Safety> {
        self.ordered.take_low_water()
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
        assert_eq!(m.sk_eff(1), -6);
        assert_eq!(m.sk_eff(2), -3);
        assert_eq!(m.sk_eff(4), LB_NONE);
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

    /// Re-filing cell 55 against its records read again, with every held
    /// safety exact: place 0 (held at -3) leaves, place 1 (held at -1) and
    /// place 4 (held at -5) stay, place 3 enters at -4 and place 6 stays
    /// out at 0.
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
            place(6, 0.56, 0.50, 0),
        ];
        let safeties = [-3, -1, -4, -5, 0];
        m.refile_cell(CellId(55), &records, &safeties, |safety| {
            safety != -3 && safety < 0
        });
        m.check_invariants();
        assert!(!m.contains(PlaceId(0)));
        assert!(!m.contains(PlaceId(6)));
        assert_eq!(m.get(PlaceId(1)).map(|e| e.safety), Some(-1));
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
        assert_eq!(order, [(-6, 2), (-5, 4), (-4, 3), (-1, 1)]);
        assert_eq!(m.cell_entries(CellId(99)).len(), 1, "other cells untouched");

        // A cell never seen before, then cell 55 re-filed empty.
        let keep = |safety: Safety| safety < -1;
        m.refile_cell(CellId(300), &[place(5, 0.1, 0.1, 2)], &[-2], keep);
        m.check_invariants();
        let safeties = [0, -1, -4, -5, 0];
        m.refile_cell(CellId(55), &records, &safeties, |_| false);
        m.check_invariants();
        assert!(m.cell_entries(CellId(55)).is_empty());
        assert_eq!(m.len(), 2);
    }

    /// A held safety that differs from its record's fresh one breaks the
    /// contract `refile_cell` relies on, and debug builds catch it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "held safety of PlaceId(1) is stale")]
    fn refile_cell_catches_a_stale_held_safety() {
        let mut m = sample();
        let records = [place(0, 0.50, 0.50, 3), place(1, 0.52, 0.50, 1)];
        // Place 1 is held at -1 but reads -2.
        m.refile_cell(CellId(55), &records, &[-3, -2], |safety| safety < 0);
    }

    #[test]
    fn kth_safety_with_replaces_the_cells_held_places() {
        // Held: cell 55 at -3 and -1, cell 99 at -6.
        let mut m = sample();
        // Cell 55 read again: its held places at -3 and -1, two more at -4
        // and 0. The merge is -6, -4, -3, -1, 0.
        let fresh = [0, -3, -4, -1];
        assert_eq!(m.kth_safety_with(1, CellId(55), &fresh), Some(-6));
        assert_eq!(m.kth_safety_with(2, CellId(55), &fresh), Some(-4));
        assert_eq!(m.kth_safety_with(3, CellId(55), &fresh), Some(-3));
        assert_eq!(m.kth_safety_with(5, CellId(55), &fresh), Some(0));
        assert_eq!(m.kth_safety_with(6, CellId(55), &fresh), None);
        // A cell holding nothing adds to every held place.
        assert_eq!(m.kth_safety_with(2, CellId(12), &[-7]), Some(-6));
        assert_eq!(m.kth_safety_with(4, CellId(12), &[-7]), Some(-1));
        // A cell without places leaves the held ones as they are.
        assert_eq!(m.kth_safety_with(3, CellId(12), &[]), Some(-1));
        assert_eq!(m.kth_safety_with(4, CellId(12), &[]), None);
    }

    /// `kth_safety_with` against its definition: the k-th element of the
    /// sorted multiset of the safeties held outside the cell and the cell's
    /// fresh ones. Seeded cells hold none, some or all of their places;
    /// totals fall short of k; and fresh safeties reach below the ordered
    /// view's lowest level.
    #[test]
    fn kth_safety_with_matches_its_definition() {
        use ctup_mogen::rng::SeededRng;
        let rounds = if cfg!(miri) { 30 } else { 400 };
        let mut rng = SeededRng::seed_from_u64(0x42);
        for round in 0..rounds {
            let mut m = MaintainedSet::new();
            let cells = 1 + rng.gen_range(0..4);
            let mut id = 0u32;
            let mut fresh_of: Vec<Vec<Safety>> = Vec::new();
            for cell in 0..cells {
                let mut fresh = Vec::new();
                for _ in 0..rng.gen_range(0..12) {
                    let safety = rng.gen_range(0..30) as Safety - 10;
                    if rng.gen_range(0..2) == 0 {
                        m.insert(place(id, 0.5, 0.5, 0), safety, CellId(cell as u32));
                    }
                    fresh.push(safety);
                    id += 1;
                }
                fresh_of.push(fresh);
            }
            // The accessed cell's fresh places also include some far below
            // every held safety.
            let cell = rng.gen_range(0..cells);
            let mut fresh = fresh_of[cell].clone();
            for _ in 0..rng.gen_range(0..3) {
                fresh.push(rng.gen_range(0..20) as Safety - 40);
            }
            let mut model: Vec<Safety> = m
                .ordered()
                .iter()
                .filter(|&(_, id)| m.get(id).is_some_and(|e| e.cell.index() != cell))
                .map(|(safety, _)| safety)
                .chain(fresh.iter().copied())
                .collect();
            model.sort_unstable();
            for k in 1..=model.len() + 2 {
                assert_eq!(
                    m.kth_safety_with(k, CellId(cell as u32), &fresh),
                    model.get(k - 1).copied(),
                    "round {round} cell {cell} k {k}"
                );
            }
        }
    }

    #[test]
    fn result_modes() {
        let m = sample();
        let top2 = m.result(2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].place, PlaceId(2));
        assert_eq!(top2[1].place, PlaceId(0));
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
        let k = 5;
        let all = m.result(k);
        assert_eq!(all.len(), 3);
        assert!(m.result_equals(k, &all));
        assert!(!m.result_equals(k, &all[..2]), "a missing tail entry");
        let mut longer = all.clone();
        longer.push(entry(7, 0));
        assert!(!m.result_equals(k, &longer), "an extra tail entry");
        assert!(!m.result_equals(k, &[]));

        // Ties at SK are ordered by id: swapping two equal-safety entries
        // is a different result.
        m.insert(place(7, 0.3, 0.3, 3), -3, CellId(33));
        let k = 3;
        let top = m.result(k);
        assert_eq!(top, [entry(2, -6), entry(0, -3), entry(7, -3)]);
        assert!(m.result_equals(k, &top));
        assert!(!m.result_equals(k, &[entry(2, -6), entry(7, -3), entry(0, -3)]));
        // Same places, a safety off by one.
        assert!(!m.result_equals(k, &[entry(2, -6), entry(0, -3), entry(7, -2)]));
        m.check_invariants();
    }
}
