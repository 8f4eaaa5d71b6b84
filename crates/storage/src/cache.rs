//! A bounded, frequency-gated cell-read cache over any [`PlaceStore`].
//!
//! The CTUP schemes re-read hot cells — the access loop keeps returning to
//! the cells with the smallest lower bounds — and on the paged store each
//! such read pays the full simulated-disk latency again. [`CachedStore`]
//! keeps the most-read cells resident, bounded by a page budget (weights
//! come from [`PlaceStore::cell_pages`]), and serves repeats without
//! touching the lower level. Hits, misses and evictions are counted in the
//! wrapped store's [`StorageStats`]; hits do **not** count as
//! `cell_reads`/`pages_read`/`io_nanos`, so a cached run visibly reads
//! fewer bytes from the (simulated) disk.
//!
//! **Policy.** Every grid cell has one slot holding its records while
//! resident, its page weight, the tick of its latest demand read and an
//! aged count of its demand reads. Every demand read, hit or miss, bumps
//! the count and the tick; every `AGING_PERIOD_PER_CELL` × cells reads,
//! all counts are halved, so demand that moved away fades within a few
//! periods. A missed cell that fits the spare budget is admitted. Else its
//! victims are the residents in ascending `(count, tick)` order — least
//! read first, least recently read among equals — taken until it fits,
//! and it is admitted only if its count is strictly greater than every
//! victim's; otherwise it is served uncached and nothing is evicted. The
//! gate is TinyLFU's (Einziger, Friedman & Manes, ACM TOS 2017) with an
//! exact count per cell, since a grid has few cells. It keeps a cell read
//! once from displacing a cell read often: on the engine's traffic the
//! busiest half of the cells takes most reads, at reuse distances longer
//! than the budget, so recency alone keeps evicting the cells that come
//! back (DESIGN.md §18).
//!
//! The cache has no write path: the place set is fixed and its lower level
//! read-only, so a resident copy can never go stale.

use crate::error::StorageError;
use crate::place::PlaceRecord;
use crate::stats::StorageStats;
use crate::store::PlaceStore;
use ctup_spatial::{convert, CellId, Grid};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard};

/// Demand reads between two halvings of every count, per grid cell. On
/// replayed Table III access traces (100 cells), periods from 1 000 to
/// 5 000 reads gave the same hit ratio within 0.002 (DESIGN.md §18).
const AGING_PERIOD_PER_CELL: u64 = 16;

/// Decoded records of a resident cell, shared with the readers that copy
/// them out after the lock is released.
type Records = Arc<Vec<PlaceRecord>>;

/// One grid cell's cache state.
#[derive(Default)]
struct Slot {
    /// The decoded records, while resident.
    records: Option<Records>,
    /// Page weight of the resident records.
    pages: u64,
    /// Tick of the latest demand read.
    tick: u64,
    /// Demand reads, halved every aging period.
    count: u64,
}

/// Mutable cache state behind one mutex.
struct State {
    /// One slot per grid cell, indexed by [`CellId::index`].
    slots: Vec<Slot>,
    /// Reused by admission: the residents that may be evicted, as
    /// `(count, tick, slot index)`.
    victims: Vec<(u64, u64, usize)>,
    used_pages: u64,
    next_tick: u64,
    /// Demand reads between two halvings of every count.
    aging_period: u64,
    /// Demand reads since the last halving.
    reads_since_aging: u64,
}

impl State {
    /// Counts one demand read of `idx` and returns its records if resident.
    fn note_read(&mut self, idx: usize) -> Option<Records> {
        self.next_tick += 1;
        let slot = self.slots.get_mut(idx)?;
        slot.count += 1;
        slot.tick = self.next_tick;
        let records = slot.records.clone();
        self.reads_since_aging += 1;
        if self.reads_since_aging == self.aging_period {
            self.reads_since_aging = 0;
            for slot in &mut self.slots {
                slot.count /= 2;
            }
        }
        records
    }

    /// Admits `records` (weighing `pages`) as the cell `idx` if it fits
    /// the spare budget, or if the least-read residents that make it fit
    /// were all read fewer times than `idx`; those are moved to
    /// `evicted`. Otherwise leaves the cache as it is.
    fn admit(
        &mut self,
        idx: usize,
        records: &Records,
        pages: u64,
        capacity: u64,
        evicted: &mut Vec<Records>,
    ) {
        let State {
            slots,
            victims,
            used_pages,
            ..
        } = self;
        let Some(count) = slots.get(idx).map(|s| s.count) else {
            return;
        };
        if slots[idx].records.is_some() {
            return; // a concurrent miss admitted it first
        }
        let need = (*used_pages + pages).saturating_sub(capacity);
        if need > 0 {
            // Ascending `(count, tick)` order puts every resident read
            // fewer times than the candidate first, so the cell is
            // admitted iff those alone free enough pages.
            victims.clear();
            let mut eligible = 0;
            for (i, slot) in slots.iter().enumerate() {
                if slot.records.is_some() && slot.count < count {
                    eligible += slot.pages;
                    victims.push((slot.count, slot.tick, i));
                }
            }
            if eligible < need {
                return;
            }
            victims.sort_unstable();
            let mut freed = 0;
            for &(_, _, i) in victims.iter() {
                if freed >= need {
                    break;
                }
                let slot = &mut slots[i];
                freed += slot.pages;
                evicted.extend(slot.records.take());
            }
            *used_pages -= freed;
        }
        let slot = &mut slots[idx];
        slot.records = Some(Arc::clone(records));
        slot.pages = pages;
        *used_pages += pages;
    }
}

/// A bounded, frequency-gated cell-read cache wrapping another
/// [`PlaceStore`] (see the module doc for the policy).
///
/// Capacity is expressed in pages; a capacity of zero disables the cache
/// entirely (every read passes straight through, and no cache counters
/// move). The wrapper shares the inner store's [`StorageStats`], so
/// existing reporting picks up cached runs without rewiring.
pub struct CachedStore {
    inner: Arc<dyn PlaceStore>,
    capacity_pages: u64,
    state: Mutex<State>,
}

impl std::fmt::Debug for CachedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedStore")
            .field("capacity_pages", &self.capacity_pages)
            .finish_non_exhaustive()
    }
}

impl CachedStore {
    /// Wraps `inner` with a cache holding at most `capacity_pages` pages of
    /// decoded cells. Zero disables caching.
    pub fn new(inner: Arc<dyn PlaceStore>, capacity_pages: u64) -> Self {
        let cells = inner.grid().num_cells();
        let state = State {
            slots: std::iter::repeat_with(Slot::default).take(cells).collect(),
            victims: Vec::with_capacity(cells),
            used_pages: 0,
            next_tick: 0,
            aging_period: AGING_PERIOD_PER_CELL * convert::count64(cells.max(1)),
            reads_since_aging: 0,
        };
        CachedStore {
            inner,
            capacity_pages,
            state: Mutex::new(state),
        }
    }

    /// The configured capacity in pages (zero means disabled).
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> u64 {
        self.lock_state().used_pages
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        // A poisoned cache mutex only means another thread panicked between
        // pure slot updates; the state is still structurally sound, so
        // recover it rather than propagate the panic.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl PlaceStore for CachedStore {
    fn grid(&self) -> &Grid {
        self.inner.grid()
    }

    fn num_places(&self) -> usize {
        self.inner.num_places()
    }

    fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError> {
        if self.capacity_pages == 0 {
            return self.inner.read_cell(cell);
        }
        let stats = self.inner.stats();
        let resident = self.lock_state().note_read(cell.index());
        if let Some(records) = resident {
            stats.record_cache_hit();
            return Ok(Cow::Owned(records.as_ref().clone()));
        }
        // Miss: read outside the lock so concurrent readers of other cells
        // are not serialized behind the (simulated) disk latency.
        stats.record_cache_miss();
        let records = Arc::new(self.inner.read_cell(cell)?.into_owned());
        let pages = self.inner.cell_pages(cell);
        if pages <= self.capacity_pages {
            let mut evicted = Vec::new();
            let mut state = self.lock_state();
            state.admit(
                cell.index(),
                &records,
                pages,
                self.capacity_pages,
                &mut evicted,
            );
            drop(state);
            for _ in &evicted {
                stats.record_cache_eviction();
            }
        }
        Ok(Cow::Owned(Arc::unwrap_or_clone(records)))
    }

    fn cell_pages(&self, cell: CellId) -> u64 {
        self.inner.cell_pages(cell)
    }

    fn stats(&self) -> &StorageStats {
        self.inner.stats()
    }

    fn for_each_place(&self, f: &mut dyn FnMut(&PlaceRecord)) -> Result<(), StorageError> {
        self.inner.for_each_place(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memstore::CellLocalStore;
    use crate::place::PlaceId;
    use ctup_spatial::Point;

    fn store_with_grid(n: u32) -> Arc<dyn PlaceStore> {
        let grid = Grid::unit_square(n);
        let step = 1.0 / f64::from(n);
        let mut places = Vec::new();
        let mut id = 0;
        for gx in 0..n {
            for gy in 0..n {
                let x = (f64::from(gx) + 0.5) * step;
                let y = (f64::from(gy) + 0.5) * step;
                places.push(PlaceRecord::point(PlaceId(id), Point::new(x, y), 1));
                id += 1;
            }
        }
        Arc::new(CellLocalStore::build(grid, places))
    }

    fn cell(store: &dyn PlaceStore, x: u32, y: u32) -> CellId {
        store.grid().cell_at(x, y)
    }

    fn resident(cached: &CachedStore, c: CellId) -> bool {
        cached.lock_state().slots[c.index()].records.is_some()
    }

    /// A store whose cells weigh what the test says, in pages.
    struct Weighted {
        inner: Arc<dyn PlaceStore>,
        pages: Vec<u64>,
    }

    impl PlaceStore for Weighted {
        fn grid(&self) -> &Grid {
            self.inner.grid()
        }
        fn num_places(&self) -> usize {
            self.inner.num_places()
        }
        fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError> {
            self.inner.read_cell(cell)
        }
        fn cell_pages(&self, cell: CellId) -> u64 {
            self.pages[cell.index()]
        }
        fn stats(&self) -> &StorageStats {
            self.inner.stats()
        }
        fn for_each_place(&self, f: &mut dyn FnMut(&PlaceRecord)) -> Result<(), StorageError> {
            self.inner.for_each_place(f)
        }
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn repeat_reads_hit_and_skip_lower_level() {
        let inner = store_with_grid(2);
        let cached = CachedStore::new(inner, 4);
        let c = cell(&cached, 0, 0);
        let first = cached.read_cell(c).expect("read").into_owned();
        let again = cached.read_cell(c).expect("read").into_owned();
        assert_eq!(first, again);
        let snap = cached.stats().snapshot();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hits, 1);
        // Only the miss touched the lower level.
        assert_eq!(snap.cell_reads, 1);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let inner = store_with_grid(2);
        let cached = CachedStore::new(inner, 0);
        let c = cell(&cached, 1, 1);
        cached.read_cell(c).expect("read");
        cached.read_cell(c).expect("read");
        let snap = cached.stats().snapshot();
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_misses, 0);
        assert_eq!(snap.cell_reads, 2);
    }

    #[test]
    fn evicts_the_least_read_cell_first() {
        // Every cell weighs one page; room for two.
        let cached = CachedStore::new(store_with_grid(2), 2);
        let a = cell(&cached, 0, 0);
        let b = cell(&cached, 1, 0);
        let c = cell(&cached, 0, 1);
        for _ in 0..3 {
            cached.read_cell(a).expect("read"); // miss, then two hits: a read 3 times
        }
        cached.read_cell(b).expect("read"); // fits: resident a b
        cached.read_cell(c).expect("read"); // c read once, b once: refused
        assert!(!resident(&cached, c));
        cached.read_cell(c).expect("read"); // c read twice: evicts b, not the older a
        assert!(resident(&cached, a) && resident(&cached, c) && !resident(&cached, b));
        cached.read_cell(a).expect("read"); // still a hit
        let snap = cached.stats().snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (3, 4));
        assert_eq!(snap.cache_evictions, 1);
        assert_eq!(cached.resident_pages(), 2);

        // Equal counts: the least recently read goes, whatever its index.
        let cached = CachedStore::new(store_with_grid(2), 2);
        cached.read_cell(b).expect("read");
        cached.read_cell(a).expect("read"); // a and b read once each, b first
        cached.read_cell(c).expect("read"); // refused on the tie
        cached.read_cell(c).expect("read"); // evicts b
        assert!(resident(&cached, a) && resident(&cached, c) && !resident(&cached, b));
        assert_eq!(cached.stats().snapshot().cache_evictions, 1);
    }

    #[test]
    fn a_scan_of_cold_cells_leaves_the_hot_set_resident() {
        let inner = store_with_grid(10);
        let cached = CachedStore::new(inner.clone(), 4);
        let cells: Vec<CellId> = cached.grid().cells().collect();
        let (hot, cold) = cells.split_at(4);
        for _ in 0..3 {
            for &c in hot {
                cached.read_cell(c).expect("read");
            }
        }
        for &c in cold {
            let served = cached.read_cell(c).expect("read").into_owned();
            assert_eq!(served, inner.read_cell(c).expect("read").into_owned());
            assert!(
                !resident(&cached, c),
                "a cell read once displaced a hot one"
            );
        }
        for &c in hot {
            assert!(resident(&cached, c));
            cached.read_cell(c).expect("read");
        }
        let snap = cached.stats().snapshot();
        assert_eq!(snap.cache_evictions, 0);
        assert_eq!(snap.cache_hits, 4 * 2 + 4);
        assert_eq!(snap.cache_misses, 4 + 96);
    }

    #[test]
    fn a_new_hot_set_is_resident_within_two_aging_periods() {
        let cached = CachedStore::new(store_with_grid(10), 4);
        let period = AGING_PERIOD_PER_CELL * 100;
        let cells: Vec<CellId> = cached.grid().cells().collect();
        let (old, new) = (&cells[..4], &cells[10..14]);
        let read_round_robin = |set: &[CellId], reads: u64| {
            for &c in set.iter().cycle().take(reads as usize) {
                cached.read_cell(c).expect("read");
            }
        };
        read_round_robin(old, 3 * period);
        read_round_robin(new, 4);
        assert!(
            new.iter().all(|&c| !resident(&cached, c)),
            "the gate admitted a new cell on its first read"
        );
        read_round_robin(new, 2 * period - 4);
        assert!(new.iter().all(|&c| resident(&cached, c)));
        assert!(old.iter().all(|&c| !resident(&cached, c)));
    }

    #[test]
    fn resident_pages_never_exceed_the_capacity() {
        let pages: Vec<u64> = (0..16u64).map(|i| 1 + (i * 7) % 4).collect();
        for capacity in [1, 3, 5, 8] {
            let cached = CachedStore::new(
                Arc::new(Weighted {
                    inner: store_with_grid(4),
                    pages: pages.clone(),
                }),
                capacity,
            );
            let cells: Vec<CellId> = cached.grid().cells().collect();
            let mut next = xorshift(0x5eed ^ capacity);
            for _ in 0..2_000 {
                // Low cells are hotter: the minimum of two draws.
                let i = (next() % 16).min(next() % 16) as usize;
                cached.read_cell(cells[i]).expect("read");
                assert!(cached.resident_pages() <= capacity);
            }
            assert!(cached.stats().snapshot().cache_evictions > 0);
        }
    }

    /// The policy restated over plain vectors, for the model test below.
    struct Reference {
        capacity: u64,
        pages: Vec<u64>,
        resident: Vec<bool>,
        counts: Vec<u64>,
        ticks: Vec<u64>,
        tick: u64,
        period: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
        refusals: u64,
        oversized: u64,
    }

    impl Reference {
        fn new(capacity: u64, pages: Vec<u64>) -> Self {
            let n = pages.len();
            Reference {
                capacity,
                resident: vec![false; n],
                counts: vec![0; n],
                ticks: vec![0; n],
                tick: 0,
                period: AGING_PERIOD_PER_CELL * n as u64,
                hits: 0,
                misses: 0,
                evictions: 0,
                refusals: 0,
                oversized: 0,
                pages,
            }
        }

        fn read(&mut self, i: usize) {
            self.tick += 1;
            self.counts[i] += 1;
            self.ticks[i] = self.tick;
            if self.tick.is_multiple_of(self.period) {
                self.counts.iter_mut().for_each(|c| *c /= 2);
            }
            if self.resident[i] {
                self.hits += 1;
                return;
            }
            self.misses += 1;
            if self.pages[i] > self.capacity {
                self.oversized += 1;
                return;
            }
            let used: u64 = (0..self.pages.len())
                .filter(|&j| self.resident[j])
                .map(|j| self.pages[j])
                .sum();
            let mut order: Vec<usize> = (0..self.pages.len())
                .filter(|&j| self.resident[j])
                .collect();
            order.sort_by_key(|&j| (self.counts[j], self.ticks[j]));
            let mut victims = Vec::new();
            let mut room = self.capacity - used;
            for j in order {
                if room >= self.pages[i] {
                    break;
                }
                room += self.pages[j];
                victims.push(j);
            }
            if victims.iter().any(|&j| self.counts[j] >= self.counts[i]) {
                self.refusals += 1;
                return;
            }
            for j in victims {
                self.resident[j] = false;
                self.evictions += 1;
            }
            self.resident[i] = true;
        }
    }

    #[test]
    fn the_cache_matches_a_reference_of_its_policy_step_by_step() {
        // 16 cells of 1–3 pages, one of 9; eight pages of room.
        let mut pages: Vec<u64> = (0..16u64).map(|i| 1 + (i * 5) % 3).collect();
        pages[5] = 9;
        let inner = store_with_grid(4);
        let cached = CachedStore::new(
            Arc::new(Weighted {
                inner: inner.clone(),
                pages: pages.clone(),
            }),
            8,
        );
        let cells: Vec<CellId> = cached.grid().cells().collect();
        let mut reference = Reference::new(8, pages);
        let mut next = xorshift(0xcafe_f00d);
        for step in 0..6_000u64 {
            // A hot set of four cells that moves every 1 500 steps, over a
            // uniform background.
            let i = if next() % 10 < 7 {
                ((step / 1_500) * 4 + next() % 4) % 16
            } else {
                next() % 16
            } as usize;
            let served = cached.read_cell(cells[i]).expect("read").into_owned();
            assert_eq!(
                served,
                inner.read_cell(cells[i]).expect("read").into_owned()
            );
            reference.read(i);
            let state = cached.lock_state();
            for (j, slot) in state.slots.iter().enumerate() {
                assert_eq!(
                    (slot.records.is_some(), slot.count, slot.tick),
                    (
                        reference.resident[j],
                        reference.counts[j],
                        reference.ticks[j]
                    ),
                    "slot {j} at step {step}"
                );
            }
            let used: u64 = (0..16)
                .filter(|&j| reference.resident[j])
                .map(|j| reference.pages[j])
                .sum();
            assert_eq!(state.used_pages, used, "step {step}");
        }
        let snap = cached.stats().snapshot();
        assert_eq!(
            (snap.cache_hits, snap.cache_misses, snap.cache_evictions),
            (reference.hits, reference.misses, reference.evictions)
        );
        // The stream exercised every branch of the policy.
        assert!(reference.hits > 0 && reference.evictions > 0 && reference.refusals > 0);
        assert!(reference.oversized > 0);
    }

    #[test]
    fn oversized_cells_pass_through_uncached() {
        let fat = Weighted {
            inner: store_with_grid(2),
            pages: vec![10; 4],
        };
        let cached = CachedStore::new(Arc::new(fat), 5);
        let c = cached.grid().cell_at(0, 0);
        cached.read_cell(c).expect("read");
        cached.read_cell(c).expect("read");
        let snap = cached.stats().snapshot();
        // Both reads are misses: a 10-page cell never fits a 5-page budget.
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_evictions, 0);
        assert_eq!(cached.resident_pages(), 0);
    }
}
