//! A bounded LRU cache over any [`PlaceStore`].
//!
//! The CTUP schemes re-read hot cells — the access loop keeps returning to
//! the cells with the smallest lower bounds — and on the paged store each
//! such read pays the full simulated-disk latency again. [`CachedStore`]
//! keeps recently read cells resident, bounded by a page budget (weights
//! come from [`PlaceStore::cell_pages`]), and serves repeats without
//! touching the lower level. Hits, misses and evictions are counted in the
//! wrapped store's [`StorageStats`]; hits do **not** count as
//! `cell_reads`/`pages_read`/`io_nanos`, so a cached run visibly reads
//! fewer bytes from the (simulated) disk.
//!
//! [`CachedStore::prefetch`] accepts a batch-scoped working-set hint: it
//! refreshes the recency of resident hinted cells (so the batch's own
//! admissions cannot evict them first) and re-reads missing hinted cells
//! into *spare* budget only when they appear on a bounded **ghost list**
//! of recently evicted entries — proven-hot cells whose re-warm replaces
//! a near-certain demand miss, rather than speculative reads of every
//! touched cell.
//!
//! The cache is coherent by construction for the repo's read-only lower
//! level; for stores whose records can change, [`CachedStore::invalidate_cell`]
//! drops the stale copy (write-invalidation) and
//! [`CachedStore::invalidate_all`] empties the cache (e.g. after restoring
//! a checkpoint over rewritten pages).

use crate::error::StorageError;
use crate::place::PlaceRecord;
use crate::stats::StorageStats;
use crate::store::PlaceStore;
use ctup_spatial::{CellId, Grid};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// How many hint passes an eviction stays re-warmable for. A victim of
/// the current or previous batch was resident-hot moments ago, so a hint
/// naming it again predicts a near-certain demand miss; anything older is
/// cold and re-reading it would be speculative disk traffic.
const GHOST_WINDOW: u64 = 1;

/// One resident cell: its decoded records, page weight, and the recency
/// tick under which it is indexed.
struct Entry {
    records: Vec<PlaceRecord>,
    pages: u64,
    tick: u64,
    /// Set when a hint pass touched this entry — re-warmed it from disk
    /// or refreshed it while resident — and no demand read has arrived
    /// since; the next demand hit counts as a prefetch hit and clears
    /// the flag.
    prefetched: bool,
}

/// Mutable cache state behind one mutex: the resident entries keyed by
/// cell index, a recency index (oldest tick first, popped for eviction),
/// and the running page total.
#[derive(Default)]
struct State {
    entries: HashMap<usize, Entry>,
    recency: BTreeMap<u64, usize>,
    used_pages: u64,
    next_tick: u64,
    /// Membership of the ghost list — cells recently pushed out by
    /// capacity pressure, keyed to the hint generation of their latest
    /// eviction. A prefetch only re-admits ghost-listed cells evicted
    /// within [`GHOST_WINDOW`] hint passes: they were resident-hot a
    /// batch ago, so the re-warm replaces a near-certain demand miss
    /// instead of adding speculative disk traffic.
    ghost: HashMap<usize, u64>,
    /// Eviction order of the ghost list (oldest first, generations are
    /// nondecreasing), trimmed as generations expire; entries whose
    /// generation no longer matches `ghost` are stale re-ghosts and are
    /// discarded when popped.
    ghost_queue: VecDeque<(u64, usize)>,
    /// Bumped at the start of every hint pass ([`CachedStore::prefetch`]);
    /// evictions are stamped with it so the ghost window is measured in
    /// batches, not wall time.
    hint_gen: u64,
    /// Bumped by every invalidation. The miss path reads the lower level
    /// *outside* the lock (so concurrent misses are not serialized behind
    /// the simulated disk); it captures this generation first and refuses
    /// to insert if an invalidation ran in between — otherwise a write
    /// racing the miss would leave the pre-write records resident, and a
    /// later read would see stale data after the write was acknowledged.
    invalidation_gen: u64,
}

impl State {
    /// Refreshes the recency of a resident entry and returns its records
    /// plus whether this is the first demand read of a prefetched entry.
    fn touch(&mut self, cell_idx: usize) -> Option<(Vec<PlaceRecord>, bool)> {
        let tick = self.next_tick;
        self.next_tick += 1;
        let entry = self.entries.get_mut(&cell_idx)?;
        self.recency.remove(&entry.tick);
        entry.tick = tick;
        self.recency.insert(tick, cell_idx);
        let first_after_prefetch = entry.prefetched;
        entry.prefetched = false;
        Some((entry.records.clone(), first_after_prefetch))
    }

    fn remove(&mut self, cell_idx: usize) {
        if let Some(entry) = self.entries.remove(&cell_idx) {
            self.recency.remove(&entry.tick);
            self.used_pages = self.used_pages.saturating_sub(entry.pages);
        }
    }

    /// Re-ticks the recency of a resident entry without serving its
    /// records and marks it hinted; returns whether the cell was
    /// resident. The prefetch hint path uses this to shield cells the
    /// next batch will read from mid-batch eviction.
    fn refresh(&mut self, cell_idx: usize) -> bool {
        let tick = self.next_tick;
        self.next_tick += 1;
        let Some(entry) = self.entries.get_mut(&cell_idx) else {
            return false;
        };
        self.recency.remove(&entry.tick);
        entry.tick = tick;
        self.recency.insert(tick, cell_idx);
        entry.prefetched = true;
        true
    }

    /// True when `cell_idx` was evicted recently enough for a hint to
    /// re-warm it.
    fn ghost_eligible(&self, cell_idx: usize) -> bool {
        self.ghost
            .get(&cell_idx)
            .is_some_and(|&gen| gen + GHOST_WINDOW >= self.hint_gen)
    }

    /// Remembers a capacity eviction on the ghost list under the current
    /// hint generation, and drops entries whose window expired.
    fn note_evicted(&mut self, cell_idx: usize) {
        let gen = self.hint_gen;
        self.ghost.insert(cell_idx, gen);
        self.ghost_queue.push_back((gen, cell_idx));
        while let Some(&(g, idx)) = self.ghost_queue.front() {
            if g + GHOST_WINDOW >= gen {
                break;
            }
            self.ghost_queue.pop_front();
            if self.ghost.get(&idx) == Some(&g) {
                self.ghost.remove(&idx);
            }
        }
    }

    /// Evicts least-recently-used entries until `used_pages <= capacity`.
    /// Victims are remembered on the ghost list. Returns how many entries
    /// were evicted.
    fn evict_to(&mut self, capacity: u64) -> u64 {
        let mut evicted = 0;
        while self.used_pages > capacity {
            let Some((&tick, &cell_idx)) = self.recency.iter().next() else {
                break;
            };
            self.recency.remove(&tick);
            if let Some(entry) = self.entries.remove(&cell_idx) {
                self.used_pages = self.used_pages.saturating_sub(entry.pages);
            }
            self.note_evicted(cell_idx);
            evicted += 1;
        }
        evicted
    }
}

/// A bounded LRU cell-read cache wrapping another [`PlaceStore`].
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
        CachedStore {
            inner,
            capacity_pages,
            state: Mutex::new(State::default()),
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

    /// Drops the cached copy of `cell`, if any — the write-invalidation
    /// hook: call after the lower-level records of `cell` change.
    pub fn invalidate_cell(&self, cell: CellId) {
        let mut state = self.lock_state();
        state.invalidation_gen += 1;
        state.remove(cell.index());
    }

    /// Empties the cache (e.g. after a bulk rewrite of the lower level).
    pub fn invalidate_all(&self) {
        let mut state = self.lock_state();
        state.invalidation_gen += 1;
        state.entries.clear();
        state.recency.clear();
        state.used_pages = 0;
    }

    /// A batch-scoped working-set hint: the caller names the cells the
    /// next batch of demand reads may touch. Resident hinted cells get
    /// their LRU recency refreshed — zero I/O — so mid-batch admissions
    /// do not evict a cell the batch is about to read. Hinted cells that
    /// are *missing* are re-read and admitted only when they sit on the
    /// ghost list of entries evicted within the last [`GHOST_WINDOW`]
    /// hint passes: cells that were resident-hot a batch ago, where the
    /// re-warm replaces a near-certain demand miss. Every other missing
    /// hint is **not** read — the engine demand-reads only the touched
    /// cells whose lower bounds actually fall to the top-k threshold, so
    /// speculatively reading every hint would inflate disk traffic well
    /// past the demand stream it is meant to hide.
    ///
    /// Re-warm reads happen from the lower level *outside* the lock and
    /// are admitted under a **single** lock acquisition, so a batch
    /// warm-up does not serialize demand readers behind the simulated
    /// disk. Best effort: read errors skip the cell (the demand read will
    /// surface them), and a racing invalidation drops the whole
    /// admission, exactly like the demand-miss path.
    ///
    /// The first demand hit on each hinted entry (re-warmed or refreshed)
    /// is counted in `cache_prefetch_hits` — how much of the hit stream
    /// the hint pass covered. Re-warm reads themselves are *not* counted
    /// as cache misses (they are not demand reads), so the hit ratio
    /// keeps measuring what the engine actually asked for.
    ///
    /// A hint is weaker evidence than a demand read, so re-warms only
    /// fill **spare** budget (freed by invalidation, or never used) and
    /// never evict a demanded resident — otherwise each re-warm would
    /// mint the next batch's ghosts and the hint pass would pump the
    /// cache in circles.
    pub fn prefetch(&self, cells: &[CellId]) {
        if self.capacity_pages == 0 || cells.is_empty() {
            return;
        }
        let (mut missing, spare, gen_at_scan) = {
            let mut state = self.lock_state();
            state.hint_gen += 1;
            let mut missing: Vec<CellId> = Vec::new();
            for &c in cells {
                if !state.refresh(c.index()) && state.ghost_eligible(c.index()) {
                    missing.push(c);
                }
            }
            let spare = self.capacity_pages.saturating_sub(state.used_pages);
            (missing, spare, state.invalidation_gen)
        };
        if spare == 0 {
            return;
        }
        missing.sort_unstable();
        missing.dedup();
        let mut budget = spare;
        let mut loaded: Vec<(CellId, Vec<PlaceRecord>, u64)> = Vec::with_capacity(missing.len());
        for cell in missing {
            let pages = self.inner.cell_pages(cell);
            if pages > budget {
                continue;
            }
            if let Ok(records) = self.inner.read_cell(cell) {
                budget -= pages;
                loaded.push((cell, records.into_owned(), pages));
            }
        }
        if loaded.is_empty() {
            return;
        }
        let mut state = self.lock_state();
        if state.invalidation_gen != gen_at_scan {
            // A write raced the unlocked reads: the records may predate
            // it, so admit nothing rather than resurrect stale data.
            return;
        }
        for (cell, records, pages) in loaded {
            if state.entries.contains_key(&cell.index()) {
                continue; // a demand read admitted it first
            }
            if state.used_pages + pages > self.capacity_pages {
                continue; // a concurrent demand miss claimed the spare room
            }
            state.ghost.remove(&cell.index());
            let tick = state.next_tick;
            state.next_tick += 1;
            state.recency.insert(tick, cell.index());
            state.entries.insert(
                cell.index(),
                Entry {
                    records,
                    pages,
                    tick,
                    prefetched: true,
                },
            );
            state.used_pages += pages;
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        // A poisoned cache mutex only means another thread panicked between
        // pure map operations; the state is still structurally sound, so
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

    fn prefetch(&self, cells: &[CellId]) {
        CachedStore::prefetch(self, cells);
    }

    fn wants_prefetch(&self) -> bool {
        self.capacity_pages > 0
    }

    fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError> {
        if self.capacity_pages == 0 {
            return self.inner.read_cell(cell);
        }
        let stats = self.inner.stats();
        let gen_at_miss;
        {
            let mut state = self.lock_state();
            if let Some((records, first_after_prefetch)) = state.touch(cell.index()) {
                stats.record_cache_hit();
                if first_after_prefetch {
                    stats.record_cache_prefetch_hit();
                }
                return Ok(Cow::Owned(records));
            }
            gen_at_miss = state.invalidation_gen;
        }
        // Miss: read outside the lock so concurrent readers of other cells
        // are not serialized behind the (simulated) disk latency.
        stats.record_cache_miss();
        let records = self.inner.read_cell(cell)?.into_owned();
        let pages = self.inner.cell_pages(cell);
        if pages <= self.capacity_pages {
            let mut state = self.lock_state();
            if state.invalidation_gen != gen_at_miss {
                // An invalidation raced this unlocked read: the records may
                // predate the write that triggered it, so serve them to this
                // caller (it started before the write) but do not cache them.
                return Ok(Cow::Owned(records));
            }
            state.remove(cell.index());
            state.ghost.remove(&cell.index());
            let tick = state.next_tick;
            state.next_tick += 1;
            state.recency.insert(tick, cell.index());
            state.entries.insert(
                cell.index(),
                Entry {
                    records: records.clone(),
                    pages,
                    tick,
                    prefetched: false,
                },
            );
            state.used_pages += pages;
            let evicted = state.evict_to(self.capacity_pages);
            drop(state);
            for _ in 0..evicted {
                stats.record_cache_eviction();
            }
        }
        Ok(Cow::Owned(records))
    }

    fn cell_extent_margin(&self, cell: CellId) -> f64 {
        self.inner.cell_extent_margin(cell)
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
    fn lru_evicts_least_recently_used() {
        let inner = store_with_grid(2);
        // Every cell weighs one page; room for two.
        let cached = CachedStore::new(inner, 2);
        let a = cell(&cached, 0, 0);
        let b = cell(&cached, 1, 0);
        let c = cell(&cached, 0, 1);
        cached.read_cell(a).expect("read"); // resident: a
        cached.read_cell(b).expect("read"); // resident: a b
        cached.read_cell(a).expect("read"); // hit, a now most recent
        cached.read_cell(c).expect("read"); // evicts b (LRU); resident: a c
        cached.read_cell(a).expect("read"); // still a hit
        cached.read_cell(b).expect("read"); // miss again; evicts c (LRU)
        let snap = cached.stats().snapshot();
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 4);
        assert_eq!(snap.cache_evictions, 2);
        assert_eq!(cached.resident_pages(), 2);
    }

    #[test]
    fn invalidation_forces_reread() {
        let inner = store_with_grid(2);
        let cached = CachedStore::new(inner, 4);
        let a = cell(&cached, 0, 0);
        let b = cell(&cached, 1, 0);
        cached.read_cell(a).expect("read");
        cached.read_cell(b).expect("read");
        cached.invalidate_cell(a);
        assert_eq!(cached.resident_pages(), 1);
        cached.read_cell(a).expect("read"); // miss after invalidation
        cached.read_cell(b).expect("read"); // untouched entry still hits
        cached.invalidate_all();
        assert_eq!(cached.resident_pages(), 0);
        cached.read_cell(b).expect("read"); // miss after full flush
        let snap = cached.stats().snapshot();
        assert_eq!(snap.cache_misses, 4);
        assert_eq!(snap.cache_hits, 1);
    }

    #[test]
    fn invalidation_racing_a_miss_is_not_overwritten_by_the_stale_read() {
        use std::sync::Weak;
        // An inner store that fires a hook in the middle of `read_cell` —
        // exactly the window where the cache has released its lock — and
        // uses it to run write-invalidation against the wrapping cache.
        struct HookStore {
            inner: Arc<dyn PlaceStore>,
            target: Mutex<Option<Weak<CachedStore>>>,
        }
        impl PlaceStore for HookStore {
            fn grid(&self) -> &Grid {
                self.inner.grid()
            }
            fn num_places(&self) -> usize {
                self.inner.num_places()
            }
            fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError> {
                let target = self.target.lock().expect("hook lock");
                if let Some(cached) = target.as_ref().and_then(Weak::upgrade) {
                    // The lower level changed while this read was in flight.
                    cached.invalidate_cell(cell);
                }
                self.inner.read_cell(cell)
            }
            fn cell_extent_margin(&self, cell: CellId) -> f64 {
                self.inner.cell_extent_margin(cell)
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

        let hook = Arc::new(HookStore {
            inner: store_with_grid(2),
            target: Mutex::new(None),
        });
        let cached = Arc::new(CachedStore::new(hook.clone(), 4));
        *hook.target.lock().expect("hook lock") = Some(Arc::downgrade(&cached));

        let c = cell(cached.as_ref(), 0, 0);
        cached.read_cell(c).expect("read");
        // The records read before the invalidation must not be resident:
        // caching them would serve pre-write data after the write.
        assert_eq!(cached.resident_pages(), 0);
        cached.read_cell(c).expect("read");
        let snap = cached.stats().snapshot();
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.cache_hits, 0);
    }

    #[test]
    fn prefetch_rewarms_recent_evictions_and_counts_first_demand_hits() {
        let inner = store_with_grid(2);
        // Every cell weighs one page; room for two.
        let cached = CachedStore::new(inner, 2);
        let a = cell(&cached, 0, 0);
        let b = cell(&cached, 1, 0);
        let c = cell(&cached, 0, 1);
        let d = cell(&cached, 1, 1);
        assert!(cached.wants_prefetch());
        cached.read_cell(a).expect("read"); // resident: a
        cached.read_cell(b).expect("read"); // resident: a b
        cached.read_cell(c).expect("read"); // evicts a; a -> ghost
        cached.invalidate_cell(b); // frees one page of spare budget
        cached.prefetch(&[a, c, a]); // c refreshed; a re-warmed (duplicates coalesce)
        let snap = cached.stats().snapshot();
        // One re-warm read of `a`; not counted as a demand miss.
        assert_eq!(snap.cell_reads, 4);
        assert_eq!(snap.cache_misses, 3);
        assert_eq!(snap.cache_hits, 0);

        cached.read_cell(a).expect("read");
        cached.read_cell(a).expect("read");
        cached.read_cell(c).expect("read");
        let snap = cached.stats().snapshot();
        assert_eq!(snap.cell_reads, 4, "demand reads served from cache");
        assert_eq!(snap.cache_hits, 3);
        assert_eq!(snap.cache_misses, 3);
        // One prefetch hit per hinted entry (the re-warmed `a` and the
        // refreshed `c`), not one per demand hit.
        assert_eq!(snap.cache_prefetch_hits, 2);

        // A cold hinted cell — never resident, never evicted — is not read.
        cached.prefetch(&[d]);
        assert_eq!(cached.stats().snapshot().cell_reads, 4);
    }

    #[test]
    fn prefetch_does_not_read_cold_cells() {
        let inner = store_with_grid(2);
        let cached = CachedStore::new(inner, 4);
        cached.prefetch(&[cell(&cached, 0, 0), cell(&cached, 1, 0)]);
        let snap = cached.stats().snapshot();
        assert_eq!(snap.cell_reads, 0);
        assert_eq!(cached.resident_pages(), 0);
    }

    #[test]
    fn prefetch_hint_protects_imminent_reads_from_eviction() {
        let inner = store_with_grid(2);
        let cached = CachedStore::new(inner, 2);
        let a = cell(&cached, 0, 0);
        let b = cell(&cached, 1, 0);
        let c = cell(&cached, 0, 1);
        cached.read_cell(a).expect("read"); // resident: a b — a is the
        cached.read_cell(b).expect("read"); // nominal LRU victim
        cached.prefetch(&[a]); // hint: the batch will read a
        cached.read_cell(c).expect("read"); // evicts b, not the hinted a
        cached.read_cell(a).expect("read"); // still a hit
        let snap = cached.stats().snapshot();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 3);
        // The hit landed on a hinted (refreshed) entry: the hint pass
        // covered it, so it counts as a prefetch hit.
        assert_eq!(snap.cache_prefetch_hits, 1);
    }

    #[test]
    fn prefetch_with_zero_capacity_is_a_noop() {
        let inner = store_with_grid(2);
        let cached = CachedStore::new(inner, 0);
        assert!(!cached.wants_prefetch());
        cached.prefetch(&[cell(&cached, 0, 0)]);
        let snap = cached.stats().snapshot();
        assert_eq!(snap.cell_reads, 0);
        assert_eq!(cached.resident_pages(), 0);
    }

    #[test]
    fn prefetch_respects_the_page_budget() {
        let inner = store_with_grid(2);
        let cached = CachedStore::new(inner, 2);
        let cells: Vec<CellId> = (0..2)
            .flat_map(|x| (0..2).map(move |y| (x, y)))
            .map(|(x, y)| cell(&cached, x, y))
            .collect();
        // Walk all four cells through the two-page cache: the first two
        // land on the ghost list.
        for &c in &cells {
            cached.read_cell(c).expect("read");
        }
        assert_eq!(cached.stats().snapshot().cache_evictions, 2);
        // Both ghosts are hinted, but there is no spare budget: a hint
        // must not displace the demanded residents, so nothing is read.
        cached.prefetch(&cells);
        assert_eq!(cached.resident_pages(), 2);
        let snap = cached.stats().snapshot();
        assert_eq!(snap.cell_reads, 4, "no re-warm reads without spare room");
        assert_eq!(snap.cache_evictions, 2);
    }

    #[test]
    fn prefetch_racing_an_invalidation_admits_nothing() {
        use std::sync::Weak;
        struct HookStore {
            inner: Arc<dyn PlaceStore>,
            target: Mutex<Option<Weak<CachedStore>>>,
        }
        impl PlaceStore for HookStore {
            fn grid(&self) -> &Grid {
                self.inner.grid()
            }
            fn num_places(&self) -> usize {
                self.inner.num_places()
            }
            fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError> {
                let target = self.target.lock().expect("hook lock");
                if let Some(cached) = target.as_ref().and_then(Weak::upgrade) {
                    cached.invalidate_cell(cell);
                }
                self.inner.read_cell(cell)
            }
            fn cell_extent_margin(&self, cell: CellId) -> f64 {
                self.inner.cell_extent_margin(cell)
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

        let hook = Arc::new(HookStore {
            inner: store_with_grid(2),
            target: Mutex::new(None),
        });
        // One page of budget: reading a then b evicts a onto the ghost
        // list, then invalidating b frees spare room, making a eligible
        // for a prefetch re-warm. The hook stays disarmed until then.
        let cached = Arc::new(CachedStore::new(hook.clone(), 1));
        let a = cell(cached.as_ref(), 0, 0);
        let b = cell(cached.as_ref(), 1, 0);
        cached.read_cell(a).expect("read");
        cached.read_cell(b).expect("read");
        cached.invalidate_cell(b);
        assert_eq!(cached.resident_pages(), 0);
        *hook.target.lock().expect("hook lock") = Some(Arc::downgrade(&cached));
        cached.prefetch(&[a]);
        // The invalidation fired mid-prefetch: nothing may be admitted.
        assert_eq!(cached.resident_pages(), 0);
        assert_eq!(cached.stats().snapshot().cache_prefetch_hits, 0);
        // And the ghost read really happened, so the race window was real.
        assert_eq!(cached.stats().snapshot().cell_reads, 3);
    }

    #[test]
    fn oversized_cells_pass_through_uncached() {
        struct Fat(Arc<dyn PlaceStore>);
        impl PlaceStore for Fat {
            fn grid(&self) -> &Grid {
                self.0.grid()
            }
            fn num_places(&self) -> usize {
                self.0.num_places()
            }
            fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError> {
                self.0.read_cell(cell)
            }
            fn cell_extent_margin(&self, cell: CellId) -> f64 {
                self.0.cell_extent_margin(cell)
            }
            fn cell_pages(&self, _cell: CellId) -> u64 {
                10
            }
            fn stats(&self) -> &StorageStats {
                self.0.stats()
            }
            fn for_each_place(&self, f: &mut dyn FnMut(&PlaceRecord)) -> Result<(), StorageError> {
                self.0.for_each_place(f)
            }
        }
        let cached = CachedStore::new(Arc::new(Fat(store_with_grid(2))), 5);
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
