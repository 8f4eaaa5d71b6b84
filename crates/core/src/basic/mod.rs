//! BasicCTUP — the paper's basic grid scheme (§III).
//!
//! Cells are *dark* (a lower bound on the safeties of their places is
//! maintained; the places themselves stay at the lower level) or
//! *illuminated* (all their places and exact safeties are in memory). The
//! scheme keeps every cell containing a top-k unsafe place illuminated, so
//! the result is available at all times.

pub mod lb;

use crate::algorithm::{CtupAlgorithm, InitStats, UpdateStats};
use crate::cells::touched_cells;
use crate::config::CtupConfig;
use crate::lbdir::LbDirectory;
use crate::maintained::MaintainedSet;
use crate::metrics::Metrics;
use crate::types::{LocationUpdate, Safety, TopKEntry, UnitId, LB_NONE};
use crate::units::UnitTable;
use ctup_obs::PhaseTimer;
use ctup_spatial::{convert, CellId, Circle, Grid, Point, Relation};
use ctup_storage::{PlaceStore, StorageError};
use lb::basic_lb_delta;
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// The BasicCTUP query processor.
pub struct BasicCtup {
    config: CtupConfig,
    store: Arc<dyn PlaceStore>,
    grid: Grid,
    units: UnitTable,
    /// Lower bounds of dark cells; illuminated cells are detached.
    lb: LbDirectory,
    /// Places of all illuminated cells with exact safeties.
    maintained: MaintainedSet,
    /// The illuminated cells, so that step 4 visits only them.
    lit: Vec<CellId>,
    last_result: Vec<TopKEntry>,
    metrics: Metrics,
    init_stats: InitStats,
    /// Scratch reused by every cell read: the cell's safeties in record
    /// order.
    safeties: Vec<Safety>,
}

impl std::fmt::Debug for BasicCtup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BasicCtup")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl BasicCtup {
    /// Builds the scheme over `store` and runs the paper's initialization:
    /// compute every cell's exact lower bound, then illuminate cells in
    /// increasing lower-bound order until `SK` is at most every dark lower
    /// bound. Fails if a cell read hits a storage fault.
    pub fn new(
        config: CtupConfig,
        store: Arc<dyn PlaceStore>,
        initial_units: &[Point],
    ) -> Result<Self, StorageError> {
        config.validate();
        let start = Instant::now();
        let io_before = store.stats().snapshot();
        let grid = store.grid().clone();
        let units = UnitTable::new(grid.clone(), initial_units, config.protection_radius);

        let mut this = BasicCtup {
            lb: LbDirectory::new(grid.num_cells()),
            maintained: MaintainedSet::new(),
            lit: Vec::new(),
            last_result: Vec::new(),
            metrics: Metrics::default(),
            init_stats: InitStats::default(),
            safeties: Vec::new(),
            config,
            store,
            grid,
            units,
        };

        // Step 1: exact lower bound per cell; places are discarded again.
        let mut safeties_computed = 0u64;
        for cell in this.grid.cells() {
            let records = this.store.read_cell(cell)?;
            this.units.cell_safeties(&records, &mut this.safeties);
            let min = this.safeties.iter().copied().min().unwrap_or(LB_NONE);
            safeties_computed += convert::count64(records.len());
            this.lb.set(cell, min);
        }

        // Step 2+3: illuminate in increasing lower-bound order until
        // SK <= every dark lower bound.
        this.illumination_loop()?;

        // Init costs are reported separately from steady-state metrics.
        this.metrics = Metrics::default();
        this.metrics
            .set_maintained(convert::count64(this.maintained.len()));
        this.last_result = this.maintained.result(this.config.k());
        this.init_stats = InitStats {
            wall: start.elapsed(),
            storage: this.store.stats().snapshot().since(&io_before),
            safeties_computed,
        };
        Ok(this)
    }

    /// Loads every place of a dark cell into memory with exact safeties.
    /// Borrowed reads (memory-resident stores) are consumed in place — one
    /// clone per record into the maintained set, never a whole-cell copy.
    fn illuminate(&mut self, cell: CellId) -> Result<(), StorageError> {
        let records = self.store.read_cell(cell)?;
        self.metrics.cells_accessed += 1;
        self.metrics.places_loaded += convert::count64(records.len());
        self.units.cell_safeties(&records, &mut self.safeties);
        let safeties = self.safeties.iter().copied();
        match records {
            Cow::Borrowed(slice) => {
                for (record, safety) in slice.iter().zip(safeties) {
                    self.maintained.insert(record.clone(), safety, cell);
                }
            }
            Cow::Owned(vec) => {
                for (record, safety) in vec.into_iter().zip(safeties) {
                    self.maintained.insert(record, safety, cell);
                }
            }
        }
        self.lb.detach(cell);
        self.lit.push(cell);
        Ok(())
    }

    /// Illuminates dark cells, cheapest lower bound first, until none is
    /// below the current `SK`. Returns the number of cells illuminated.
    fn illumination_loop(&mut self) -> Result<u64, StorageError> {
        let mut count = 0;
        loop {
            let sk = self.maintained.sk_eff(self.config.k());
            match self.lb.first() {
                Some((lb0, cell)) if lb0 < sk => {
                    self.illuminate(cell)?;
                    count += 1;
                }
                _ => break,
            }
        }
        Ok(count)
    }

    /// Discards an illuminated cell's places from memory, re-attaching it
    /// dark with its exact minimum safety as the lower bound. The caller
    /// takes the cell off `lit`.
    fn darken(&mut self, cell: CellId) {
        let entries = self.maintained.remove_cell(cell);
        debug_assert!(!entries.is_empty(), "illuminated cells are never empty");
        let min = entries.iter().map(|e| e.safety).min().unwrap_or(LB_NONE);
        self.lb.attach(cell, min);
        self.metrics.cells_darkened += 1;
    }

    /// Read-only view of a dark cell's lower bound (testing/diagnostics);
    /// `None` when the cell is illuminated.
    pub fn cell_lower_bound(&self, cell: CellId) -> Option<Safety> {
        self.lb.is_attached(cell).then(|| self.lb.get(cell))
    }

    /// Whether `cell` is currently illuminated.
    pub fn is_illuminated(&self, cell: CellId) -> bool {
        !self.lb.is_attached(cell)
    }

    /// Number of places currently held in memory.
    pub fn maintained_places(&self) -> usize {
        self.maintained.len()
    }

    /// Asserts the scheme's soundness invariant: for every dark cell, the
    /// lower bound is at most the true minimum safety of the places in it.
    /// Also asserts that `lit` lists exactly the illuminated cells. Reads
    /// the lower level without counting. Test/diagnostic use.
    pub fn check_lb_invariant(&self) {
        let mut lit = self.lit.clone();
        lit.sort_unstable();
        let illuminated: Vec<CellId> = self
            .grid
            .cells()
            .filter(|&cell| self.is_illuminated(cell))
            .collect();
        assert_eq!(lit, illuminated, "lit disagrees with the detached cells");
        for cell in self.grid.cells() {
            if !self.lb.is_attached(cell) {
                continue;
            }
            let lb = self.lb.get(cell);
            #[expect(
                clippy::panic,
                reason = "the invariant checker is an assertion harness — an unreadable cell must fail the calling test"
            )]
            let records = self
                .store
                .read_cell(cell)
                .unwrap_or_else(|e| panic!("invariant check could not read {cell:?}: {e}"));
            for record in records.iter() {
                let truth = self.units.safety(record);
                assert!(
                    lb <= truth,
                    "dark cell {cell:?}: lb {lb} exceeds true safety {truth} of {:?}",
                    record.id
                );
            }
        }
    }
}

impl CtupAlgorithm for BasicCtup {
    fn name(&self) -> &'static str {
        "basic"
    }

    fn config(&self) -> &CtupConfig {
        &self.config
    }

    fn handle_update(&mut self, update: LocationUpdate) -> Result<UpdateStats, StorageError> {
        let radius = self.config.protection_radius;
        let mut timer = PhaseTimer::start();
        let old = self.units.apply(update);
        let old_region = Circle::new(old, radius);
        let new_region = Circle::new(update.new, radius);

        let touched = touched_cells(&self.grid, &old_region, &new_region);

        // Step 1: exact safeties of maintained (illuminated) places.
        self.maintained
            .apply_unit_move(old, update.new, radius, &touched);

        // Step 2: Table I lower-bound maintenance on affected dark cells.
        for cell in touched {
            if !self.lb.is_attached(cell) {
                continue; // illuminated: exact safeties already updated
            }
            let rect = self.grid.cell_rect(cell);
            let rel_old = Relation::classify(&old_region, &rect);
            let rel_new = Relation::classify(&new_region, &rect);
            let delta = basic_lb_delta(rel_old, rel_new);
            if delta != 0 {
                self.lb.add(cell, delta);
                if delta > 0 {
                    self.metrics.lb_increments += 1;
                } else {
                    self.metrics.lb_decrements += 1;
                }
            }
        }
        let maintain_nanos = timer.lap();

        // Step 3: illuminate every dark cell whose bound fell below SK.
        let cells_accessed = self.illumination_loop()?;

        // Step 4: darken illuminated cells that hold no result place.
        let result = self.maintained.result(self.config.k());
        // Every result place is maintained by construction; filter_map keeps
        // the keep-set sound (a dropped cell only darkens conservatively)
        // instead of panicking mid-update if that invariant ever broke.
        let keep: HashSet<CellId> = result
            .iter()
            .filter_map(|e| self.maintained.get(e.place).map(|m| m.cell))
            .collect();
        let (kept, dark): (Vec<CellId>, Vec<CellId>) =
            self.lit.drain(..).partition(|cell| keep.contains(cell));
        self.lit = kept;
        for cell in dark {
            self.darken(cell);
        }
        let access_nanos = timer.lap();

        let changed = result != self.last_result;
        self.last_result = result;

        self.metrics.updates_processed += 1;
        self.metrics.maintain_nanos += maintain_nanos;
        self.metrics.access_nanos += access_nanos;
        self.metrics
            .set_maintained(convert::count64(self.maintained.len()));
        if changed {
            self.metrics.result_changes += 1;
        }
        Ok(UpdateStats {
            maintain_nanos,
            access_nanos,
            cells_accessed,
            result_changed: changed,
        })
    }

    fn result(&self) -> Vec<TopKEntry> {
        self.last_result.clone()
    }

    fn sk(&self) -> Option<Safety> {
        self.maintained.ordered().kth_safety(self.config.k())
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn init_stats(&self) -> &InitStats {
        &self.init_stats
    }

    fn unit_position(&self, unit: UnitId) -> Point {
        self.units.position(unit)
    }

    fn num_units(&self) -> usize {
        self.units.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::types::{Place, PlaceId};
    use ctup_storage::CellLocalStore;

    fn grid_place_set() -> Vec<Place> {
        // 8x8 places, one per cell of an 8x8 grid, varied requirements.
        let mut places = Vec::new();
        for i in 0..8u32 {
            for j in 0..8u32 {
                let id = i * 8 + j;
                places.push(Place::point(
                    PlaceId(id),
                    Point::new(i as f64 / 8.0 + 0.06, j as f64 / 8.0 + 0.06),
                    1 + (id % 5),
                ));
            }
        }
        places
    }

    fn setup(k: usize) -> (BasicCtup, Oracle, Vec<Point>) {
        let places = grid_place_set();
        let oracle = Oracle::new(places.clone());
        let store: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(8), places));
        let units: Vec<Point> = (0..10)
            .map(|i| Point::new(0.05 + 0.09 * i as f64, 0.95 - 0.085 * i as f64))
            .collect();
        let alg = BasicCtup::new(CtupConfig::with_k(k), store, &units).expect("init");
        (alg, oracle, units)
    }

    #[test]
    fn initialization_matches_oracle() {
        let (alg, oracle, units) = setup(5);
        oracle.assert_result_matches(&alg.result(), &units, 0.1, 5);
        alg.check_lb_invariant();
        // Result cells are illuminated.
        assert!(alg.maintained_places() >= 5);
    }

    #[test]
    fn tracks_oracle_through_many_updates() {
        let (mut alg, oracle, mut units) = setup(5);
        // Deterministic pseudo-random walk.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for step in 0..300 {
            let unit = (next() * 10.0) as usize % 10;
            let new = Point::new(next(), next());
            alg.handle_update(LocationUpdate {
                unit: UnitId(unit as u32),
                new,
            })
            .expect("update");
            units[unit] = new;
            oracle.assert_result_matches(&alg.result(), &units, 0.1, 5);
            if step % 50 == 0 {
                alg.check_lb_invariant();
            }
        }
        alg.check_lb_invariant();
        assert_eq!(alg.metrics().updates_processed, 300);
    }

    #[test]
    fn jiggling_unit_exhibits_drawback_one() {
        // The paper's drawback one/three: a unit that keeps reporting tiny
        // moves while partially intersecting dark cells decrements their
        // lower bounds on every update (Table I P->N/P is unconditional),
        // eventually forcing illuminations even though nothing changed.
        let (mut alg, _, units) = setup(5);
        let base = units[0];
        let mut total_accesses = 0;
        let mut decrements = 0;
        for i in 0..20 {
            let stats = alg
                .handle_update(LocationUpdate {
                    unit: UnitId(0),
                    new: Point::new(base.x + 1e-6 * i as f64, base.y),
                })
                .expect("update");
            total_accesses += stats.cells_accessed;
            decrements = alg.metrics().lb_decrements;
        }
        assert!(
            decrements >= 20,
            "P->P must decrement every update, got {decrements}"
        );
        assert!(
            total_accesses > 0,
            "unnecessary decrements must eventually cause illuminations"
        );
        // The result is still correct throughout (soundness is preserved,
        // only efficiency suffers — that is what OptCTUP fixes).
        alg.check_lb_invariant();
    }

    #[test]
    fn opt_doo_suppresses_jiggle_flashing_that_basic_suffers() {
        use crate::opt::OptCtup;
        let places = grid_place_set();
        let units: Vec<Point> = (0..10)
            .map(|i| Point::new(0.05 + 0.09 * i as f64, 0.95 - 0.085 * i as f64))
            .collect();
        let store_b: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(8), places.clone()));
        let store_o: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(8), places));
        let mut basic = BasicCtup::new(CtupConfig::with_k(5), store_b, &units).expect("init");
        let mut opt = OptCtup::new(CtupConfig::with_k(5), store_o, &units).expect("init");
        let base = units[0];
        let (mut basic_accesses, mut opt_accesses) = (0, 0);
        for i in 0..40 {
            let update = LocationUpdate {
                unit: UnitId(0),
                new: Point::new(base.x + 1e-6 * i as f64, base.y),
            };
            basic_accesses += basic.handle_update(update).expect("update").cells_accessed;
            opt_accesses += opt.handle_update(update).expect("update").cells_accessed;
        }
        assert!(
            opt_accesses < basic_accesses,
            "DOO should beat Basic under jiggling: opt {opt_accesses} vs basic {basic_accesses}"
        );
        // After the first decrement per (unit, cell) pair is recorded, DOO
        // blocks the rest: a handful of accesses at most.
        assert!(
            opt_accesses <= 12,
            "opt accessed {opt_accesses} cells under pure jiggling"
        );
    }

    #[test]
    fn illumination_loads_each_record_from_storage_exactly_once() {
        // Regression guard for the `into_owned()` copy bug: every record an
        // illumination charges to `places_loaded` must correspond to exactly
        // one record delivered by the lower level — a re-read (or a counted
        // duplicate load) would make the storage delta outrun the metric.
        let (mut alg, _, _) = setup(5);
        let before = alg.store.stats().snapshot();
        let mut state = 0xBEEF_CAFE_1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..100 {
            let unit = (next() * 10.0) as usize % 10;
            alg.handle_update(LocationUpdate {
                unit: UnitId(unit as u32),
                new: Point::new(next(), next()),
            })
            .expect("update");
        }
        let delta = alg.store.stats().snapshot().since(&before);
        assert_eq!(
            delta.records_read,
            alg.metrics().places_loaded,
            "storage delivered {} records but illumination accounted {}",
            delta.records_read,
            alg.metrics().places_loaded
        );
        assert_eq!(delta.cell_reads, alg.metrics().cells_accessed);
    }

    #[test]
    fn darkening_keeps_memory_bounded() {
        let (mut alg, _, _) = setup(3);
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let unit = (next() * 10.0) as usize % 10;
            alg.handle_update(LocationUpdate {
                unit: UnitId(unit as u32),
                new: Point::new(next(), next()),
            })
            .expect("update");
            // At most k cells stay illuminated after darkening, and each
            // cell holds one place in this data set.
            assert!(alg.maintained_places() <= 64);
        }
        // Darkening must actually have happened under this much movement.
        assert!(alg.metrics().cells_darkened > 0);
    }
}
