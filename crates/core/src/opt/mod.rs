//! OptCTUP — the paper's optimized scheme (§IV).
//!
//! All cells stay dark; instead of whole illuminated cells, a global set of
//! *maintained places* holds exactly the places that were unsafer than
//! `SK + Δ` when their cell was last accessed. Per-cell lower bounds cover
//! only the non-maintained places and are maintained with Table II, whose
//! Decrease-Once Optimization (DecHash) caps the damage any single unit can
//! do to a bound. Accessing a cell re-filters its places and re-establishes
//! the bound at least `Δ` above `SK`, suppressing the flashing phenomenon.

pub mod dechash;
pub mod lb;

use crate::algorithm::{CtupAlgorithm, InitStats, UpdateStats};
use crate::cells::{classify_with_margin, touched_cells_into};
use crate::config::CtupConfig;
use crate::lbdir::LbDirectory;
use crate::maintained::MaintainedSet;
use crate::metrics::Metrics;
use crate::parallel::ShardMap;
use crate::types::{LocationUpdate, Safety, TopKEntry, UnitId, LB_NONE};
use crate::units::UnitTable;
use ctup_obs::PhaseTimer;
use ctup_spatial::{convert, CellId, Circle, Grid, Point, Relation};
use ctup_storage::{PlaceStore, StorageError};
use dechash::DecHash;
use lb::{opt_transition, HashOp};
use std::sync::Arc;
use std::time::Instant;

use self::lb::basic_fallback;

/// The OptCTUP query processor.
pub struct OptCtup {
    config: CtupConfig,
    store: Arc<dyn PlaceStore>,
    grid: Grid,
    units: UnitTable,
    /// Lower bounds over the non-maintained places of every cell.
    lb: LbDirectory,
    /// Selectively maintained (unsafe) places with exact safeties.
    maintained: MaintainedSet,
    dechash: DecHash,
    last_result: Vec<TopKEntry>,
    metrics: Metrics,
    init_stats: InitStats,
    /// Cell-ownership filter for sharded execution: `Some((shard, map))`
    /// maintains only the cells [`ShardMap::owns`] assigns to `shard`;
    /// `None` owns every cell and is the plain sequential scheme.
    owner: Option<(u32, Arc<ShardMap>)>,
    /// Scratch reused by every update and cell access: the touched cells
    /// and a cell's safeties in record order.
    touched: Vec<CellId>,
    safeties: Vec<Safety>,
}

impl std::fmt::Debug for OptCtup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptCtup")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl OptCtup {
    /// Builds the scheme over `store` and runs the paper's initialization
    /// (§IV.D): exact per-cell bounds, accesses in increasing bound order,
    /// then eviction of everything at or above `SK + Δ`. Fails if a cell
    /// read hits a storage fault.
    pub fn new(
        config: CtupConfig,
        store: Arc<dyn PlaceStore>,
        initial_units: &[Point],
    ) -> Result<Self, StorageError> {
        Self::build(config, store, initial_units, None)
    }

    /// Builds the scheme restricted to the cells `shards` assigns to
    /// `shard`. Non-owned cells are never read: their bounds stay at
    /// [`LB_NONE`], so the access loop and the invariant checker skip
    /// them, and the instance behaves exactly like a sequential `OptCtup`
    /// over the restricted place universe. Updates must still be fed for
    /// *all* units — the unit table is global.
    ///
    /// # Panics
    /// Panics if `shard >= shards.num_shards()`.
    pub fn new_with_shard_map(
        config: CtupConfig,
        store: Arc<dyn PlaceStore>,
        initial_units: &[Point],
        shard: u32,
        shards: Arc<ShardMap>,
    ) -> Result<Self, StorageError> {
        assert!(
            shard < shards.num_shards(),
            "shard {shard} out of range for {} shards",
            shards.num_shards()
        );
        Self::build(config, store, initial_units, Some((shard, shards)))
    }

    fn build(
        config: CtupConfig,
        store: Arc<dyn PlaceStore>,
        initial_units: &[Point],
        owner: Option<(u32, Arc<ShardMap>)>,
    ) -> Result<Self, StorageError> {
        config.validate();
        let start = Instant::now();
        let io_before = store.stats().snapshot();
        let grid = store.grid().clone();
        let units = UnitTable::new(grid.clone(), initial_units, config.protection_radius);

        let mut this = OptCtup {
            lb: LbDirectory::new(grid.num_cells()),
            maintained: MaintainedSet::new(),
            dechash: DecHash::new(),
            last_result: Vec::new(),
            metrics: Metrics::default(),
            init_stats: InitStats::default(),
            config,
            store,
            grid,
            units,
            owner,
            touched: Vec::new(),
            safeties: Vec::new(),
        };

        // Step 1: exact lower bound per owned cell; non-owned cells keep
        // LB_NONE and are invisible from here on.
        let mut safeties_computed = 0u64;
        for cell in this.grid.cells() {
            if !this.owns_cell(cell) {
                continue;
            }
            let records = this.store.read_cell(cell)?;
            this.units.cell_safeties(&records, &mut this.safeties);
            let min = this.safeties.iter().copied().min().unwrap_or(LB_NONE);
            safeties_computed += convert::count64(records.len());
            this.lb.set(cell, min);
        }

        // Steps 2–3: access cells in increasing bound order; each access
        // keeps the places below SK + Δ and re-establishes the bound.
        this.access_loop()?;

        // Step 4: DecHash starts empty (nothing was decremented yet).
        this.dechash.clear();

        this.metrics = Metrics::default();
        this.metrics
            .set_maintained(convert::count64(this.maintained.len()));
        this.last_result = this.maintained.result(this.config.mode);
        // The first update compares against this result, so only changes
        // from here on count towards the low-water mark.
        this.maintained.take_low_water();
        this.init_stats = InitStats {
            wall: start.elapsed(),
            storage: this.store.stats().snapshot().since(&io_before),
            safeties_computed,
        };
        Ok(this)
    }

    /// Whether this instance owns `cell` under its shard filter.
    fn owns_cell(&self, cell: CellId) -> bool {
        self.owner
            .as_ref()
            .is_none_or(|(shard, map)| map.owns(*shard, cell))
    }

    /// Loads a cell, re-files the maintained subset of its places, purges
    /// its DecHash entries and re-establishes its lower bound (§IV.E
    /// step 3).
    ///
    /// The paper adjusts `SK` "as the safety of each place is calculated"
    /// and then evicts at `SK + Δ`; inserting all places just to evict most
    /// of them again would dominate the access cost, so the post-inclusion
    /// `SK` is counted from the ordered view's level counts with the cell's
    /// fresh safeties in place of its held ones, and re-filing touches only
    /// the places that enter or leave the maintained set.
    fn access_cell(&mut self, cell: CellId) -> Result<(), StorageError> {
        // Read first: a failed access leaves the maintained set intact.
        let records = self.store.read_cell(cell)?;
        self.metrics.cells_accessed += 1;
        self.metrics.places_loaded += convert::count64(records.len());

        self.units.cell_safeties(&records, &mut self.safeties);

        // SK as it would be with this cell's places re-filed.
        let sk = match self.config.mode {
            crate::config::QueryMode::TopK(k) => self
                .maintained
                .kth_safety_with(k, cell, &self.safeties)
                .unwrap_or(LB_NONE),
            crate::config::QueryMode::Threshold(tau) => tau,
        };

        // Keep everything below SK + Δ; never evict at or below SK itself
        // (with Δ = 0 the paper's literal rule would evict the k-th place,
        // dropping the maintained set below k and re-accessing forever).
        let keep_below = sk.saturating_add(self.config.delta);
        let must_evict = |safety: Safety| (safety >= keep_below) & (safety > sk);
        // Branch-free: a kept place bounds nothing.
        let lb = self
            .safeties
            .iter()
            .map(|&safety| if must_evict(safety) { safety } else { LB_NONE })
            .min()
            .unwrap_or(LB_NONE);
        // Step 1 keeps every held safety exact, which `refile_cell` relies on
        // (and checks in debug builds).
        self.maintained
            .refile_cell(cell, &records, &self.safeties, |safety| !must_evict(safety));
        self.lb.set(cell, lb);

        // Soundness fix: the bound is exact again, so stale "already
        // decremented" records for this cell must go (DESIGN.md §3.3).
        if self.config.purge_dechash_on_access {
            self.dechash.purge_cell(cell);
        }
        Ok(())
    }

    /// Accesses cells, cheapest bound first, until none is below `SK`.
    fn access_loop(&mut self) -> Result<u64, StorageError> {
        let mut count = 0;
        loop {
            let sk = self.maintained.sk_eff(self.config.mode);
            match self.lb.first() {
                Some((lb0, cell)) if lb0 < sk => {
                    self.access_cell(cell)?;
                    count += 1;
                }
                _ => break,
            }
        }
        Ok(count)
    }

    /// Table II (or Table I when DOO is disabled) over the affected cells.
    fn maintain_lower_bounds(
        &mut self,
        unit: UnitId,
        old_region: &Circle,
        new_region: &Circle,
        touched: &[CellId],
    ) {
        for &cell in touched {
            let rect = self.grid.cell_rect(cell);
            let margin = self.store.cell_extent_margin(cell);
            let rel_old = classify_with_margin(old_region, &rect, margin);
            let rel_new = classify_with_margin(new_region, &rect, margin);
            let (delta, op) = if self.config.doo_enabled {
                let in_hash = self.dechash.contains(unit, cell);
                debug_assert!(
                    !(rel_old == Relation::Full && in_hash),
                    "unit {unit:?} hashed while fully containing {cell:?}"
                );
                let (delta, op) = opt_transition(rel_old, rel_new, in_hash);
                if in_hash && delta == 0 && rel_old == Relation::Partial {
                    self.metrics.lb_decrements_suppressed += 1;
                }
                (delta, op)
            } else {
                (basic_fallback(rel_old, rel_new), HashOp::Keep)
            };
            match op {
                HashOp::Keep => {}
                HashOp::Insert => {
                    self.dechash.insert(unit, cell);
                }
                HashOp::Remove => {
                    self.dechash.remove(unit, cell);
                }
            }
            if delta != 0 {
                self.lb.add(cell, delta);
                if delta > 0 {
                    self.metrics.lb_increments += 1;
                } else {
                    self.metrics.lb_decrements += 1;
                }
            }
        }
        self.metrics.dechash_len = convert::count64(self.dechash.len());
    }

    /// Captures what failover cannot re-derive: the configuration and the
    /// unit positions (see [`crate::checkpoint::Checkpoint`]).
    pub fn checkpoint(&self) -> crate::checkpoint::Checkpoint {
        crate::checkpoint::Checkpoint {
            config: self.config.clone(),
            unit_positions: self.units.iter().map(|u| u.pos).collect(),
            gate: None,
        }
    }

    /// Resumes monitoring from a checkpoint: validates it, then runs the
    /// paper's initialization over `store` from the checkpointed unit
    /// positions. Restore *is* init, so the restored monitor depends only
    /// on the store and the positions, not on the state the checkpointed
    /// monitor held: it answers the same query (up to ties at `SK`) but may
    /// maintain different places. A malformed checkpoint yields a
    /// [`CheckpointError::Invalid`](crate::checkpoint::CheckpointError)
    /// instead of a panic, so a standby can refuse a bad file and keep
    /// serving; a storage fault during the initialization comes back as
    /// [`CheckpointError::Io`](crate::checkpoint::CheckpointError).
    pub fn restore(
        checkpoint: crate::checkpoint::Checkpoint,
        store: Arc<dyn PlaceStore>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        checkpoint.validate()?;
        Self::new(checkpoint.config, store, &checkpoint.unit_positions).map_err(|e| {
            crate::checkpoint::CheckpointError::Io(std::io::Error::other(format!(
                "storage fault while re-initializing: {e}"
            )))
        })
    }

    /// The lower-level store the monitor runs over.
    pub fn store(&self) -> Arc<dyn PlaceStore> {
        self.store.clone()
    }

    /// Read-only view of a cell's lower bound (testing/diagnostics).
    pub fn cell_lower_bound(&self, cell: CellId) -> Safety {
        self.lb.get(cell)
    }

    /// Number of places currently maintained.
    pub fn maintained_places(&self) -> usize {
        self.maintained.len()
    }

    /// Number of `(unit, cell)` pairs in the DecHash.
    pub fn dechash_len(&self) -> usize {
        self.dechash.len()
    }

    /// Asserts the scheme's soundness invariant: for every cell, the lower
    /// bound is at most the DecHash-discounted safety of every
    /// non-maintained place in it (DESIGN.md §3.3 and §4). Reads the lower
    /// level without affecting results. Test/diagnostic use.
    pub fn check_lb_invariant(&self) {
        let radius = self.config.protection_radius;
        for cell in self.grid.cells() {
            let lb = self.lb.get(cell);
            if lb == LB_NONE {
                continue;
            }
            #[expect(
                clippy::panic,
                reason = "the invariant checker is an assertion harness — an unreadable cell must fail the calling test"
            )]
            let records = self
                .store
                .read_cell(cell)
                .unwrap_or_else(|e| panic!("invariant check could not read {cell:?}: {e}"));
            for record in records.iter() {
                if self.maintained.contains(record.id) {
                    continue;
                }
                let safety = self.units.safety(record);
                // Discount every hashed unit's current contribution.
                let mut discount: Safety = 0;
                for u in self.units.iter() {
                    if self.dechash.contains(u.id, cell)
                        && crate::types::protects(u.pos, radius, record)
                    {
                        discount += 1;
                    }
                }
                assert!(
                    lb <= safety - discount,
                    "cell {cell:?}: lb {lb} exceeds discounted safety {} of {:?} \
                     (safety {safety}, discount {discount})",
                    safety - discount,
                    record.id
                );
            }
        }
    }
}

impl crate::checkpoint::Checkpointable for OptCtup {
    fn checkpoint(&self) -> crate::checkpoint::Checkpoint {
        OptCtup::checkpoint(self)
    }

    fn restore(
        checkpoint: crate::checkpoint::Checkpoint,
        store: Arc<dyn PlaceStore>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        OptCtup::restore(checkpoint, store)
    }

    fn store(&self) -> Arc<dyn PlaceStore> {
        OptCtup::store(self)
    }
}

impl CtupAlgorithm for OptCtup {
    fn name(&self) -> &'static str {
        "opt"
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

        let mut touched = std::mem::take(&mut self.touched);
        touched_cells_into(&self.grid, &old_region, &new_region, &mut touched);
        if let Some((shard, map)) = &self.owner {
            // Sharded: only owned cells carry state here; the other shards
            // handle the rest of the touched set from the same update.
            touched.retain(|&cell| map.owns(*shard, cell));
        }

        // Step 1: exact safeties of maintained places.
        self.maintained
            .apply_unit_move(old, update.new, radius, &touched);

        // Step 2: Table II lower-bound maintenance.
        self.maintain_lower_bounds(update.unit, &old_region, &new_region, &touched);
        self.touched = touched;
        let maintain_nanos = timer.lap();

        // Step 3: access every cell whose bound fell below SK.
        let cells_accessed = self.access_loop()?;
        let access_nanos = timer.lap();

        // Most updates leave the result as it was. A change strictly above
        // the last result's boundary (its k-th safety, or τ) cannot alter
        // it, so the result is compared in place only when the low-water
        // mark reached the boundary, and rebuilt only when it changed.
        let mark = self.maintained.take_low_water();
        let reached = mark.is_some_and(|mark| match self.config.mode {
            crate::config::QueryMode::TopK(k) => {
                self.last_result.get(k - 1).is_none_or(|e| mark <= e.safety)
            }
            crate::config::QueryMode::Threshold(tau) => mark < tau,
        });
        let changed = reached
            && !self
                .maintained
                .result_equals(self.config.mode, &self.last_result);
        if changed {
            self.last_result = self.maintained.result(self.config.mode);
        }

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
        match self.config.mode {
            crate::config::QueryMode::TopK(k) => self.maintained.ordered().kth_safety(k),
            crate::config::QueryMode::Threshold(_) => None,
        }
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
    use crate::config::QueryMode;
    use crate::oracle::Oracle;
    use crate::types::{Place, PlaceId};
    use ctup_storage::CellLocalStore;

    fn grid_place_set() -> Vec<Place> {
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

    fn setup(config: CtupConfig) -> (OptCtup, Oracle, Vec<Point>) {
        let places = grid_place_set();
        let oracle = Oracle::new(places.clone());
        let store: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(8), places));
        let units: Vec<Point> = (0..10)
            .map(|i| Point::new(0.05 + 0.09 * i as f64, 0.95 - 0.085 * i as f64))
            .collect();
        let alg = OptCtup::new(config, store, &units).expect("init");
        (alg, oracle, units)
    }

    #[test]
    fn initialization_matches_oracle() {
        let (alg, oracle, units) = setup(CtupConfig::with_k(5));
        oracle.assert_result_matches(&alg.result(), &units, 0.1, QueryMode::TopK(5));
        alg.check_lb_invariant();
        assert!(alg.dechash_len() == 0, "DecHash must start empty");
    }

    /// A seeded xorshift stream of uniform `f64`s in `[0, 1)`.
    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn run_updates(config: CtupConfig, steps: usize, seed: u64) {
        let (mut alg, oracle, mut units) = setup(config.clone());
        let mut next = xorshift(seed);
        for step in 0..steps {
            let unit = (next() * 10.0) as usize % 10;
            let new = Point::new(next(), next());
            alg.handle_update(LocationUpdate {
                unit: UnitId(unit as u32),
                new,
            })
            .expect("update");
            units[unit] = new;
            oracle.assert_result_matches(&alg.result(), &units, 0.1, config.mode);
            // The low-water skip must never hide a change to the result.
            assert_eq!(
                alg.result(),
                alg.maintained.result(config.mode),
                "step {step}"
            );
            if step % 50 == 0 {
                alg.check_lb_invariant();
                alg.maintained.check_invariants();
            }
        }
        alg.check_lb_invariant();
        alg.maintained.check_invariants();
    }

    #[test]
    fn tracks_oracle_with_doo() {
        run_updates(CtupConfig::with_k(5), 300, 0xA);
    }

    /// The result is compared only when the low-water mark reaches its
    /// boundary; over several feeds in both query modes, the reported
    /// result equals the ordered view's after every update (checked in
    /// `run_updates`).
    #[test]
    fn skipped_result_walks_never_hide_a_change() {
        for seed in [0x10, 0x11, 0x12] {
            run_updates(CtupConfig::with_k(1), 200, seed);
            run_updates(CtupConfig::with_k(8), 200, seed);
            for tau in [-3, 0] {
                let config = CtupConfig {
                    mode: QueryMode::Threshold(tau),
                    ..CtupConfig::paper_default()
                };
                run_updates(config, 200, seed);
            }
        }
    }

    /// Pins the logical work of one fixed feed: cells read, places loaded,
    /// bounds decremented and suppressed, result changes, and the state
    /// held at the end. A change to how the engine does its work, rather
    /// than to which work it does, must leave every value as it is.
    #[test]
    fn fixed_feed_pins_the_logical_work() {
        use ctup_mogen::{PlaceGenConfig, PlaceGenerator};
        let places = PlaceGenerator::new(PlaceGenConfig {
            count: 3_000,
            extent_prob: 0.1,
            ..PlaceGenConfig::default()
        })
        .generate(31);
        let oracle = Oracle::new(places.clone());
        let store: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(10), places));
        let mut next = xorshift(0x31);
        let mut units: Vec<Point> = (0..150).map(|_| Point::new(next(), next())).collect();
        let config = CtupConfig::paper_default();
        let mut alg = OptCtup::new(config.clone(), store, &units).expect("init");
        for _ in 0..2_000 {
            let unit = (next() * 150.0) as usize % 150;
            // Short moves, as a unit on patrol makes them.
            let (dx, dy) = ((next() - 0.5) * 0.1, (next() - 0.5) * 0.1);
            let old = units[unit];
            let new = Point::new((old.x + dx).clamp(0.0, 1.0), (old.y + dy).clamp(0.0, 1.0));
            alg.handle_update(LocationUpdate {
                unit: UnitId(unit as u32),
                new,
            })
            .expect("update");
            units[unit] = new;
        }
        oracle.assert_result_matches(&alg.result(), &units, 0.1, config.mode);
        let m = alg.metrics();
        let work = (
            m.cells_accessed,
            m.places_loaded,
            m.lb_decrements,
            m.lb_decrements_suppressed,
            m.result_changes,
            alg.maintained_places(),
            alg.dechash_len(),
        );
        assert_eq!(work, (1363, 40622, 10093, 3942, 167, 614, 390));
        let top: Vec<(u32, Safety)> = alg.result().iter().map(|e| (e.place.0, e.safety)).collect();
        assert_eq!(
            top,
            [
                (13, -8),
                (650, -8),
                (791, -8),
                (837, -8),
                (921, -8),
                (1326, -8),
                (2004, -8),
                (2259, -8),
                (2901, -8),
                (164, -7),
                (247, -7),
                (317, -7),
                (380, -7),
                (643, -7),
                (1355, -7),
            ]
        );
    }

    /// Two monitors built from the same inputs and fed the same updates
    /// write byte-identical checkpoints: nothing a checkpoint walks is in
    /// a per-process random order.
    #[test]
    fn checkpoints_are_byte_deterministic() {
        use ctup_mogen::{PlaceGenConfig, PlaceGenerator};
        let places = PlaceGenerator::new(PlaceGenConfig {
            count: 3_000,
            ..PlaceGenConfig::default()
        })
        .generate(34);
        let run = || {
            let store: Arc<dyn PlaceStore> =
                Arc::new(CellLocalStore::build(Grid::unit_square(10), places.clone()));
            let mut next = xorshift(0x34);
            let mut units: Vec<Point> = (0..150).map(|_| Point::new(next(), next())).collect();
            let mut alg = OptCtup::new(CtupConfig::paper_default(), store, &units).expect("init");
            for _ in 0..3_000 {
                let unit = (next() * 150.0) as usize % 150;
                let (dx, dy) = ((next() - 0.5) * 0.1, (next() - 0.5) * 0.1);
                let old = units[unit];
                let new = Point::new((old.x + dx).clamp(0.0, 1.0), (old.y + dy).clamp(0.0, 1.0));
                alg.handle_update(LocationUpdate {
                    unit: UnitId(unit as u32),
                    new,
                })
                .expect("update");
                units[unit] = new;
            }
            assert!(alg.dechash_len() > 1, "DecHash must hold several pairs");
            let mut bytes = Vec::new();
            alg.checkpoint().write(&mut bytes).expect("write");
            bytes
        };
        assert!(run() == run(), "checkpoint bytes differ between runs");
    }

    #[test]
    fn tracks_oracle_without_doo() {
        run_updates(
            CtupConfig {
                doo_enabled: false,
                ..CtupConfig::with_k(5)
            },
            300,
            0xB,
        );
    }

    #[test]
    fn tracks_oracle_with_zero_delta() {
        run_updates(
            CtupConfig {
                delta: 0,
                ..CtupConfig::with_k(3)
            },
            200,
            0xC,
        );
    }

    #[test]
    fn tracks_oracle_with_large_delta() {
        run_updates(
            CtupConfig {
                delta: 50,
                ..CtupConfig::with_k(3)
            },
            200,
            0xD,
        );
    }

    #[test]
    fn threshold_mode_tracks_oracle() {
        run_updates(
            CtupConfig {
                mode: QueryMode::Threshold(-2),
                ..CtupConfig::paper_default()
            },
            200,
            0xE,
        );
    }

    #[test]
    fn doo_suppresses_repeated_decrements() {
        // A unit jiggling on a cell boundary: with DOO the second and later
        // partial-partial transitions must not decrement again.
        let (mut alg, _, _) = setup(CtupConfig::with_k(5));
        let before = alg.metrics().lb_decrements;
        for i in 0..20 {
            alg.handle_update(LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.45 + 0.001 * (i % 2) as f64, 0.45),
            })
            .expect("update");
        }
        let decs = alg.metrics().lb_decrements - before;
        let suppressed = alg.metrics().lb_decrements_suppressed;
        // First arrival can decrement the touched cells once each; the 19
        // follow-ups must be suppressed.
        assert!(suppressed > 0, "no suppression recorded");
        assert!(
            decs <= 16,
            "DOO failed to cap decrements: {decs} decrements, {suppressed} suppressed"
        );
    }

    /// The soundness fix of DESIGN.md §3.3, demonstrated constructively:
    /// with the paper's literal Table II (no DecHash purge on access), a
    /// stale `(unit, cell)` entry suppresses a legitimate decrement after
    /// the cell's bound was re-established exactly, and the monitor misses
    /// a place that belongs in the result. With the purge the same
    /// sequence is answered correctly.
    #[test]
    fn literal_table_ii_without_purge_is_unsound() {
        let run = |purge: bool| -> bool {
            let places = vec![
                Place::point(PlaceId(0), Point::new(0.25, 0.25), 5), // p, cell C0
                Place::point(PlaceId(1), Point::new(0.75, 0.75), 5), // q, always alarmed
            ];
            let store: Arc<dyn PlaceStore> =
                Arc::new(CellLocalStore::build(Grid::unit_square(2), places));
            let config = CtupConfig {
                mode: QueryMode::Threshold(-4),
                protection_radius: 0.1,
                delta: 0,
                doo_enabled: true,
                purge_dechash_on_access: purge,
            };
            // Two units protect p: safety -3, strictly above the threshold.
            let mut alg = OptCtup::new(
                config,
                store,
                &[Point::new(0.25, 0.33), Point::new(0.33, 0.25)],
            )
            .expect("init");
            assert_eq!(alg.result().len(), 1, "only q alarmed initially");
            // Two P->P moves that keep protecting p: each decrements C0's
            // bound once (hash entries recorded); the second forces an
            // access that re-establishes the bound exactly (-3).
            alg.handle_update(LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.25, 0.335),
            })
            .expect("update");
            alg.handle_update(LocationUpdate {
                unit: UnitId(1),
                new: Point::new(0.335, 0.25),
            })
            .expect("update");
            // Both units leave p (still P->P with C0): safety(p) drops to
            // -5 < -4, so p must be alarmed. Without the purge, both stale
            // hash entries suppress the decrements: the bound stays at -3
            // and the access never happens.
            alg.handle_update(LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.25, 0.45),
            })
            .expect("update");
            alg.handle_update(LocationUpdate {
                unit: UnitId(1),
                new: Point::new(0.45, 0.25),
            })
            .expect("update");
            alg.result().iter().any(|e| e.place == PlaceId(0))
        };
        assert!(run(true), "purge-on-access must report p");
        assert!(
            !run(false),
            "the literal Table II misses p — the fix is necessary"
        );
    }

    #[test]
    fn maintains_fewer_places_than_basic() {
        use crate::basic::BasicCtup;
        let places = grid_place_set();
        let store: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(8), places.clone()));
        let store2: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(8), places));
        let units: Vec<Point> = (0..10)
            .map(|i| Point::new(0.05 + 0.09 * i as f64, 0.5))
            .collect();
        let opt = OptCtup::new(CtupConfig::with_k(5), store, &units).expect("init");
        let basic = BasicCtup::new(CtupConfig::with_k(5), store2, &units).expect("init");
        assert!(
            opt.maintained_places() <= basic.maintained_places(),
            "opt {} > basic {}",
            opt.maintained_places(),
            basic.maintained_places()
        );
    }

    #[test]
    fn delta_keeps_near_misses_maintained() {
        let (alg0, _, _) = setup(CtupConfig {
            delta: 0,
            ..CtupConfig::with_k(5)
        });
        let (alg8, _, _) = setup(CtupConfig {
            delta: 8,
            ..CtupConfig::with_k(5)
        });
        assert!(
            alg8.maintained_places() >= alg0.maintained_places(),
            "larger delta must maintain at least as many places"
        );
    }
}
