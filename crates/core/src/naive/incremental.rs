//! The maintain-everything baseline.

use crate::algorithm::{CtupAlgorithm, InitStats, UpdateStats};
use crate::config::CtupConfig;
use crate::metrics::Metrics;
use crate::topk::SafetyOrdered;
use crate::types::{protects, LocationUpdate, Place, Safety, TopKEntry, UnitId};
use crate::units::UnitTable;
use ctup_obs::PhaseTimer;
use ctup_spatial::{convert, Circle, Grid, Point};
use ctup_storage::{PlaceStore, StorageError};
use std::sync::Arc;
use std::time::Instant;

/// The "maintain the safeties of all places" baseline (§IV of the paper):
/// a materialized safety per place plus a global ordered view. An update
/// touches only the places inside the unit's old and new protecting
/// regions, found through a static per-cell place index.
///
/// This is what reducing CTUP to a materialized top-k view over a base
/// table (Yi et al.) would cost at best: no cell accesses, but `|P|`
/// materialized safeties and an ordered structure over all of them.
pub struct NaiveIncremental {
    config: CtupConfig,
    grid: Grid,
    places: Vec<Place>,
    safeties: Vec<Safety>,
    /// Indices into `places`, bucketed by grid cell of the place position.
    by_cell: Vec<Vec<u32>>,
    ordered: SafetyOrdered,
    units: UnitTable,
    last_result: Vec<TopKEntry>,
    metrics: Metrics,
    init_stats: InitStats,
}

impl std::fmt::Debug for NaiveIncremental {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NaiveIncremental")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl NaiveIncremental {
    /// Builds the baseline over `store` with units at `initial_units`.
    /// Fails if the one-time bulk load hits a storage fault.
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

        let mut places = Vec::with_capacity(store.num_places());
        let mut by_cell = vec![Vec::new(); grid.num_cells()];
        for cell in grid.cells() {
            for place in store.read_cell(cell)?.iter() {
                by_cell[cell.index()].push(convert::id32(places.len()));
                places.push(place.clone());
            }
        }
        let mut ordered = SafetyOrdered::new();
        let mut safeties = Vec::with_capacity(places.len());
        for place in &places {
            let s = units.safety(place);
            ordered.insert(place.id, s);
            safeties.push(s);
        }

        let mut this = NaiveIncremental {
            config,
            grid,
            places,
            safeties,
            by_cell,
            ordered,
            units,
            last_result: Vec::new(),
            metrics: Metrics::default(),
            init_stats: InitStats::default(),
        };
        this.last_result = this.current_result();
        this.metrics
            .set_maintained(convert::count64(this.places.len()));
        this.init_stats = InitStats {
            wall: start.elapsed(),
            storage: store.stats().snapshot().since(&io_before),
            safeties_computed: convert::count64(this.places.len()),
        };
        Ok(this)
    }

    fn current_result(&self) -> Vec<TopKEntry> {
        self.ordered.result(self.config.k()).collect()
    }

    /// Applies the ±1 safety adjustments caused by a unit moving
    /// `old -> new` to every place in the affected cells.
    fn adjust_affected(&mut self, old: Point, new: Point) {
        let radius = self.config.protection_radius;
        let old_region = Circle::new(old, radius);
        let new_region = Circle::new(new, radius);
        let mut cells: Vec<_> = self
            .grid
            .cells_overlapping_circle(&old_region)
            .chain(self.grid.cells_overlapping_circle(&new_region))
            .collect();
        cells.sort_unstable();
        cells.dedup();
        for cell in cells {
            for &idx in &self.by_cell[cell.index()] {
                let idx = convert::index(idx);
                let place = &self.places[idx];
                let was = protects(old, radius, place);
                let is = protects(new, radius, place);
                if was != is {
                    let delta: Safety = if is { 1 } else { -1 };
                    let fresh = self.safeties[idx] + delta;
                    self.ordered.update(place.id, self.safeties[idx], fresh);
                    self.safeties[idx] = fresh;
                }
            }
        }
    }
}

impl CtupAlgorithm for NaiveIncremental {
    fn name(&self) -> &'static str {
        "naive-inc"
    }

    fn config(&self) -> &CtupConfig {
        &self.config
    }

    fn handle_update(&mut self, update: LocationUpdate) -> Result<UpdateStats, StorageError> {
        let mut timer = PhaseTimer::start();
        let old = self.units.apply(update);
        self.adjust_affected(old, update.new);
        let result = self.current_result();
        let changed = result != self.last_result;
        self.last_result = result;

        let nanos = timer.lap();
        self.metrics.updates_processed += 1;
        self.metrics.maintain_nanos += nanos;
        if changed {
            self.metrics.result_changes += 1;
        }
        Ok(UpdateStats {
            maintain_nanos: nanos,
            access_nanos: 0,
            cells_accessed: 0,
            result_changed: changed,
        })
    }

    fn result(&self) -> Vec<TopKEntry> {
        self.last_result.clone()
    }

    fn sk(&self) -> Option<Safety> {
        self.ordered.kth_safety(self.config.k())
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
    use crate::types::PlaceId;
    use ctup_storage::CellLocalStore;

    fn setup(k: usize) -> (NaiveIncremental, Arc<dyn PlaceStore>, Vec<Point>) {
        let places = vec![
            Place::point(PlaceId(0), Point::new(0.15, 0.15), 2),
            Place::point(PlaceId(1), Point::new(0.5, 0.5), 1),
            Place::point(PlaceId(2), Point::new(0.85, 0.85), 4),
            Place::point(PlaceId(3), Point::new(0.5, 0.52), 3),
            Place::point(PlaceId(4), Point::new(0.45, 0.5), 1),
        ];
        let store: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(4), places));
        let units = vec![Point::new(0.5, 0.5), Point::new(0.2, 0.2)];
        let alg =
            NaiveIncremental::new(CtupConfig::with_k(k), store.clone(), &units).expect("init");
        (alg, store, units)
    }

    #[test]
    fn matches_oracle_through_update_sequence() {
        let (mut alg, store, mut units) = setup(3);
        let oracle = Oracle::from_store(store.as_ref()).expect("oracle");
        oracle.assert_result_matches(&alg.result(), &units, 0.1, 3);
        let moves = [
            (0u32, Point::new(0.84, 0.86)),
            (1u32, Point::new(0.52, 0.5)),
            (1u32, Point::new(0.14, 0.16)),
            (0u32, Point::new(0.5, 0.51)),
            (0u32, Point::new(0.51, 0.51)),
        ];
        for (unit, new) in moves {
            alg.handle_update(LocationUpdate {
                unit: UnitId(unit),
                new,
            })
            .expect("update");
            units[unit as usize] = new;
            oracle.assert_result_matches(&alg.result(), &units, 0.1, 3);
        }
    }

    #[test]
    fn agrees_with_recompute_baseline() {
        let (mut inc, store, units) = setup(2);
        let mut rec = NaiveRecompute::new(CtupConfig::with_k(2), store, &units).expect("init");
        for i in 0..20u32 {
            let update = LocationUpdate {
                unit: UnitId(i % 2),
                new: Point::new(
                    0.05 + (i as f64 * 0.137) % 0.9,
                    0.05 + (i as f64 * 0.071) % 0.9,
                ),
            };
            inc.handle_update(update).expect("update");
            rec.handle_update(update).expect("update");
            let inc_safeties: Vec<Safety> = inc.result().iter().map(|e| e.safety).collect();
            let rec_safeties: Vec<Safety> = rec.result().iter().map(|e| e.safety).collect();
            assert_eq!(inc_safeties, rec_safeties, "diverged at update {i}");
        }
    }

    use crate::naive::NaiveRecompute;

    #[test]
    fn maintains_all_places() {
        let (alg, _, _) = setup(2);
        assert_eq!(alg.metrics().maintained_now, 5);
    }
}
