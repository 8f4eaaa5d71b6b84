//! The recompute-everything baseline.

use crate::algorithm::{CtupAlgorithm, InitStats, UpdateStats};
use crate::config::CtupConfig;
use crate::metrics::Metrics;
use crate::types::{LocationUpdate, Place, Safety, TopKEntry, UnitId};
use crate::units::UnitTable;
use ctup_obs::PhaseTimer;
use ctup_spatial::{convert, Point};
use ctup_storage::{PlaceStore, StorageError};
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// The paper's naïve scheme: upon every location update, recompute the
/// safety of every place and reselect the result.
///
/// Initialization is the cheapest of all schemes (one pass, no auxiliary
/// structures — Fig. 3), updates are by far the most expensive (Fig. 4).
/// Places are read from the lower level exactly once, at construction; the
/// per-update cost is the full recomputation.
pub struct NaiveRecompute {
    config: CtupConfig,
    places: Vec<Place>,
    units: UnitTable,
    result: Vec<TopKEntry>,
    metrics: Metrics,
    init_stats: InitStats,
}

impl std::fmt::Debug for NaiveRecompute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NaiveRecompute")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl NaiveRecompute {
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
        let mut places = Vec::with_capacity(store.num_places());
        for cell in grid.cells() {
            places.extend(store.read_cell(cell)?.iter().cloned());
        }
        let units = UnitTable::new(grid, initial_units, config.protection_radius);
        let mut this = NaiveRecompute {
            config,
            places,
            units,
            result: Vec::new(),
            metrics: Metrics::default(),
            init_stats: InitStats::default(),
        };
        this.recompute();
        this.init_stats = InitStats {
            wall: start.elapsed(),
            storage: store.stats().snapshot().since(&io_before),
            safeties_computed: convert::count64(this.places.len()),
        };
        Ok(this)
    }

    /// Recomputes every place's safety and the result set.
    fn recompute(&mut self) {
        let k = self.config.k();
        // Bounded max-heap of the k smallest (safety, id) pairs.
        let mut heap: BinaryHeap<(Safety, crate::types::PlaceId)> =
            BinaryHeap::with_capacity(k + 1);
        for place in &self.places {
            let key = (self.units.safety(place), place.id);
            if heap.len() < k {
                heap.push(key);
            } else if let Some(&worst) = heap.peek() {
                if key < worst {
                    heap.pop();
                    heap.push(key);
                }
            }
        }
        let mut entries: Vec<TopKEntry> = heap
            .into_iter()
            .map(|(safety, place)| TopKEntry { place, safety })
            .collect();
        entries.sort_by_key(|e| (e.safety, e.place));
        self.result = entries;
    }
}

impl CtupAlgorithm for NaiveRecompute {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn config(&self) -> &CtupConfig {
        &self.config
    }

    fn handle_update(&mut self, update: LocationUpdate) -> Result<UpdateStats, StorageError> {
        let mut timer = PhaseTimer::start();
        let before = std::mem::take(&mut self.result);
        self.units.apply(update);
        self.recompute();
        let changed = before != self.result;

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
        self.result.clone()
    }

    fn sk(&self) -> Option<Safety> {
        // The result holds at most k entries; the k-th exists only when full.
        self.result.get(self.config.k() - 1).map(|e| e.safety)
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
    use ctup_spatial::Grid;
    use ctup_storage::CellLocalStore;

    fn small_setup() -> (Arc<dyn PlaceStore>, Vec<Point>) {
        let places = vec![
            Place::point(PlaceId(0), Point::new(0.15, 0.15), 2),
            Place::point(PlaceId(1), Point::new(0.5, 0.5), 1),
            Place::point(PlaceId(2), Point::new(0.85, 0.85), 4),
            Place::point(PlaceId(3), Point::new(0.5, 0.52), 3),
        ];
        let store = CellLocalStore::build(Grid::unit_square(4), places);
        let units = vec![Point::new(0.5, 0.5), Point::new(0.2, 0.2)];
        (Arc::new(store), units)
    }

    #[test]
    fn initial_result_matches_oracle() {
        let (store, units) = small_setup();
        let alg = NaiveRecompute::new(CtupConfig::with_k(2), store.clone(), &units).expect("init");
        let oracle = Oracle::from_store(store.as_ref()).expect("oracle");
        oracle.assert_result_matches(&alg.result(), &units, 0.1, 2);
        assert_eq!(alg.init_stats().storage.cell_reads, 16);
        assert_eq!(alg.init_stats().safeties_computed, 4);
    }

    #[test]
    fn updates_track_oracle() {
        let (store, mut units) = small_setup();
        let mut alg =
            NaiveRecompute::new(CtupConfig::with_k(2), store.clone(), &units).expect("init");
        let oracle = Oracle::from_store(store.as_ref()).expect("oracle");
        let moves = [
            (0u32, Point::new(0.85, 0.85)),
            (1u32, Point::new(0.5, 0.55)),
            (0u32, Point::new(0.1, 0.1)),
        ];
        for (unit, new) in moves {
            let stats = alg
                .handle_update(LocationUpdate {
                    unit: UnitId(unit),
                    new,
                })
                .expect("update");
            units[unit as usize] = new;
            oracle.assert_result_matches(&alg.result(), &units, 0.1, 2);
            assert_eq!(stats.cells_accessed, 0);
        }
        assert_eq!(alg.metrics().updates_processed, 3);
    }

    #[test]
    fn sk_is_kth_entry() {
        let (store, units) = small_setup();
        let alg = NaiveRecompute::new(CtupConfig::with_k(2), store, &units).expect("init");
        let result = alg.result();
        assert_eq!(alg.sk(), Some(result[1].safety));
    }
}
