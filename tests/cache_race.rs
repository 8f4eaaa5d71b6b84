//! Write-invalidation racing the cell-read cache.
//!
//! The repo's lower-level stores are read-only, so in normal runs the
//! [`CachedStore`] is coherent by construction — which means the
//! write-invalidation path (`invalidate_cell` / `invalidate_all`) and its
//! race against the unlocked miss window only get exercised when something
//! deliberately attacks them. These tests do exactly that, three ways:
//! invalidation storms at batch boundaries (differential vs. the
//! sequential engine), a hook store that fires an invalidation inside
//! *every* miss window (the deterministic worst case — every insert is
//! raced), and a real-thread invalidator hammering the cache while the
//! sharded engine runs. The deterministic-schedule version of the same
//! race lives in `ctup_sched::models::cache`, where every interleaving of
//! the miss protocol is explored exhaustively.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::config::CtupConfig;
use ctup::core::types::{LocationUpdate, UnitId};
use ctup::core::{OptCtup, Oracle, ShardedCtup};
use ctup::mogen::{PlaceGenConfig, Workload, WorkloadParams};
use ctup::spatial::{CellId, Grid};
use ctup::storage::{
    CachedStore, CellLocalStore, PlaceRecord, PlaceStore, StorageError, StorageStats,
};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};

const NUM_UNITS: u32 = 16;
const RADIUS: f64 = 0.1;
const K: usize = 8;
const STEPS: usize = if cfg!(miri) { 8 } else { 200 };

fn setup(seed: u64) -> (Workload, Arc<dyn PlaceStore>) {
    let workload = Workload::generate(WorkloadParams {
        num_units: NUM_UNITS,
        places: PlaceGenConfig {
            count: 600,
            ..PlaceGenConfig::default()
        },
        seed,
        ..WorkloadParams::default()
    });
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(8),
        workload.places_vec(),
    ));
    (workload, store)
}

fn updates_from(workload: &mut Workload, n: usize) -> Vec<LocationUpdate> {
    workload
        .next_updates(n)
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        })
        .collect()
}

/// Invalidation storms between batches: after every batch the test drops
/// a rotating slice of cells from the cache (and periodically the whole
/// cache). A coherent cache must make this entirely invisible — identical
/// results to the sequential uncached engine at every boundary, and the
/// final answer oracle-true.
#[test]
fn invalidation_storm_between_batches_is_transparent() {
    let (mut workload, base) = setup(0x1A7E);
    let units = workload.unit_positions();
    let stream = updates_from(&mut workload, STEPS);
    let config = CtupConfig::with_k(K);
    let cache = Arc::new(CachedStore::new(base.clone(), 64));
    let cache_as_store: Arc<dyn PlaceStore> = cache.clone();
    let mut seq = OptCtup::new(config.clone(), base.clone(), &units).expect("clean store");
    let mut sharded = ShardedCtup::new(config, cache_as_store, &units, 3).expect("clean store");

    let all_cells: Vec<CellId> = base.grid().cells().collect();
    let mut positions = units.clone();
    for (batch_no, chunk) in stream.chunks(5).enumerate() {
        for &update in chunk {
            seq.handle_update(update).expect("seq update");
            positions[update.unit.index()] = update.new;
        }
        sharded.handle_batch(chunk.to_vec()).expect("batch");
        assert_eq!(
            seq.sk(),
            sharded.sk(),
            "batch {batch_no}: SK diverged under invalidation storm"
        );
        assert_eq!(
            seq.result().iter().map(|e| e.safety).collect::<Vec<_>>(),
            sharded
                .result()
                .iter()
                .map(|e| e.safety)
                .collect::<Vec<_>>(),
            "batch {batch_no}: safety sequence diverged under invalidation storm"
        );
        // The storm: drop a rotating third of the grid, and every fourth
        // batch the whole cache.
        for cell in all_cells.iter().skip(batch_no % 3).step_by(3) {
            cache.invalidate_cell(*cell);
        }
        if batch_no % 4 == 3 {
            cache.invalidate_all();
            assert_eq!(cache.resident_pages(), 0, "invalidate_all left residents");
        }
    }
    let oracle = Oracle::from_store(base.as_ref()).expect("clean store");
    oracle.assert_result_matches(&sharded.result(), &positions, RADIUS, K);
}

/// A lower level that invalidates the wrapping cache in the middle of
/// every `read_cell` — i.e. inside the unlocked miss window, after the
/// cache captured its generation and before it re-locks to insert. With
/// the generation check, every such raced insert must be refused.
struct InvalidatingStore {
    inner: Arc<dyn PlaceStore>,
    target: Mutex<Option<Weak<CachedStore>>>,
}

impl PlaceStore for InvalidatingStore {
    fn grid(&self) -> &Grid {
        self.inner.grid()
    }
    fn num_places(&self) -> usize {
        self.inner.num_places()
    }
    fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError> {
        let target = self.target.lock().expect("hook lock");
        if let Some(cache) = target.as_ref().and_then(Weak::upgrade) {
            cache.invalidate_cell(cell);
        }
        self.inner.read_cell(cell)
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

/// Every miss raced: the hook store invalidates the touched cell inside
/// every miss window, so the generation check must refuse every insert.
/// The engine must still compute exact results (raced reads are served,
/// just not cached), and nothing may ever become resident.
#[test]
fn every_miss_raced_by_invalidation_still_serves_true_data() {
    let (mut workload, base) = setup(0xACED);
    let units = workload.unit_positions();
    let stream = updates_from(&mut workload, STEPS);
    let hook = Arc::new(InvalidatingStore {
        inner: base.clone(),
        target: Mutex::new(None),
    });
    let cache = Arc::new(CachedStore::new(hook.clone(), 64));
    *hook.target.lock().expect("hook lock") = Some(Arc::downgrade(&cache));
    let cache_as_store: Arc<dyn PlaceStore> = cache.clone();

    let config = CtupConfig::with_k(K);
    let mut seq = OptCtup::new(config.clone(), base.clone(), &units).expect("clean store");
    let mut sharded = ShardedCtup::new(config, cache_as_store, &units, 2).expect("clean store");
    let mut positions = units.clone();
    for (step, update) in stream.into_iter().enumerate() {
        seq.handle_update(update).expect("seq update");
        sharded.handle_update(update).expect("sharded update");
        positions[update.unit.index()] = update.new;
        assert_eq!(seq.sk(), sharded.sk(), "step {step}: SK diverged");
        assert_eq!(
            cache.resident_pages(),
            0,
            "step {step}: a raced insert slipped past the generation check"
        );
    }
    let snap = base.stats().snapshot();
    assert_eq!(
        snap.cache_hits, 0,
        "nothing was cacheable, so nothing may hit"
    );
    assert!(
        snap.cache_misses > 0,
        "the engine never consulted the cache"
    );
    let oracle = Oracle::from_store(base.as_ref()).expect("clean store");
    oracle.assert_result_matches(&sharded.result(), &positions, RADIUS, K);
}

/// Real threads: an invalidator loops over every cell (plus periodic full
/// flushes) while the main thread drives the sharded engine — the shard
/// workers' cache reads genuinely race the invalidations. Any torn state,
/// deadlock, or stale read shows up as a divergence from the sequential
/// engine or an oracle failure. This is also the suite the ThreadSanitizer
/// CI job runs, where a data race fails the build even if the results
/// happen to come out right.
#[test]
fn concurrent_invalidator_thread_never_perturbs_results() {
    let (mut workload, base) = setup(0x7EAD);
    let units = workload.unit_positions();
    let stream = updates_from(&mut workload, STEPS);
    let config = CtupConfig::with_k(K);
    let cache = Arc::new(CachedStore::new(base.clone(), 32));
    let cache_as_store: Arc<dyn PlaceStore> = cache.clone();
    let mut seq = OptCtup::new(config.clone(), base.clone(), &units).expect("clean store");
    let mut sharded = ShardedCtup::new(config, cache_as_store, &units, 3).expect("clean store");

    let stop = Arc::new(AtomicBool::new(false));
    let invalidator = {
        let cache = cache.clone();
        let stop = stop.clone();
        let cells: Vec<CellId> = cache.grid().cells().collect();
        std::thread::spawn(move || {
            let mut laps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for &cell in &cells {
                    cache.invalidate_cell(cell);
                }
                laps += 1;
                if laps.is_multiple_of(8) {
                    cache.invalidate_all();
                }
                std::thread::yield_now();
            }
            laps
        })
    };

    let mut positions = units.clone();
    for (step, update) in stream.into_iter().enumerate() {
        seq.handle_update(update).expect("seq update");
        sharded.handle_update(update).expect("sharded update");
        positions[update.unit.index()] = update.new;
        assert_eq!(
            seq.sk(),
            sharded.sk(),
            "step {step}: SK diverged under invalidator"
        );
        assert_eq!(
            seq.result().iter().map(|e| e.safety).collect::<Vec<_>>(),
            sharded
                .result()
                .iter()
                .map(|e| e.safety)
                .collect::<Vec<_>>(),
            "step {step}: safety sequence diverged under invalidator"
        );
    }
    stop.store(true, Ordering::Relaxed);
    let laps = invalidator.join().expect("invalidator thread panicked");
    assert!(laps > 0, "the invalidator never ran a full lap");
    let oracle = Oracle::from_store(base.as_ref()).expect("clean store");
    oracle.assert_result_matches(&sharded.result(), &positions, RADIUS, K);
}
