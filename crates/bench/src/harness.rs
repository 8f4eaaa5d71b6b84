//! Workload construction and measurement plumbing.

use ctup_core::algorithm::CtupAlgorithm;
use ctup_core::config::CtupConfig;
use ctup_core::naive::{NaiveIncremental, NaiveRecompute};
use ctup_core::types::{LocationUpdate, UnitId};
use ctup_core::{BasicCtup, OptCtup, ShardedCtup};
use ctup_mogen::{PlaceGenConfig, PositionUpdate, Workload, WorkloadParams};
use ctup_obs::LatencySnapshot;
use ctup_spatial::{Grid, Point};
use ctup_storage::{CachedStore, CellLocalStore, PagedDiskStore, PlaceStore};
use std::sync::Arc;
use std::time::Instant;

/// The experiment knobs (Table III parameters plus stream length).
#[derive(Debug, Clone)]
pub struct SetupParams {
    /// Number of protecting units.
    pub num_units: u32,
    /// Number of places.
    pub num_places: u32,
    /// Partition granularity (grid is `granularity × granularity`).
    pub granularity: u32,
    /// CTUP configuration (k, R, Δ, DOO).
    pub config: CtupConfig,
    /// Simulation time step between reporting rounds; smaller steps mean
    /// finer-grained location updates (default 1.0).
    pub tick_dt: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for SetupParams {
    /// Table III defaults.
    fn default() -> Self {
        SetupParams {
            num_units: 150,
            num_places: 15_000,
            granularity: 10,
            config: CtupConfig::paper_default(),
            tick_dt: 1.0,
            seed: 0xC7,
        }
    }
}

/// A prepared experiment: store, initial units and the update source.
pub struct Setup {
    /// Parameters that produced this setup.
    pub params: SetupParams,
    /// The (shared, memory-backed) lower level.
    pub store: Arc<dyn PlaceStore>,
    /// Initial unit positions.
    pub units: Vec<Point>,
    workload: Workload,
}

impl std::fmt::Debug for Setup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Setup")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl Setup {
    /// Produces the next `n` location updates of the stream.
    pub fn next_updates(&mut self, n: usize) -> Vec<LocationUpdate> {
        stream(self.workload.next_updates(n))
    }
}

/// Builds a workload + store for `params`.
pub fn build_setup(params: SetupParams) -> Setup {
    let wl_params = WorkloadParams {
        num_units: params.num_units,
        places: PlaceGenConfig {
            count: params.num_places,
            ..PlaceGenConfig::default()
        },
        seed: params.seed,
        tick_dt: params.tick_dt,
        ..WorkloadParams::default()
    };
    let workload = Workload::generate(wl_params);
    let grid = Grid::unit_square(params.granularity);
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(grid, workload.places_vec()));
    let units = workload.unit_positions();
    Setup {
        params,
        store,
        units,
        workload,
    }
}

/// Converts generator updates into server updates.
pub fn stream(updates: Vec<PositionUpdate>) -> Vec<LocationUpdate> {
    updates
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        })
        .collect()
}

/// Which algorithm to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgKind {
    /// Recompute-everything baseline.
    Naive,
    /// Maintain-everything baseline.
    NaiveIncremental,
    /// BasicCTUP.
    Basic,
    /// OptCTUP.
    Opt,
}

impl AlgKind {
    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            AlgKind::Naive => "Naive",
            AlgKind::NaiveIncremental => "NaiveInc",
            AlgKind::Basic => "BasicCTUP",
            AlgKind::Opt => "OptCTUP",
        }
    }

    /// Instantiates the algorithm over a prepared setup.
    ///
    /// # Panics
    ///
    /// Panics if the store reports a fault during initialization; benchmark
    /// setups run over clean in-memory stores, so a fault here is a bug in
    /// the harness, not a measurable condition.
    pub fn build(self, setup: &Setup) -> Box<dyn CtupAlgorithm> {
        let config = setup.params.config.clone();
        let store = setup.store.clone();
        let built: Result<Box<dyn CtupAlgorithm>, _> = match self {
            AlgKind::Naive => {
                NaiveRecompute::new(config, store, &setup.units).map(|a| Box::new(a) as _)
            }
            AlgKind::NaiveIncremental => {
                NaiveIncremental::new(config, store, &setup.units).map(|a| Box::new(a) as _)
            }
            AlgKind::Basic => BasicCtup::new(config, store, &setup.units).map(|a| Box::new(a) as _),
            AlgKind::Opt => OptCtup::new(config, store, &setup.units).map(|a| Box::new(a) as _),
        };
        built.unwrap_or_else(|e| panic!("benchmark store must be clean: {e}"))
    }
}

/// Aggregated costs of a measured update run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSummary {
    /// Updates processed.
    pub updates: u64,
    /// Average wall time per update, in nanoseconds.
    pub avg_update_nanos: f64,
    /// Average time spent maintaining in-memory state, per update.
    pub avg_maintain_nanos: f64,
    /// Average time spent accessing cells, per update.
    pub avg_access_nanos: f64,
    /// Cells accessed per update.
    pub cells_accessed_per_update: f64,
    /// Places loaded per update.
    pub places_loaded_per_update: f64,
    /// Lower-bound decrements applied per update.
    pub lb_decrements_per_update: f64,
    /// Lower-bound decrements suppressed by DOO, per update.
    pub lb_suppressed_per_update: f64,
    /// Maintained places at the end of the run.
    pub maintained_places: u64,
}

/// Feeds `updates` to `alg`, timing the whole run.
///
/// # Panics
///
/// Panics on a storage fault: measurements only make sense over a store
/// that served every read, so a fault invalidates the run.
pub fn measure_updates(alg: &mut dyn CtupAlgorithm, updates: &[LocationUpdate]) -> RunSummary {
    measure_updates_observed(alg, updates).0
}

/// Like [`measure_updates`], but also records every update's phase costs
/// into latency histograms so callers can report full distributions
/// (p50/p90/p99/p999) alongside the averages.
///
/// # Panics
///
/// Panics on a storage fault, for the same reason as [`measure_updates`].
pub fn measure_updates_observed(
    alg: &mut dyn CtupAlgorithm,
    updates: &[LocationUpdate],
) -> (RunSummary, LatencySnapshot) {
    let before = alg.metrics().clone();
    let mut latency = LatencySnapshot::default();
    let start = Instant::now();
    for &update in updates {
        match alg.handle_update(update) {
            Ok(stats) => {
                latency.update_maintain_nanos.record(stats.maintain_nanos);
                latency.update_access_nanos.record(stats.access_nanos);
                latency
                    .update_total_nanos
                    .record(stats.maintain_nanos.saturating_add(stats.access_nanos));
            }
            Err(e) => panic!("benchmark store must be clean: {e}"),
        }
    }
    let wall = start.elapsed().as_nanos() as f64;
    let metrics = alg.metrics().since(&before);
    let n = updates.len().max(1) as f64;
    let summary = RunSummary {
        updates: updates.len() as u64,
        avg_update_nanos: wall / n,
        avg_maintain_nanos: metrics.maintain_nanos as f64 / n,
        avg_access_nanos: metrics.access_nanos as f64 / n,
        cells_accessed_per_update: metrics.cells_accessed as f64 / n,
        places_loaded_per_update: metrics.places_loaded as f64 / n,
        lb_decrements_per_update: metrics.lb_decrements as f64 / n,
        lb_suppressed_per_update: metrics.lb_decrements_suppressed as f64 / n,
        maintained_places: metrics.maintained_now,
    };
    (summary, latency)
}

/// Batch size the scaling experiments feed [`ShardedCtup`] with: large
/// enough that a batch's cell accesses spread across all shards (the
/// engine's design point — the barrier is paid once per batch, and the
/// per-page disk latency is absorbed `N`-wide), small enough that the
/// reported per-update latency is still a fine-grained figure.
pub const SHARD_BATCH: usize = 32;

/// Like [`measure_updates_observed`] but drives the sharded engine
/// through its batched-ingest path in chunks of `batch_size`. Each
/// batch's [`UpdateStats`](ctup_core::algorithm::UpdateStats) carry the
/// critical path (the slowest shard), so the recorded per-update figures
/// are the batch's critical path amortized over its updates — the number
/// that shrinks as shards absorb disk latency in parallel. One sample
/// per update is recorded, keeping histogram counts comparable with the
/// sequential runs.
///
/// # Panics
///
/// Panics on a storage fault, for the same reason as [`measure_updates`].
pub fn measure_batched_observed(
    alg: &mut ShardedCtup,
    updates: &[LocationUpdate],
    batch_size: usize,
) -> (RunSummary, LatencySnapshot) {
    let before = alg.metrics().clone();
    let mut latency = LatencySnapshot::default();
    let start = Instant::now();
    for chunk in updates.chunks(batch_size.max(1)) {
        match alg.handle_batch(chunk.to_vec()) {
            Ok(stats) => {
                let per = chunk.len() as u64;
                let maintain = stats.maintain_nanos / per;
                let access = stats.access_nanos / per;
                for _ in 0..per {
                    latency.update_maintain_nanos.record(maintain);
                    latency.update_access_nanos.record(access);
                    latency
                        .update_total_nanos
                        .record(maintain.saturating_add(access));
                }
            }
            Err(e) => panic!("benchmark store must be clean: {e}"),
        }
    }
    let wall = start.elapsed().as_nanos() as f64;
    let metrics = alg.metrics().since(&before);
    let n = updates.len().max(1) as f64;
    let summary = RunSummary {
        updates: updates.len() as u64,
        avg_update_nanos: wall / n,
        avg_maintain_nanos: metrics.maintain_nanos as f64 / n,
        avg_access_nanos: metrics.access_nanos as f64 / n,
        cells_accessed_per_update: metrics.cells_accessed as f64 / n,
        places_loaded_per_update: metrics.places_loaded as f64 / n,
        lb_decrements_per_update: metrics.lb_decrements as f64 / n,
        lb_suppressed_per_update: metrics.lb_decrements_suppressed as f64 / n,
        maintained_places: metrics.maintained_now,
    };
    (summary, latency)
}

/// Runs every algorithm over the same fresh workload and returns one
/// unified observability snapshot per algorithm.
///
/// Each algorithm gets its own [`build_setup`] (same `params`, same seed)
/// so the storage counters and disk-read histogram it reports are its own
/// rather than an accumulation across competitors.
pub fn snapshot_algorithms(params: &SetupParams, updates: usize) -> Vec<ctup_core::Snapshot> {
    let kinds = [
        AlgKind::Naive,
        AlgKind::NaiveIncremental,
        AlgKind::Basic,
        AlgKind::Opt,
    ];
    kinds
        .iter()
        .map(|kind| {
            let mut setup = build_setup(params.clone());
            let stream = setup.next_updates(updates);
            let mut alg = kind.build(&setup);
            let (_, mut latency) = measure_updates_observed(alg.as_mut(), &stream);
            latency
                .disk_read_nanos
                .merge(&setup.store.stats().read_latency());
            ctup_core::Snapshot::new(
                kind.label(),
                alg.metrics().clone(),
                setup.store.stats().snapshot(),
                latency,
            )
        })
        .collect()
}

/// One sharded-engine configuration of the scaling experiment.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Shards, the calling thread running one.
    pub shards: u32,
    /// Cell-read cache budget in pages (0 disables the cache).
    pub cache_pages: u64,
}

impl ShardConfig {
    /// Snapshot label, e.g. `Sharded-4x-cache512` / `Sharded-1x-nocache`.
    pub fn label(&self) -> String {
        if self.cache_pages == 0 {
            format!("Sharded-{}x-nocache", self.shards)
        } else {
            format!("Sharded-{}x-cache{}", self.shards, self.cache_pages)
        }
    }
}

/// The shard-scaling matrix `reproduce --sharded-out` runs: 1/2/4/8 shards, each
/// with the cell-read cache off and on (512 pages holds the whole default
/// 10×10 grid with room to spare).
pub fn shard_scaling_matrix() -> Vec<ShardConfig> {
    let mut configs = Vec::new();
    for shards in [1u32, 2, 4, 8] {
        for cache_pages in [0u64, 512] {
            configs.push(ShardConfig {
                shards,
                cache_pages,
            });
        }
    }
    configs
}

/// Runs the sharded engine over the Table III workload on a simulated
/// paged disk (`page_latency_nanos` busy-waited per page) for every config,
/// returning one unified snapshot per config.
///
/// Each config gets a fresh workload and store (same seed) so its storage
/// counters — including the cache hit/miss/eviction counters — are its
/// own. Updates are fed through batched ingest in chunks of `batch_size`
/// ([`measure_batched_observed`]), so latency is each batch's critical
/// path (the slowest shard) amortized per update and the histograms
/// shrink as shards absorb the disk latency in parallel; the disk-read
/// histogram is merged in once from the store.
///
/// # Panics
///
/// Panics if the store reports a fault: the benchmark disk is clean, so a
/// fault is a harness bug, not a measurable condition.
pub fn snapshot_sharded(
    params: &SetupParams,
    updates: usize,
    page_latency_nanos: u64,
    batch_size: usize,
    configs: &[ShardConfig],
) -> Vec<ctup_core::Snapshot> {
    configs
        .iter()
        .map(|cfg| {
            let wl_params = WorkloadParams {
                num_units: params.num_units,
                places: PlaceGenConfig {
                    count: params.num_places,
                    ..PlaceGenConfig::default()
                },
                seed: params.seed,
                tick_dt: params.tick_dt,
                ..WorkloadParams::default()
            };
            let mut workload = Workload::generate(wl_params);
            let grid = Grid::unit_square(params.granularity);
            let base: Arc<dyn PlaceStore> = Arc::new(PagedDiskStore::build(
                grid,
                workload.places_vec(),
                page_latency_nanos,
            ));
            let store: Arc<dyn PlaceStore> = if cfg.cache_pages == 0 {
                base.clone()
            } else {
                Arc::new(CachedStore::new(base.clone(), cfg.cache_pages))
            };
            let units = workload.unit_positions();
            let mut alg = ShardedCtup::new(params.config.clone(), store, &units, cfg.shards)
                .unwrap_or_else(|e| panic!("benchmark store must be clean: {e}"));
            let batch = stream(workload.next_updates(updates));
            let (_, mut latency) = measure_batched_observed(&mut alg, &batch, batch_size);
            latency.disk_read_nanos.merge(&base.stats().read_latency());
            ctup_core::Snapshot::new(
                cfg.label(),
                alg.metrics().clone(),
                base.stats().snapshot(),
                latency,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_setup_builds_and_streams() {
        let params = SetupParams {
            num_units: 10,
            num_places: 200,
            granularity: 5,
            config: CtupConfig::with_k(3),
            tick_dt: 1.0,
            seed: 1,
        };
        let mut setup = build_setup(params);
        assert_eq!(setup.units.len(), 10);
        assert_eq!(setup.store.num_places(), 200);
        let updates = setup.next_updates(50);
        assert_eq!(updates.len(), 50);
        let mut alg = AlgKind::Opt.build(&setup);
        let summary = measure_updates(alg.as_mut(), &updates);
        assert_eq!(summary.updates, 50);
        assert!(summary.avg_update_nanos > 0.0);
    }

    #[test]
    fn observed_run_fills_latency_histograms() {
        let params = SetupParams {
            num_units: 10,
            num_places: 200,
            granularity: 5,
            config: CtupConfig::with_k(3),
            tick_dt: 1.0,
            seed: 7,
        };
        let mut setup = build_setup(params);
        let updates = setup.next_updates(40);
        let mut alg = AlgKind::Basic.build(&setup);
        let (summary, latency) = measure_updates_observed(alg.as_mut(), &updates);
        assert_eq!(summary.updates, 40);
        assert_eq!(latency.update_total_nanos.count(), 40);
        assert_eq!(latency.update_maintain_nanos.count(), 40);
        assert_eq!(latency.update_access_nanos.count(), 40);
    }

    #[test]
    fn snapshot_algorithms_covers_every_kind() {
        let params = SetupParams {
            num_units: 8,
            num_places: 150,
            granularity: 5,
            config: CtupConfig::with_k(3),
            tick_dt: 1.0,
            seed: 3,
        };
        let snaps = snapshot_algorithms(&params, 30);
        let names: Vec<&str> = snaps.iter().map(|s| s.algorithm.as_str()).collect();
        assert_eq!(names, ["Naive", "NaiveInc", "BasicCTUP", "OptCTUP"]);
        for snap in &snaps {
            assert_eq!(snap.latency.update_total_nanos.count(), 30);
            assert!(snap.metrics.updates_processed >= 30);
            let json = snap.render_json();
            assert!(json.contains("\"p99\""), "{json}");
        }
    }

    #[test]
    fn snapshot_sharded_covers_the_matrix() {
        let params = SetupParams {
            num_units: 8,
            num_places: 150,
            granularity: 5,
            config: CtupConfig::with_k(3),
            tick_dt: 1.0,
            seed: 5,
        };
        let configs = [
            ShardConfig {
                shards: 1,
                cache_pages: 0,
            },
            ShardConfig {
                shards: 2,
                cache_pages: 64,
            },
        ];
        let snaps = snapshot_sharded(&params, 25, 0, 8, &configs);
        let names: Vec<&str> = snaps.iter().map(|s| s.algorithm.as_str()).collect();
        assert_eq!(names, ["Sharded-1x-nocache", "Sharded-2x-cache64"]);
        for snap in &snaps {
            assert_eq!(snap.latency.update_total_nanos.count(), 25);
            assert!(snap.metrics.updates_processed >= 25);
        }
        // The uncached config never consults the cache; the cached one
        // funnels every lower-level read through it.
        assert_eq!(
            snaps[0].storage.cache_hits + snaps[0].storage.cache_misses,
            0
        );
        assert!(snaps[1].storage.cache_hits + snaps[1].storage.cache_misses > 0);
        assert_eq!(snaps[1].storage.cell_reads, snaps[1].storage.cache_misses);
    }

    #[test]
    fn all_algorithms_agree_on_small_workload() {
        let params = SetupParams {
            num_units: 8,
            num_places: 150,
            granularity: 6,
            config: CtupConfig::with_k(5),
            tick_dt: 1.0,
            seed: 42,
        };
        let mut setup = build_setup(params);
        let updates = setup.next_updates(100);
        let mut algs: Vec<Box<dyn CtupAlgorithm>> = vec![
            AlgKind::Naive.build(&setup),
            AlgKind::NaiveIncremental.build(&setup),
            AlgKind::Basic.build(&setup),
            AlgKind::Opt.build(&setup),
        ];
        for &update in &updates {
            for alg in algs.iter_mut() {
                alg.handle_update(update).expect("clean store");
            }
            let reference: Vec<i64> = algs[0].result().iter().map(|e| e.safety).collect();
            for alg in &algs[1..] {
                let got: Vec<i64> = alg.result().iter().map(|e| e.safety).collect();
                assert_eq!(got, reference, "{} diverged", alg.name());
            }
        }
    }
}
