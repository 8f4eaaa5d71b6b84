//! Sharded parallel CTUP execution engine.
//!
//! Grid cells are partitioned across `N` shards by a [`ShardMap`]:
//! contiguous Z-order rank ranges balanced by cell load, which keeps each
//! update's touched cells on few shards. Each shard runs a full
//! [`OptCtup`] restricted to its own cells via
//! [`OptCtup::new_with_shard_map`]. Location updates are ingested in
//! batches and broadcast to every shard — the unit table is global and
//! O(1) per update to maintain — but all per-cell work (bound maintenance,
//! cell accesses, safety recomputation) is done only by the owning shard,
//! so the expensive part of the update runs `N`-wide in parallel and
//! simulated-disk latency is paid on `N` spindles at once.
//!
//! **Exactness.** A shard is a sequential `OptCtup` over the sub-universe
//! of places in its cells, so its local result is the exact local top-k.
//! Every global top-k entry has at most `k − 1`
//! entries below it globally, hence at most `k − 1` below it in its own
//! shard — so it appears in that shard's local top-k, and the global
//! result is exactly the k smallest `(safety, place id)` pairs of the
//! concatenated local results: the canonical answer, with the canonical
//! `SK` as the k-th entry of the merged list. Against the sequential
//! `OptCtup` that means identical `SK`, identical safety sequence, and
//! identical entries strictly below `SK`; the tail tied *at* `SK` may be
//! a different (equally true) selection, because the sequential scheme
//! only maintains a place once its cell's bound falls strictly below
//! `SK` and so picks among `SK`-tied places by access history. A
//! single-shard run agrees exactly (DESIGN.md §13 gives the argument in
//! full). One barrier per batch
//! keeps timestamps aligned: the engine reports only after every shard
//! has finished the batch.
//!
//! **Threads.** The thread that calls the engine runs shard 0 itself, and
//! `N − 1` worker threads (`ctup-shard-1` … `ctup-shard-{N−1}`) run the
//! rest: a batch goes to the workers, the caller applies it to shard 0,
//! then takes the workers' replies — fork-join with the parent doing one
//! share of the work instead of parking while the workers do all of it.
//! A 1-shard engine runs no thread. Every shard applies a batch through
//! the same function, and every reply, shard 0's included, goes through
//! the same barrier step.
//!
//! Threading is `std::thread` + `std::sync::mpsc` only, in keeping with
//! the workspace's zero-dependency discipline. Each shard owns an
//! [`AtomicHistogram`] latency channel; the engine's
//! [`CtupAlgorithm::internal_latency`] merges them into one
//! [`ctup_obs::LatencySnapshot`].

mod shardmap;

pub use shardmap::ShardMap;

use crate::algorithm::{CtupAlgorithm, InitStats, UpdateStats};
use crate::config::CtupConfig;
use crate::metrics::Metrics;
use crate::opt::OptCtup;
use crate::types::{LocationUpdate, Safety, TopKEntry, UnitId};
use ctup_obs::{AtomicHistogram, LatencySnapshot};
use ctup_spatial::{convert, CellLayout, Point};
use ctup_storage::{PlaceStore, StorageError};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Per-shard latency histograms, shared with the shard's thread. Recorded
/// per update, merged into the unified snapshot on demand.
#[derive(Debug, Default)]
struct ShardLatency {
    update_total: AtomicHistogram,
    update_maintain: AtomicHistogram,
    update_access: AtomicHistogram,
}

/// Engine → worker messages.
enum ToShard {
    /// Process every update of the batch in order, then reply.
    Batch(Arc<Vec<LocationUpdate>>),
    /// Exit the worker loop.
    Shutdown,
}

/// A shard's reply, built once after construction (with
/// `safeties_computed` set) and once per processed batch. Workers send it
/// over the reply channel; shard 0's is handed over on the calling thread.
#[derive(Default)]
struct FromShard {
    shard: u32,
    /// First storage error hit, if any; the shard stops mid-batch on it.
    error: Option<StorageError>,
    /// The shard's local result (exact over its own cells), or `None` when
    /// it is unchanged since this shard's previous reply — the coordinator
    /// keeps the last copy, so an unchanged shard skips the clone and, when
    /// *no* shard changed, the whole merge is skipped.
    result: Option<Vec<TopKEntry>>,
    /// The shard's cumulative metrics.
    metrics: Metrics,
    /// Aggregated per-batch costs (zero in the init reply).
    stats: UpdateStats,
    /// Safeties computed during initialization (zero in batch replies).
    safeties_computed: u64,
}

/// One shard's engine: the calling thread holds shard 0's, each worker
/// thread holds its own.
struct Shard {
    id: u32,
    alg: OptCtup,
    latency: Arc<ShardLatency>,
}

impl Shard {
    /// The reply that announces a freshly built shard.
    fn init_reply(&self) -> FromShard {
        FromShard {
            shard: self.id,
            error: None,
            result: Some(self.alg.result()),
            metrics: self.alg.metrics().clone(),
            stats: UpdateStats::default(),
            safeties_computed: self.alg.init_stats().safeties_computed,
        }
    }

    /// Applies a batch to this shard, in order, stopping at the first
    /// storage error — the one way a batch is applied, on every thread.
    fn apply(&mut self, updates: &[LocationUpdate]) -> FromShard {
        let mut stats = UpdateStats::default();
        let mut error = None;
        let mut changed = false;
        for &update in updates {
            match self.alg.handle_update(update) {
                Ok(s) => {
                    self.latency.update_total.record(s.total_nanos());
                    self.latency.update_maintain.record(s.maintain_nanos);
                    self.latency.update_access.record(s.access_nanos);
                    stats.maintain_nanos += s.maintain_nanos;
                    stats.access_nanos += s.access_nanos;
                    stats.cells_accessed += s.cells_accessed;
                    changed |= s.result_changed;
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        FromShard {
            shard: self.id,
            error,
            // Unchanged local result ⇒ the coordinator's cached copy is
            // still exact: skip the clone and signal that the merge may be
            // skippable.
            result: changed.then(|| self.alg.result()),
            metrics: self.alg.metrics().clone(),
            stats,
            safeties_computed: 0,
        }
    }
}

/// A worker thread; dropping the handle shuts the worker down and joins it,
/// which lets the batch it is running finish first.
struct ShardHandle {
    tx: Sender<ToShard>,
    join: Option<JoinHandle<()>>,
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        let _ = self.tx.send(ToShard::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// What one barrier collected: the batch's costs (summed cells, slowest
/// shard's phase nanos), the init safeties, whether any local result
/// changed, and the first storage error.
#[derive(Default)]
struct Barrier {
    stats: UpdateStats,
    safeties_computed: u64,
    changed: bool,
    error: Option<StorageError>,
}

/// The sharded parallel CTUP engine. Implements [`CtupAlgorithm`] (one
/// update = a batch of one); [`ShardedCtup::handle_batch`] is the batched
/// ingest path that amortizes the per-batch barrier.
pub struct ShardedCtup {
    config: CtupConfig,
    store: Arc<dyn PlaceStore>,
    /// The cell → shard assignment every shard filters by.
    shards: Arc<ShardMap>,
    /// Shard 0, run on the calling thread.
    local: Shard,
    /// Shards 1..N, one thread each.
    workers: Vec<ShardHandle>,
    reply_rx: Receiver<FromShard>,
    latencies: Vec<Arc<ShardLatency>>,
    /// Engine-side mirror of unit positions (each shard holds the same
    /// global unit table; this avoids a round-trip for `unit_position`).
    unit_positions: Vec<Point>,
    shard_metrics: Vec<Metrics>,
    /// Latest local result of every shard; replies carry `None` when a
    /// shard's result is unchanged, so the merge always reads from here.
    shard_results: Vec<Vec<TopKEntry>>,
    /// Batches whose merge was skipped because no shard's local result
    /// changed (the merged result is a pure function of the local ones).
    merge_skips: u64,
    last_result: Vec<TopKEntry>,
    last_sk: Option<Safety>,
    metrics: Metrics,
    init_stats: InitStats,
}

impl std::fmt::Debug for ShardedCtup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCtup")
            .field("config", &self.config)
            .field("num_shards", &self.num_shards())
            .finish_non_exhaustive()
    }
}

impl ShardedCtup {
    /// Builds the engine with `num_shards` shards over `store`, cells
    /// partitioned into contiguous Z-order ranges balanced by per-cell page
    /// load at build time ([`ShardMap::layout_ranges`]). The calling thread
    /// builds and later runs shard 0; `num_shards − 1` worker threads build
    /// and run the rest, concurrently with it. A storage fault during any
    /// shard's initialization fails the whole construction (the workers are
    /// shut down and joined first).
    ///
    /// # Panics
    /// Panics if `num_shards` is zero, or if a worker thread cannot be
    /// spawned (OS resource exhaustion at construction time).
    pub fn new(
        config: CtupConfig,
        store: Arc<dyn PlaceStore>,
        initial_units: &[Point],
        num_shards: u32,
    ) -> Result<Self, StorageError> {
        config.validate();
        let shards = Arc::new(ShardMap::layout_ranges(store.grid(), num_shards, |c| {
            store.cell_pages(c)
        }));
        let start = Instant::now();
        let io_before = store.stats().snapshot();
        // Unbounded: replies are barrier-paced, at most one FromShard per shard is in flight per batch
        let (reply_tx, reply_rx) = std::sync::mpsc::channel::<FromShard>();
        let units: Arc<Vec<Point>> = Arc::new(initial_units.to_vec());
        let latencies: Vec<Arc<ShardLatency>> = (0..num_shards).map(|_| Arc::default()).collect();

        let mut workers = Vec::with_capacity(latencies.len().saturating_sub(1));
        for shard in 1..num_shards {
            // Unbounded: the coordinator sends one ToShard then blocks on the reply barrier, so depth <= 1
            let (tx, rx) = std::sync::mpsc::channel::<ToShard>();
            let worker_cfg = config.clone();
            let worker_store = store.clone();
            let worker_units = units.clone();
            let worker_latency = latencies[convert::index(shard)].clone();
            let worker_reply = reply_tx.clone();
            let worker_shards = shards.clone();
            #[expect(
                clippy::expect_used,
                reason = "thread spawn fails only on OS resource exhaustion at construction — mirrors the supervisor's spawn"
            )]
            let join = std::thread::Builder::new()
                .name(format!("ctup-shard-{shard}"))
                .spawn(move || {
                    let built = OptCtup::new_with_shard_map(
                        worker_cfg,
                        worker_store,
                        &worker_units,
                        shard,
                        worker_shards,
                    );
                    shard_worker(shard, built, worker_latency, &rx, &worker_reply);
                })
                .expect("spawn ctup-shard worker thread");
            workers.push(ShardHandle {
                tx,
                join: Some(join),
            });
        }
        drop(reply_tx);

        // A failed shard 0 returns here; dropping `workers` joins them.
        let local = Shard {
            id: 0,
            alg: OptCtup::new_with_shard_map(
                config.clone(),
                store.clone(),
                initial_units,
                0,
                shards.clone(),
            )?,
            latency: latencies[0].clone(),
        };
        let mut this = ShardedCtup {
            unit_positions: initial_units.to_vec(),
            shard_metrics: vec![Metrics::default(); latencies.len()],
            shard_results: vec![Vec::new(); latencies.len()],
            merge_skips: 0,
            last_result: Vec::new(),
            last_sk: None,
            metrics: Metrics::default(),
            init_stats: InitStats::default(),
            config,
            store,
            shards,
            local,
            workers,
            reply_rx,
            latencies,
        };

        // Init barrier: one reply per shard, carrying its initial local
        // result. A failed worker fails construction; dropping `this`
        // shuts the rest down.
        let init = this.barrier(this.local.init_reply());
        if let Some(e) = init.error {
            return Err(e);
        }
        this.merge();
        this.rebuild_merged_metrics();
        this.init_stats = InitStats {
            wall: start.elapsed(),
            storage: this.store.stats().snapshot().since(&io_before),
            safeties_computed: init.safeties_computed,
        };
        Ok(this)
    }

    /// [`ShardedCtup::new`] under its old name: it exists only for the
    /// benchmark adapter (`ledger/src/sut.rs`) and goes in the ledger's
    /// claim-null PR.
    ///
    /// # Panics
    /// As [`ShardedCtup::new`].
    pub fn new_with_layout(
        config: CtupConfig,
        store: Arc<dyn PlaceStore>,
        initial_units: &[Point],
        num_shards: u32,
        _layout: CellLayout,
    ) -> Result<Self, StorageError> {
        Self::new(config, store, initial_units, num_shards)
    }

    /// Number of shards (the calling thread's shard 0 plus one per worker).
    pub fn num_shards(&self) -> usize {
        self.workers.len() + 1
    }

    /// The cell → shard assignment the engine runs under (for fan-out
    /// accounting in benchmarks and tests).
    pub fn shard_map(&self) -> &ShardMap {
        &self.shards
    }

    /// Batches whose global merge was skipped because no shard's local
    /// result changed — the merged top-k is a pure function of the local
    /// results, so the previous one was reused verbatim.
    pub fn merge_skips(&self) -> u64 {
        self.merge_skips
    }

    /// The lower-level store the engine runs over.
    pub fn store(&self) -> Arc<dyn PlaceStore> {
        self.store.clone()
    }

    /// Processes a batch of updates: send it to every worker, apply it to
    /// shard 0 on the calling thread, one barrier, then an exact global
    /// merge. The returned [`UpdateStats`] aggregates the batch:
    /// `cells_accessed` sums over shards, the phase nanos are the slowest
    /// shard's (the critical path — the batch is not done before its
    /// slowest shard is), `result_changed` compares against the result of
    /// the previous batch.
    ///
    /// On a storage error in any shard every reply is still taken before
    /// the error is returned; the engine, like the sequential schemes, is
    /// left mid-batch and must be discarded.
    pub fn handle_batch(
        &mut self,
        updates: Vec<LocationUpdate>,
    ) -> Result<UpdateStats, StorageError> {
        if updates.is_empty() {
            return Ok(UpdateStats::default());
        }
        let count = convert::count64(updates.len());
        for update in &updates {
            if let Some(pos) = self.unit_positions.get_mut(update.unit.index()) {
                *pos = update.new;
            }
        }
        let batch = Arc::new(updates);
        for worker in &self.workers {
            #[expect(
                clippy::panic,
                reason = "a shard death is a worker panic — propagating it trips the supervisor boundary exactly like a sequential worker panic"
            )]
            if worker.tx.send(ToShard::Batch(batch.clone())).is_err() {
                panic!("ctup shard worker died before the batch was sent");
            }
        }
        let own = self.local.apply(&batch);
        let done = self.barrier(own);
        if let Some(e) = done.error {
            return Err(e);
        }

        // Merge skip: the merged result is a deterministic function of the
        // local results, so when every shard reported "unchanged" (no local
        // safety change at or below its SK view) the previous merged top-k
        // and SK are still exact — no sort, no truncate, no comparison.
        let changed = if done.changed {
            self.merge()
        } else {
            self.merge_skips += 1;
            false
        };

        self.metrics.updates_processed += count;
        if changed {
            self.metrics.result_changes += 1;
        }
        self.rebuild_merged_metrics();
        let mut batch_stats = done.stats;
        batch_stats.result_changed = changed;
        Ok(batch_stats)
    }

    /// The barrier: takes shard 0's reply `own`, then one reply from every
    /// worker, folding each into the per-shard views.
    fn barrier(&mut self, own: FromShard) -> Barrier {
        let mut done = Barrier::default();
        let mut next = Some(own);
        for _ in 0..self.num_shards() {
            let reply = match next.take() {
                Some(reply) => reply,
                None => self.recv_reply(),
            };
            if let Some(e) = reply.error {
                done.error.get_or_insert(e);
            }
            done.safeties_computed += reply.safeties_computed;
            done.stats.cells_accessed += reply.stats.cells_accessed;
            done.stats.maintain_nanos = done.stats.maintain_nanos.max(reply.stats.maintain_nanos);
            done.stats.access_nanos = done.stats.access_nanos.max(reply.stats.access_nanos);
            self.shard_metrics[convert::index(reply.shard)] = reply.metrics;
            if let Some(result) = reply.result {
                done.changed = true;
                self.shard_results[convert::index(reply.shard)] = result;
            }
        }
        done
    }

    /// Re-merges the per-shard results into the global result and `SK`;
    /// returns whether the result changed.
    fn merge(&mut self) -> bool {
        let merged: Vec<TopKEntry> = self.shard_results.iter().flatten().copied().collect();
        let (result, sk) = merge_results(merged, self.config.k());
        let changed = result != self.last_result;
        self.last_result = result;
        self.last_sk = sk;
        changed
    }

    /// Receives one worker reply; a closed channel means every worker died
    /// without replying, which only a worker panic can cause.
    fn recv_reply(&self) -> FromShard {
        match self.reply_rx.recv() {
            Ok(reply) => reply,
            #[expect(
                clippy::panic,
                reason = "a closed reply channel is a shard panic — propagate it like any worker panic, to the supervisor boundary"
            )]
            Err(_) => panic!("ctup shard worker died without replying"),
        }
    }

    /// Recomputes the engine-level metrics view from the latest cumulative
    /// per-shard metrics: logical counters and phase nanos sum across
    /// shards (total work done), the gauges sum to the global state size,
    /// and `maintained_peak` tracks the peak of the summed gauge.
    /// `updates_processed`/`result_changes` are engine-owned (each update
    /// is one update, no matter how many shards saw it).
    fn rebuild_merged_metrics(&mut self) {
        let sum = |f: fn(&Metrics) -> u64| -> u64 {
            self.shard_metrics
                .iter()
                .map(f)
                .fold(0, u64::saturating_add)
        };
        self.metrics.cells_accessed = sum(|m| m.cells_accessed);
        self.metrics.places_loaded = sum(|m| m.places_loaded);
        self.metrics.lb_increments = sum(|m| m.lb_increments);
        self.metrics.lb_decrements = sum(|m| m.lb_decrements);
        self.metrics.lb_decrements_suppressed = sum(|m| m.lb_decrements_suppressed);
        self.metrics.cells_darkened = sum(|m| m.cells_darkened);
        self.metrics.maintain_nanos = sum(|m| m.maintain_nanos);
        self.metrics.access_nanos = sum(|m| m.access_nanos);
        self.metrics.dechash_len = sum(|m| m.dechash_len);
        self.metrics.set_maintained(sum(|m| m.maintained_now));
    }
}

impl CtupAlgorithm for ShardedCtup {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn config(&self) -> &CtupConfig {
        &self.config
    }

    fn handle_update(&mut self, update: LocationUpdate) -> Result<UpdateStats, StorageError> {
        self.handle_batch(vec![update])
    }

    fn result(&self) -> Vec<TopKEntry> {
        self.last_result.clone()
    }

    fn sk(&self) -> Option<Safety> {
        self.last_sk
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn init_stats(&self) -> &InitStats {
        &self.init_stats
    }

    fn unit_position(&self, unit: UnitId) -> Point {
        self.unit_positions[unit.index()]
    }

    fn num_units(&self) -> usize {
        self.unit_positions.len()
    }

    /// The merged per-shard update histograms, without the disk-read
    /// series: the caller folds that in itself and must not get it twice.
    fn internal_latency(&self) -> Option<LatencySnapshot> {
        let mut snap = LatencySnapshot::default();
        for shard in &self.latencies {
            snap.update_total_nanos
                .merge(&shard.update_total.snapshot());
            snap.update_maintain_nanos
                .merge(&shard.update_maintain.snapshot());
            snap.update_access_nanos
                .merge(&shard.update_access.snapshot());
        }
        Some(snap)
    }
}

/// Sorts the concatenated local results into the global `(safety, place)`
/// order and cuts them down to the top-k; returns the result and the
/// global `SK`.
///
/// Every global top-k entry appears in its shard's local top-k
/// (at most `k − 1` entries precede it anywhere, so at most `k − 1` in its
/// shard), hence the k smallest merged pairs are the canonical top-k —
/// the sequential result up to the choice of entries tied at `SK` (see
/// the module docs). The union holds at least `min(k, Σ nₛ)` entries, so
/// fewer than `k` merged entries means fewer than `k` places exist and
/// `SK` is `None`, also matching the sequential scheme.
fn merge_results(mut merged: Vec<TopKEntry>, k: usize) -> (Vec<TopKEntry>, Option<Safety>) {
    merged.sort_unstable_by_key(|e| (e.safety, e.place));
    let sk = merged.get(k - 1).map(|e| e.safety);
    merged.truncate(k);
    (merged, sk)
}

/// A worker's loop: replies with its built shard's initial state (or its
/// init error), then serves batches until shutdown.
fn shard_worker(
    id: u32,
    built: Result<OptCtup, StorageError>,
    latency: Arc<ShardLatency>,
    rx: &Receiver<ToShard>,
    tx: &Sender<FromShard>,
) {
    let mut shard = match built {
        Ok(alg) => Shard { id, alg, latency },
        Err(e) => {
            let _ = tx.send(FromShard {
                shard: id,
                error: Some(e),
                ..FromShard::default()
            });
            return;
        }
    };
    if tx.send(shard.init_reply()).is_err() {
        return; // engine dropped mid-construction
    }
    while let Ok(ToShard::Batch(updates)) = rx.recv() {
        if tx.send(shard.apply(&updates)).is_err() {
            return; // engine dropped mid-batch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::types::{Place, PlaceId};
    use ctup_spatial::Grid;
    use ctup_storage::CellLocalStore;

    /// Miri executes threads faithfully but slowly; keep the workload tiny
    /// there while CI and local runs get the full sweep.
    const STEPS: usize = if cfg!(miri) { 12 } else { 200 };

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

    fn units() -> Vec<Point> {
        (0..10)
            .map(|i| Point::new(0.05 + 0.09 * i as f64, 0.95 - 0.085 * i as f64))
            .collect()
    }

    fn fresh_store() -> Arc<dyn PlaceStore> {
        Arc::new(CellLocalStore::build(
            Grid::unit_square(8),
            grid_place_set(),
        ))
    }

    fn updates(steps: usize, seed: u64) -> Vec<LocationUpdate> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..steps)
            .map(|_| LocationUpdate {
                unit: UnitId((next() * 10.0) as u32 % 10),
                new: Point::new(next(), next()),
            })
            .collect()
    }

    /// The module-doc contract: identical `SK`, identical safety
    /// sequence, identical entries strictly below `SK`; single-shard runs
    /// must be exactly equal. The tail tied at `SK` is checked against
    /// the oracle by the callers that track positions.
    fn assert_equivalent(seq: &OptCtup, sharded: &ShardedCtup, num_shards: u32, label: &str) {
        let sk = seq.sk();
        assert_eq!(sk, sharded.sk(), "{label}: SK");
        let seq_result = seq.result();
        let sharded_result = sharded.result();
        if num_shards <= 1 {
            assert_eq!(seq_result, sharded_result, "{label}: single shard");
            return;
        }
        let safeties = |r: &[TopKEntry]| r.iter().map(|e| e.safety).collect::<Vec<_>>();
        assert_eq!(
            safeties(&seq_result),
            safeties(&sharded_result),
            "{label}: safety sequence"
        );
        let strictly_below = |r: &[TopKEntry]| -> Vec<TopKEntry> {
            r.iter()
                .filter(|e| sk.is_none_or(|sk| e.safety < sk))
                .copied()
                .collect()
        };
        assert_eq!(
            strictly_below(&seq_result),
            strictly_below(&sharded_result),
            "{label}: entries strictly below SK"
        );
    }

    /// Z-range sharding stays oracle-exact against the sequential `OptCtup`
    /// after every update, at every shard count, over two streams.
    #[test]
    fn matches_sequential_opt_per_update() {
        for (num_shards, seed) in [1u32, 2, 3, 7]
            .into_iter()
            .flat_map(|n| [(n, 0x51ED), (n, 0x20DE)])
        {
            let config = CtupConfig::with_k(5);
            let oracle = Oracle::new(grid_place_set());
            let mut positions = units();
            let mut seq = OptCtup::new(config.clone(), fresh_store(), &positions).expect("init");
            let mut sharded =
                ShardedCtup::new(config, fresh_store(), &positions, num_shards).expect("init");
            // The calling thread runs shard 0: N shards spawn N − 1 workers.
            assert_eq!(sharded.workers.len(), convert::index(num_shards) - 1);
            assert_equivalent(&seq, &sharded, num_shards, "init");
            for update in updates(STEPS, seed + u64::from(num_shards)) {
                seq.handle_update(update).expect("seq update");
                sharded.handle_update(update).expect("sharded update");
                positions[update.unit.index()] = update.new;
                let label = format!("{num_shards} shards, seed {seed:#x}");
                assert_equivalent(&seq, &sharded, num_shards, &label);
            }
            oracle.assert_result_matches(&sharded.result(), &positions, 0.1, 5);
        }
    }

    /// Merge-skip satellite: a batch in which no shard's local result
    /// changes reuses the previous merged top-k (and SK) without
    /// re-merging — and the reused result is still oracle-exact.
    #[test]
    fn unchanged_batches_reuse_the_merged_result() {
        let config = CtupConfig::with_k(5);
        let mut positions = units();
        let mut seq = OptCtup::new(config.clone(), fresh_store(), &positions).expect("init");
        let mut sharded = ShardedCtup::new(config, fresh_store(), &positions, 3).expect("init");
        for update in updates(STEPS.min(40), 0x5C1B) {
            seq.handle_update(update).expect("seq update");
            sharded.handle_update(update).expect("sharded update");
            positions[update.unit.index()] = update.new;
        }
        // Re-announcing every unit's current position moves nothing, so no
        // safety changes; by the second round the DecHash has absorbed the
        // decrease-once ops too and every shard reports "unchanged".
        let noop: Vec<LocationUpdate> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| LocationUpdate {
                unit: UnitId(convert::id32(i)),
                new: p,
            })
            .collect();
        for &u in &noop {
            seq.handle_update(u).expect("seq noop");
        }
        sharded.handle_batch(noop.clone()).expect("noop batch");
        let before = sharded.result();
        let sk_before = sharded.sk();
        let skips_before = sharded.merge_skips();
        for &u in &noop {
            seq.handle_update(u).expect("seq noop");
        }
        sharded.handle_batch(noop).expect("noop batch");
        assert!(
            sharded.merge_skips() > skips_before,
            "second no-op batch should skip the merge"
        );
        assert_eq!(sharded.result(), before, "reused result drifted");
        assert_eq!(sharded.sk(), sk_before, "reused SK drifted");
        assert_equivalent(&seq, &sharded, 3, "after skipped merges");
        let oracle = Oracle::new(grid_place_set());
        oracle.assert_result_matches(&sharded.result(), &positions, 0.1, 5);
    }

    #[test]
    fn batched_ingest_matches_sequential_at_batch_boundaries() {
        let config = CtupConfig::with_k(5);
        let mut seq = OptCtup::new(config.clone(), fresh_store(), &units()).expect("init");
        let mut sharded = ShardedCtup::new(config, fresh_store(), &units(), 3).expect("init");
        for (batch_no, batch) in updates(STEPS, 0xBA7C).chunks(8).enumerate() {
            for &u in batch {
                seq.handle_update(u).expect("seq update");
            }
            sharded.handle_batch(batch.to_vec()).expect("batch");
            assert_equivalent(&seq, &sharded, 3, &format!("batch {batch_no}"));
        }
        assert_eq!(
            sharded.metrics().updates_processed,
            seq.metrics().updates_processed
        );
    }

    #[test]
    fn tracks_oracle_and_counts_work_once() {
        let oracle = Oracle::new(grid_place_set());
        let mut positions = units();
        let mut sharded =
            ShardedCtup::new(CtupConfig::with_k(5), fresh_store(), &positions, 4).expect("init");
        for update in updates(STEPS, 0x0AC1) {
            sharded.handle_update(update).expect("update");
            positions[update.unit.index()] = update.new;
            oracle.assert_result_matches(&sharded.result(), &positions, 0.1, 5);
            assert_eq!(sharded.unit_position(update.unit), update.new);
        }
        assert_eq!(sharded.metrics().updates_processed, STEPS as u64);
        let lat = sharded
            .internal_latency()
            .expect("the sharded engine records latency");
        assert_eq!(lat.update_total_nanos.count(), STEPS as u64 * 4);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut sharded =
            ShardedCtup::new(CtupConfig::with_k(3), fresh_store(), &units(), 2).expect("init");
        let before = sharded.result();
        let stats = sharded.handle_batch(Vec::new()).expect("empty batch");
        assert_eq!(stats, UpdateStats::default());
        assert_eq!(sharded.result(), before);
        assert_eq!(sharded.metrics().updates_processed, 0);
    }
}
