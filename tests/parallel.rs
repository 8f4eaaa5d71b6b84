//! Differential suite for the sharded parallel engine.
//!
//! The sharded engine's contract: for any update stream, any shard
//! count, and any cell-cache configuration, its `SK`, its top-k safety
//! sequence, and every entry strictly below `SK` must equal the
//! sequential [`OptCtup`]'s at every timestamp, and the reported set
//! must match the brute-force oracle. Entries *tied at* `SK` are
//! unordered by definition (the oracle makes the same allowance):
//! sequential `OptCtup` only maintains a place once its cell's bound
//! falls strictly below `SK`, so its pick among equal-safety places is
//! access-history-dependent, while the sharded merge always reports the
//! canonical smallest `(safety, place)` pairs. With one shard the two
//! engines coincide exactly. These tests sweep the shard-count ×
//! cache-size matrix over seeded workloads — including a degraded feed
//! produced by the chaos suite's fault plans — so a merge bug, an
//! ownership-partition bug, or a stale cache read cannot hide behind a
//! lucky interleaving.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::config::CtupConfig;
use ctup::core::ingest::{stamp_stream, IngestConfig, IngestGate, StampedUpdate};
use ctup::core::metrics::ResilienceStats;
use ctup::core::types::{LocationUpdate, TopKEntry, UnitId};
use ctup::core::{OptCtup, Oracle, ShardedCtup};
use ctup::mogen::{FaultPlan, PlaceGenConfig, SeededRng, Workload, WorkloadParams};
use ctup::spatial::{CellId, Grid, Point};
use ctup::storage::{
    CachedStore, CellLocalStore, PlaceRecord, PlaceStore, StorageError, StorageStats,
};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const NUM_UNITS: u32 = 20;
const RADIUS: f64 = 0.1;
const K: usize = 10;

/// Miri executes threads faithfully but slowly; the nightly Miri job gets
/// a short stream while CI and local runs sweep the full one.
const STEPS: usize = if cfg!(miri) { 10 } else { 250 };

fn setup(seed: u64) -> (Workload, Arc<dyn PlaceStore>) {
    let workload = Workload::generate(WorkloadParams {
        num_units: NUM_UNITS,
        places: PlaceGenConfig {
            count: 1_000,
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

/// Wraps `base` in a cell-read cache of `pages` pages; zero leaves the
/// store unwrapped, matching the CLI's `--cell-cache-pages 0` default.
fn with_cache(base: &Arc<dyn PlaceStore>, pages: u64) -> Arc<dyn PlaceStore> {
    if pages == 0 {
        base.clone()
    } else {
        Arc::new(CachedStore::new(base.clone(), pages))
    }
}

/// Asserts the sharded-vs-sequential contract: identical `SK`, identical
/// top-k safety sequence (both results are sorted by `(safety, place)`,
/// so equal sequences mean equal safety multisets), and identical
/// entries strictly below `SK`. The tail tied *at* `SK` is
/// implementation-chosen on both sides — callers verify its truthfulness
/// against the oracle — and with one shard the results must be exactly
/// equal, tie picks included.
fn assert_equivalent(seq: &OptCtup, sharded: &ShardedCtup, num_shards: u32, label: &str) {
    let sk = seq.sk();
    assert_eq!(sk, sharded.sk(), "{label}: SK");
    let seq_result = seq.result();
    let sharded_result = sharded.result();
    if num_shards <= 1 {
        assert_eq!(
            seq_result, sharded_result,
            "{label}: single shard must be exact"
        );
        return;
    }
    let safeties: Vec<_> = seq_result.iter().map(|e| e.safety).collect();
    let sharded_safeties: Vec<_> = sharded_result.iter().map(|e| e.safety).collect();
    assert_eq!(safeties, sharded_safeties, "{label}: safety sequence");
    let strictly_below = |result: &[TopKEntry]| -> Vec<TopKEntry> {
        result
            .iter()
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

/// The core differential sweep: shard counts 1, 2, 3, 7 × cache budgets
/// 0 (disabled), 1 (pathological thrash), and large (whole grid resident).
/// The sharded engine must stay equivalent to the sequential `OptCtup`
/// after every single update, and oracle-true throughout the run.
#[test]
fn sharded_matches_sequential_for_all_shard_counts_and_cache_sizes() {
    for num_shards in [1u32, 2, 3, 7] {
        for cache_pages in [0u64, 1, 256] {
            let seed = 0x5EED ^ u64::from(num_shards) ^ (cache_pages << 8);
            let (mut workload, base) = setup(seed);
            let units = workload.unit_positions();
            let config = CtupConfig::with_k(K);
            let mut seq = OptCtup::new(config.clone(), base.clone(), &units).expect("clean store");
            let mut sharded =
                ShardedCtup::new(config, with_cache(&base, cache_pages), &units, num_shards)
                    .expect("clean store");
            let label = format!("{num_shards} shards, {cache_pages} cache pages");
            assert_equivalent(&seq, &sharded, num_shards, &format!("{label}: init"));
            let oracle = Oracle::from_store(base.as_ref()).expect("clean store");
            oracle.assert_result_matches(&sharded.result(), &units, RADIUS, K);

            let mut positions = units.clone();
            for (step, update) in updates_from(&mut workload, STEPS).into_iter().enumerate() {
                seq.handle_update(update).expect("seq update");
                sharded.handle_update(update).expect("sharded update");
                positions[update.unit.index()] = update.new;
                assert_equivalent(&seq, &sharded, num_shards, &format!("{label}: step {step}"));
                // The oracle pass is brute force over every place; sample it.
                if step % 50 == 49 {
                    oracle.assert_result_matches(&sharded.result(), &positions, RADIUS, K);
                }
            }
            oracle.assert_result_matches(&sharded.result(), &positions, RADIUS, K);
        }
    }
}

/// Randomly poisons a wire report, mirroring the chaos suite: NaN
/// coordinate, position far outside the monitored space, or an unknown
/// unit id. The ingest gate must reject all three.
fn corrupt_report(report: &mut StampedUpdate, rng: &mut SeededRng) {
    match rng.gen_range(0..3) {
        0 => report.update.new = Point::new(f64::NAN, report.update.new.y),
        1 => report.update.new = Point::new(5.0, 5.0),
        _ => report.update.unit = UnitId(10_000),
    }
}

/// The chaos-suite fault plans, pointed at the sharded engine: a degraded
/// feed (drops, duplicates, reordering, corruption) is run through the
/// ingest gate, and the surviving effective stream must drive the sharded
/// engine and the sequential `OptCtup` to equivalent results at every
/// timestamp — ending oracle-true.
#[test]
fn chaos_feed_is_exact_across_shards() {
    let (mut workload, base) = setup(0xC4A5);
    let units = workload.unit_positions();
    let clean = updates_from(&mut workload, if cfg!(miri) { 40 } else { 600 });
    let plan = FaultPlan {
        seed: 0xFA17,
        drop_prob: 0.06,
        dup_prob: 0.03,
        reorder_prob: 0.25,
        reorder_window: 5,
        corrupt_prob: 0.02,
        delay_prob: 0.02,
        max_delay: 12,
    };
    let (degraded, log) = plan.apply(stamp_stream(clean), corrupt_report);
    assert!(log.dropped > 0 && log.duplicated > 0 && log.reordered > 0 && log.corrupted > 0);

    // The gate turns the degraded wire feed into the effective stream both
    // engines consume — exactly as the supervised pipeline would.
    let mut gate = IngestGate::new(IngestConfig {
        space: *base.grid().space(),
        num_units: NUM_UNITS as usize,
        lease_ttl: None,
    });
    let mut stats = ResilienceStats::default();
    let mut effective = Vec::new();
    for &wire in &degraded {
        if let Ok(admitted) = gate.admit(wire, &mut stats) {
            effective.extend(admitted);
        }
    }
    assert!(!effective.is_empty());

    let config = CtupConfig::with_k(K);
    let mut seq = OptCtup::new(config.clone(), base.clone(), &units).expect("clean store");
    let mut sharded =
        ShardedCtup::new(config, with_cache(&base, 128), &units, 3).expect("clean store");
    let mut positions = units.clone();
    let oracle = Oracle::from_store(base.as_ref()).expect("clean store");
    for (step, &update) in effective.iter().enumerate() {
        seq.handle_update(update).expect("seq update");
        sharded.handle_update(update).expect("sharded update");
        positions[update.unit.index()] = update.new;
        assert_equivalent(&seq, &sharded, 3, &format!("chaos step {step}"));
        if step % 100 == 99 {
            oracle.assert_result_matches(&sharded.result(), &positions, RADIUS, K);
        }
    }
    oracle.assert_result_matches(&sharded.result(), &positions, RADIUS, K);
}

/// Batched ingest with ragged batch sizes: the engine sees the stream as
/// batches of 1, 3, 8, 17, … while the sequential reference applies the
/// same updates one at a time. Results must stay equivalent at every
/// batch boundary (the engine's observable timestamps) and oracle-true
/// at the end.
#[test]
fn batched_ingest_matches_sequential_at_boundaries_with_cache() {
    let (mut workload, base) = setup(0xBA7C);
    let units = workload.unit_positions();
    let stream = updates_from(&mut workload, STEPS);
    let config = CtupConfig::with_k(K);
    let mut seq = OptCtup::new(config.clone(), base.clone(), &units).expect("clean store");
    let mut sharded =
        ShardedCtup::new(config, with_cache(&base, 64), &units, 4).expect("clean store");

    let sizes = [1usize, 3, 8, 17];
    let mut positions = units.clone();
    let mut fed = 0usize;
    let mut batch_no = 0usize;
    while fed < stream.len() {
        let take = sizes[batch_no % sizes.len()].min(stream.len() - fed);
        let batch = &stream[fed..fed + take];
        for &update in batch {
            seq.handle_update(update).expect("seq update");
            positions[update.unit.index()] = update.new;
        }
        sharded.handle_batch(batch.to_vec()).expect("batch");
        assert_equivalent(&seq, &sharded, 4, &format!("batch {batch_no}"));
        fed += take;
        batch_no += 1;
    }
    assert_eq!(sharded.metrics().updates_processed, stream.len() as u64);
    let oracle = Oracle::from_store(base.as_ref()).expect("clean store");
    oracle.assert_result_matches(&sharded.result(), &positions, RADIUS, K);
}

/// Degenerate population: fewer places than `k`, and more shards than
/// occupied cells — most shards own nothing. The merged result must still
/// be the full (short) list with `SK` absent, exactly like the sequential
/// scheme.
#[test]
fn fewer_places_than_k_with_mostly_empty_shards() {
    let places = vec![
        ctup::core::types::Place::point(ctup::core::types::PlaceId(0), Point::new(0.2, 0.2), 1),
        ctup::core::types::Place::point(ctup::core::types::PlaceId(1), Point::new(0.5, 0.55), 2),
        ctup::core::types::Place::point(ctup::core::types::PlaceId(2), Point::new(0.8, 0.8), 3),
    ];
    let base: Arc<dyn PlaceStore> =
        Arc::new(CellLocalStore::build(Grid::unit_square(8), places.clone()));
    let units: Vec<Point> = (0..6)
        .map(|i| Point::new(0.1 + 0.15 * f64::from(i), 0.5))
        .collect();
    let config = CtupConfig::with_k(K);
    let mut seq = OptCtup::new(config.clone(), base.clone(), &units).expect("clean store");
    let mut sharded =
        ShardedCtup::new(config, with_cache(&base, 16), &units, 7).expect("clean store");
    assert_eq!(seq.result(), sharded.result());
    assert_eq!(sharded.result().len(), places.len());
    assert_eq!(sharded.sk(), None);

    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..STEPS {
        let update = LocationUpdate {
            unit: UnitId((next() * 6.0) as u32 % 6),
            new: Point::new(next(), next()),
        };
        seq.handle_update(update).expect("seq update");
        sharded.handle_update(update).expect("sharded update");
        assert_eq!(seq.result(), sharded.result());
        assert_eq!(seq.sk(), sharded.sk());
        assert_eq!(sharded.sk(), None, "fewer than k places can have no SK");
    }
}

/// The cache must be transparent *and* effective: the same deterministic
/// sharded run consults the cache exactly as often as the uncached run
/// touches the lower level, only misses reach the lower level, and the
/// paged bytes read can only shrink.
#[test]
fn cache_consults_equal_uncached_lower_level_reads() {
    let run = |cache_pages: u64| {
        let (mut workload, base) = setup(0xCAFE);
        let units = workload.unit_positions();
        let stream = updates_from(&mut workload, STEPS);
        let store = with_cache(&base, cache_pages);
        let mut sharded =
            ShardedCtup::new(CtupConfig::with_k(K), store, &units, 2).expect("clean store");
        for &update in &stream {
            sharded.handle_update(update).expect("sharded update");
        }
        (sharded.result(), base.stats().snapshot())
    };
    let (uncached_result, uncached) = run(0);
    let (cached_result, cached) = run(256);
    assert_eq!(uncached_result, cached_result, "cache changed the result");
    assert_eq!(uncached.cache_hits, 0);
    assert_eq!(uncached.cache_misses, 0);
    // Determinism: both runs issue the same logical cell-read sequence, so
    // every uncached lower-level read is a cache consult in the cached run.
    assert_eq!(cached.cache_hits + cached.cache_misses, uncached.cell_reads);
    // Only misses reach the lower level.
    assert_eq!(cached.cell_reads, cached.cache_misses);
    assert!(cached.pages_read <= uncached.pages_read);
}

/// The fault [`FaultyCells`] serves; its page number marks it as this test's.
const FAULT: StorageError = StorageError::Io {
    page: 0xFA17,
    attempts: 1,
};

/// Fails every read of the cells in `faulty`. The set starts empty, so the
/// engine initializes over clean reads, and is filled in once it is built.
struct FaultyCells {
    inner: Arc<dyn PlaceStore>,
    faulty: Mutex<Vec<CellId>>,
}

impl PlaceStore for FaultyCells {
    fn grid(&self) -> &Grid {
        self.inner.grid()
    }
    fn num_places(&self) -> usize {
        self.inner.num_places()
    }
    fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError> {
        if self.faulty.lock().expect("fault lock").contains(&cell) {
            return Err(FAULT);
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

/// A storage fault in either shard — shard 0 on the calling thread or
/// shard 1 on its worker — fails the batch with that fault, and the
/// engine can still be dropped: every worker is shut down and joined.
#[test]
fn a_storage_fault_on_either_shard_fails_the_batch_and_drop_returns() {
    for shard in [0u32, 1] {
        let (mut workload, base) = setup(0xFA17 + u64::from(shard));
        let units = workload.unit_positions();
        let store = Arc::new(FaultyCells {
            inner: base,
            faulty: Mutex::new(Vec::new()),
        });
        let mut sharded =
            ShardedCtup::new(CtupConfig::with_k(K), store.clone(), &units, 2).expect("clean store");
        let map = sharded.shard_map();
        *store.faulty.lock().expect("fault lock") = store
            .grid()
            .cells()
            .filter(|&c| map.owns(shard, c))
            .collect();
        let error = updates_from(&mut workload, STEPS)
            .chunks(8)
            .find_map(|batch| sharded.handle_batch(batch.to_vec()).err());
        assert_eq!(
            error,
            Some(FAULT),
            "shard {shard}: the fault must fail a batch"
        );

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(sharded);
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(30)).is_ok(),
            "shard {shard}: dropping the failed engine did not return"
        );
    }
}
